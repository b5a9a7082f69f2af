// Command-line utility: sketch or solve directly from Matrix Market files —
// the "downstream user" entry point that needs no C++ at all.
//
//   sketch_tool sketch --in A.mtx --out Ahat.mtx [--gamma 3] [--dist pm1]
//               [--kernel kji|jki] [--seed 42]
//   sketch_tool solve  --in A.mtx [--rhs b.txt] [--svd] [--gamma 2]
//               [--guarded] [--attempts N]
//   sketch_tool info   --in A.mtx
//
// Input validation (structure + NaN/Inf scan) is ON by default here — files
// come from outside the process, so corruption is a user-facing error, not a
// precondition violation. --no-check restores the library's raw hot path.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dense/microkernel.hpp"
#include "perf/report.hpp"
#include "perf/trace.hpp"
#include "sketch/autotune.hpp"
#include "sketch/batch.hpp"
#include "sketch/sketch.hpp"
#include "sketch/tuner.hpp"
#include "solvers/guarded.hpp"
#include "solvers/least_squares.hpp"
#include "solvers/sap.hpp"
#include "sparse/convert.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/ops.hpp"
#include "sparse/validate.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/run_control.hpp"
#include "support/timer.hpp"

using namespace rsketch;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s sketch --in A.mtx --out Ahat.mtx [--gamma G] "
               "[--dist pm1|uniform|gauss] [--kernel kji|jki] [--seed S]\n"
               "            [--tune off|model|empirical|cached] "
               "[--isa auto|scalar|avx2|avx512]\n"
               "  %s solve  --in A.mtx [--rhs b.txt] [--svd] [--gamma G] "
               "[--guarded] [--attempts N]\n"
               "  %s info   --in A.mtx\n"
               "  %s batch  --manifest JOBS.txt [--workers N] [--gamma G] "
               "[--dist ...] [--kernel ...]\n"
               "            (or: --batch JOBS.txt; manifest lines are "
               "\"<matrix.mtx> <seed> <out.mtx>\", # comments ok;\n"
               "             docs/SERVING.md has the full format)\n"
               "common flags: --no-check disables the input validators "
               "(structure + NaN/Inf scan), on by default;\n"
               "  --tune selects block/kernel autotuning "
               "(docs/AUTOTUNING.md; default: model blocks only)\n"
               "  --trace PATH records a Chrome-trace timeline to PATH "
               "(same as RSKETCH_TRACE=PATH; docs/OBSERVABILITY.md)\n"
               "  --deadline-ms T / --budget-mb M bound the command: the "
               "sketch, the solve (all attempts) or the whole batch;\n"
               "    without the flag, RSKETCH_DEADLINE_MS / RSKETCH_BUDGET_MB "
               "give the same bound\n"
               "  --on-pressure fail|degrade picks the budget-pressure policy "
               "(default degrade; docs/ROBUSTNESS.md)\n"
               "  --block-d D / --block-n N pin the outer blocks "
               "(bypasses autotuning; for scripted, reproducible runs)\n"
               "exit codes: 0 ok, 1 I/O or internal error, 2 usage or input "
               "validation, 3 numeric failure, 4 deadline, 5 budget,\n"
               "  6 batch partial failure (some jobs failed; per-job status "
               "on stdout/stderr)\n",
               prog, prog, prog, prog);
  return 2;
}

Dist parse_dist(const std::string& s) {
  if (s == "pm1") return Dist::PmOne;
  if (s == "uniform") return Dist::Uniform;
  if (s == "gauss") return Dist::Gaussian;
  throw invalid_argument_error("unknown --dist '" + s + "'");
}

OnPressure parse_on_pressure(const std::string& s) {
  if (s == "fail") return OnPressure::Fail;
  if (s == "degrade") return OnPressure::Degrade;
  throw invalid_argument_error("unknown --on-pressure '" + s +
                               "' (want fail|degrade)");
}

/// The run bounds of one command: --deadline-ms and --budget-mb, each
/// falling back to RSKETCH_DEADLINE_MS / RSKETCH_BUDGET_MB when the flag is
/// absent. The library reads no bound from the environment; this does.
RunBounds bounds_from_flags(const CliArgs& args) {
  RunBounds bounds;
  bounds.deadline_ms = args.get_double(
      "deadline-ms", env_double("RSKETCH_DEADLINE_MS", 0.0));
  const double budget_mb =
      args.get_double("budget-mb", env_double("RSKETCH_BUDGET_MB", 0.0));
  require(budget_mb >= 0.0, "--budget-mb must be >= 0 (0 = no budget)");
  bounds.workspace_budget_bytes = static_cast<std::size_t>(budget_mb * 1e6);
  return bounds;
}

/// The sketch flags `sketch` and `batch` share: --gamma, --dist, --kernel,
/// --no-check, --on-pressure and --isa, for a sketch of `a`.
SketchConfig sketch_config_from_flags(const CliArgs& args,
                                      const CscMatrix<double>& a,
                                      std::uint64_t seed) {
  SketchConfig cfg;
  cfg.d = static_cast<index_t>(args.get_double("gamma", 3.0) *
                               static_cast<double>(a.cols()));
  cfg.seed = seed;
  cfg.dist = parse_dist(args.get("dist", "pm1"));
  cfg.kernel =
      args.get("kernel", "kji") == "jki" ? KernelVariant::Jki
                                         : KernelVariant::Kji;
  cfg.normalize = true;
  cfg.check_inputs = !args.has("no-check");
  cfg.on_pressure = parse_on_pressure(args.get("on-pressure", "degrade"));
  const std::string isa = args.get("isa", "auto");
  require(microkernel::parse_isa(isa, &cfg.isa),
          "unknown --isa '" + isa + "' (want auto|scalar|avx2|avx512)");
  return cfg;
}

std::vector<double> read_vector(const std::string& path, index_t expect) {
  std::ifstream in(path);
  if (!in) throw io_error("cannot open rhs file '" + path + "'");
  std::vector<double> v;
  double x = 0.0;
  while (in >> x) v.push_back(x);
  require(static_cast<index_t>(v.size()) == expect,
          "rhs length does not match the matrix row count");
  return v;
}

int cmd_info(const CliArgs& args, const CscMatrix<double>& a) {
  if (!args.has("no-check")) {
    const ValidationReport rep = validate_csc(a);
    std::printf("validate %s\n", rep.summary().c_str());
  }
  std::printf("rows     %lld\n", static_cast<long long>(a.rows()));
  std::printf("cols     %lld\n", static_cast<long long>(a.cols()));
  std::printf("nnz      %lld\n", static_cast<long long>(a.nnz()));
  std::printf("density  %.3e\n", a.density());
  std::printf("mem CSC  %.2f MB\n", static_cast<double>(a.memory_bytes()) / 1e6);
  std::printf("empty rows %lld, empty cols %lld\n",
              static_cast<long long>(count_empty_rows(a)),
              static_cast<long long>(count_empty_cols(a)));
  return 0;
}

int cmd_sketch(const CliArgs& args, const CscMatrix<double>& a) {
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "sketch: --out is required\n");
    return 2;
  }
  SketchConfig cfg = sketch_config_from_flags(
      args, a, static_cast<std::uint64_t>(args.get_int("seed", 42)));
  cfg.bounds = bounds_from_flags(args);
  TuneDecision decision;
  const std::string tune = args.get("tune", "");
  const index_t block_d_flag =
      static_cast<index_t>(args.get_int("block-d", 0));
  const index_t block_n_flag =
      static_cast<index_t>(args.get_int("block-n", 0));
  if (block_d_flag > 0 || block_n_flag > 0) {
    // Pinned blocks: model defaults fill whichever flag is absent, and the
    // (timing-dependent) empirical tuner is bypassed so scripted runs — the
    // degradation-ladder ctest in particular — are bitwise reproducible.
    if (block_d_flag <= 0 || block_n_flag <= 0) autotune_blocks(cfg, a);
    if (block_d_flag > 0) cfg.block_d = block_d_flag;
    if (block_n_flag > 0) cfg.block_n = block_n_flag;
  } else if (tune.empty()) {
    // Historical default: model-suggested blocks, caller's kernel/backend.
    autotune_blocks(cfg, a);
  } else {
    cfg.tune = parse_tune_mode(tune);
    cfg = resolve_tuning(cfg, a, &decision);
    std::printf("tuner: %s -> %s", to_string(decision.source).c_str(),
                decision.choice.label().c_str());
    if (decision.candidates_timed > 0) {
      std::printf(" (%d candidates timed, winner pilot %.3f ms)",
                  decision.candidates_timed, decision.pilot_seconds * 1e3);
    }
    if (decision.source == TuneSource::Cache) std::printf(" (cache hit)");
    std::printf("\n");
  }
  std::printf(
      "sketching: d=%lld, dist=%s, kernel=%s, blocks=(%lld, %lld), isa=%s\n",
      static_cast<long long>(cfg.d), to_string(cfg.dist).c_str(),
      to_string(cfg.kernel).c_str(), static_cast<long long>(cfg.block_d),
      static_cast<long long>(cfg.block_n),
      microkernel::to_string(microkernel::resolve(cfg.isa)));

  perf::ReportBuilder report("sketch_tool");
  report.config("in", args.get("in", ""));
  report.config("out", out_path);
  report.config("d", static_cast<long long>(cfg.d));
  report.config("dist", to_string(cfg.dist));
  report.config("kernel", to_string(cfg.kernel));
  report.config("block_d", static_cast<long long>(cfg.block_d));
  report.config("block_n", static_cast<long long>(cfg.block_n));
  report.config("isa", microkernel::to_string(microkernel::resolve(cfg.isa)));
  if (!tune.empty()) {
    report.config("tune", tune);
    report.config("tune_source", to_string(decision.source));
    report.config("tune_choice", decision.choice.label());
  }

  DenseMatrix<double> a_hat;
  const auto stats = sketch_into(cfg, a, a_hat);

  if (report.active()) {
    report.timing("sketch", stats.total_seconds, stats);
    report.config("block_n_run", static_cast<long long>(stats.block_n));
  }
  std::printf("done in %.3f s (%.2f GFlop/s, %llu samples on the fly)\n",
              stats.total_seconds, stats.gflops,
              static_cast<unsigned long long>(stats.samples_generated));
  if (stats.block_n > 0 &&
      stats.block_n != std::min(cfg.block_n, std::max<index_t>(a.cols(), 1))) {
    // The kji driver narrows b_n to give every thread a block (and the
    // budget ladder may change it); the bits are those of the printed blocks.
    std::printf("ran b_n=%lld\n", static_cast<long long>(stats.block_n));
  }
  if (cfg.bounds.deadline_ms > 0.0 || cfg.bounds.workspace_budget_bytes > 0) {
    // Run-control summary: scripted callers grep this line (and the JSON
    // counter below) to confirm the ladder engaged.
    std::printf("degradations=%llu\n",
                static_cast<unsigned long long>(stats.degradations));
  }
  if (report.active()) {
    report.counter("degradations", stats.degradations);
    std::printf("measured intensity: %.2f flops/element "
                "(%llu nonzeros processed)\n",
                stats.measured_intensity(),
                static_cast<unsigned long long>(stats.counters.nnz_processed));
  }

  write_matrix_market_file(out_path, a_hat);
  std::printf("wrote %s\n", out_path.c_str());
  // After the output, so the report's span table covers io/write.
  if (report.active()) report.write();
  return 0;
}

int cmd_solve(const CliArgs& args, CscMatrix<double> a) {
  if (a.rows() < a.cols()) {
    std::printf("input is wide; solving with the transpose (paper's setup)\n");
    a = transpose(a);
  }
  const std::string rhs = args.get("rhs", "");
  const std::vector<double> b = rhs.empty()
                                    ? make_least_squares_rhs(a, 7)
                                    : read_vector(rhs, a.rows());
  SapOptions opt;
  opt.factor = args.has("svd") ? SapFactor::SVD : SapFactor::QR;
  opt.gamma = args.get_double("gamma", 2.0);
  // The bounds span the whole solve, and every attempt of a guarded one: an
  // expired clock stops the solve before the next attempt starts.
  opt.bounds = bounds_from_flags(args);

  SapResult<double> res;
  int attempts = 1;
  bool recovered = false;
  if (args.has("guarded")) {
    GuardedSapOptions gopt;
    gopt.base = opt;
    gopt.max_attempts = static_cast<int>(args.get_int("attempts", 3));
    gopt.check_inputs = !args.has("no-check");
    // Fault-injection aid (see docs/ROBUSTNESS.md): deliberately poison the
    // first N sketches so the recovery path is demonstrable end to end.
    gopt.poison_first_attempts = static_cast<int>(args.get_int("poison", 0));
    GuardedSapResult<double> g = guarded_sap_solve(a, b, gopt);
    attempts = g.attempts;
    recovered = g.recovered;
    for (const SapAttemptLog& log : g.log) {
      std::printf("attempt %d: %s (seed=%llu, d=%lld, cond~%.2e)\n",
                  log.attempt, to_string(log.outcome).c_str(),
                  static_cast<unsigned long long>(log.seed),
                  static_cast<long long>(log.d), log.cond_estimate);
    }
    if (recovered) {
      std::printf("recovered after %d attempt(s)\n", attempts);
    }
    res = std::move(g.result);
  } else {
    if (!args.has("no-check")) require_valid(a);
    res = sap_solve(a, b, opt);
  }
  // Peak workspace sits next to the phase timings so the numbers printed
  // here are the exact MemoryTracker accounting Table XI reports.
  std::printf("SAP-%s: %.3f s (sketch %.3f, factor %.3f, LSQR %.3f), "
              "%lld iterations, peak workspace %.2f MB\n",
              opt.factor == SapFactor::SVD ? "SVD" : "QR", res.total_seconds,
              res.sketch_seconds, res.factor_seconds, res.lsqr_seconds,
              static_cast<long long>(res.iterations),
              static_cast<double>(res.workspace_bytes) / 1e6);
  std::printf("error metric ||A'(Ax-b)||/(||A||_F ||Ax-b||) = %.3e\n",
              ls_error_metric(a, res.x, b));

  perf::ReportBuilder report("sketch_tool_solve");
  report.config("in", args.get("in", ""));
  report.config("factor", opt.factor == SapFactor::SVD ? "svd" : "qr");
  report.config("gamma", opt.gamma);
  report.config("guarded", args.has("guarded") ? 1LL : 0LL);
  report.timing("sketch", res.sketch_seconds);
  report.timing("factor", res.factor_seconds);
  report.timing("lsqr", res.lsqr_seconds);
  report.timing("total", res.total_seconds);
  report.counter("lsqr_iterations",
                 static_cast<std::uint64_t>(res.iterations));
  report.counter("peak_workspace_bytes", res.workspace_bytes);
  // Retry telemetry: the span table already carries the guarded_sap_solve
  // root, its sap/* phases and the guarded_sap/retry and
  // guarded_sap/attempt_ok entries; these counters make the totals greppable.
  report.counter("guarded_attempts", static_cast<std::uint64_t>(attempts));
  report.counter("guarded_recovered", recovered ? 1u : 0u);
  report.write();
  std::printf("x[0..%d] =", static_cast<int>(std::min<index_t>(5, a.cols())));
  for (index_t j = 0; j < std::min<index_t>(5, a.cols()); ++j) {
    std::printf(" %.6g", res.x[static_cast<std::size_t>(j)]);
  }
  std::printf(" ...\n");
  return 0;
}

struct ManifestJob {
  std::string matrix_path;
  std::uint64_t seed = 0;
  std::string out_path;
  int line = 0;
};

/// One job per line: "<matrix.mtx> <seed> <out.mtx>". Blank lines and
/// #-comments are skipped; anything else malformed is a usage error.
std::vector<ManifestJob> read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw io_error("cannot open manifest '" + path + "'");
  std::vector<ManifestJob> jobs;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream ss(line);
    std::string matrix;
    if (!(ss >> matrix) || matrix[0] == '#') continue;
    long long seed = 0;
    std::string out;
    if (!(ss >> seed >> out) || seed < 0) {
      throw invalid_argument_error(
          "manifest line " + std::to_string(lineno) +
          ": want \"<matrix.mtx> <seed> <out.mtx>\" (got '" + line + "')");
    }
    jobs.push_back(
        {matrix, static_cast<std::uint64_t>(seed), out, lineno});
  }
  if (jobs.empty()) {
    throw invalid_argument_error("manifest '" + path + "' lists no jobs");
  }
  return jobs;
}

int cmd_batch(const CliArgs& args) {
  std::string manifest_path = args.get("manifest", "");
  if (manifest_path.empty()) manifest_path = args.get("batch", "");
  if (manifest_path.empty()) {
    std::fprintf(stderr, "batch: --manifest FILE (or --batch FILE) is required\n");
    return 2;
  }
  const std::vector<ManifestJob> manifest = read_manifest(manifest_path);

  BatchOptions bopt;
  bopt.workers = static_cast<int>(args.get_int("workers", 0));
  bopt.bounds = bounds_from_flags(args);

  // Load every distinct matrix ONCE: manifests typically sketch one input
  // under many seeds, and sharing the parsed CSC across jobs is part of the
  // batch amortization story. unique_ptr keeps addresses stable while jobs
  // borrow them.
  std::map<std::string, std::unique_ptr<CscMatrix<double>>> matrices;
  for (const ManifestJob& job : manifest) {
    if (matrices.find(job.matrix_path) == matrices.end()) {
      matrices.emplace(job.matrix_path,
                       std::make_unique<CscMatrix<double>>(
                           read_matrix_market_file<double>(job.matrix_path)));
    }
  }

  const std::string tune = args.get("tune", "");
  SketchBatch batch(bopt);
  Timer wall;  // submit -> wait_all: the number a serving operator watches
  std::vector<DenseMatrix<double>> outs(manifest.size());  // sized up front:
  std::vector<JobHandle> handles;  // jobs hold pointers into `outs`
  handles.reserve(manifest.size());
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    const CscMatrix<double>& a = *matrices.at(manifest[i].matrix_path);
    SketchConfig cfg = sketch_config_from_flags(args, a, manifest[i].seed);
    if (!tune.empty()) {
      // Resolved through the batch's shared memo: one fingerprint pass (and
      // at most one pilot run) per distinct problem shape, not per job.
      cfg.tune = parse_tune_mode(tune);
    } else {
      autotune_blocks(cfg, a);
    }
    handles.push_back(batch.submit(cfg, a, outs[i]));
  }

  std::size_t failed = batch.wait_all();
  const double batch_seconds = wall.seconds();
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    const ManifestJob& m = manifest[i];
    if (handles[i].failed()) {
      try {
        std::rethrow_exception(handles[i].error());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "job %zu (line %d, %s seed=%llu): FAILED: %s\n",
                     i, m.line, m.matrix_path.c_str(),
                     static_cast<unsigned long long>(m.seed), e.what());
      }
      continue;
    }
    try {
      write_matrix_market_file(m.out_path, outs[i]);
      std::printf("job %zu: %s seed=%llu -> %s (%.3f s)\n", i,
                  m.matrix_path.c_str(),
                  static_cast<unsigned long long>(m.seed), m.out_path.c_str(),
                  handles[i].stats().total_seconds);
    } catch (const std::exception& e) {
      // An unwritable output is THIS job's failure, not the batch's: the
      // remaining jobs' results still land, and the exit code says partial.
      ++failed;
      std::fprintf(stderr, "job %zu (line %d): cannot write %s: %s\n", i,
                   m.line, m.out_path.c_str(), e.what());
    }
  }

  const WorkspaceArena& arena = batch.arena();
  std::printf("batch: %zu job(s), %zu ok, %zu failed, workers=%d, "
              "steals=%llu, arena reuse %llu/%llu, arena held %.2f MB\n",
              manifest.size(), manifest.size() - failed, failed,
              batch.workers(),
              static_cast<unsigned long long>(batch.steals()),
              static_cast<unsigned long long>(arena.reuse_hits()),
              static_cast<unsigned long long>(arena.reuse_hits() +
                                              arena.slab_allocs()),
              static_cast<double>(arena.held_bytes()) / 1e6);

  perf::ReportBuilder report("sketch_tool_batch");
  if (report.active()) {
    report.config("manifest", manifest_path);
    report.config("workers", static_cast<long long>(batch.workers()));
    report.timing("batch/wall", batch_seconds);
    report.counter("jobs", static_cast<std::uint64_t>(manifest.size()));
    report.counter("jobs_failed", static_cast<std::uint64_t>(failed));
    report.counter("steals", batch.steals());
    report.counter("arena_reuse_hits", arena.reuse_hits());
    report.write();
  }
  return failed == 0 ? 0 : 6;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  // `--batch MANIFEST` with no positional command is shorthand for the
  // batch subcommand (the manifest replaces --in).
  if (args.positional().empty() && !args.has("batch")) return usage(argv[0]);
  const std::string cmd =
      args.positional().empty() ? "batch" : args.positional()[0];
  const std::string in_path = args.get("in", "");
  if (cmd != "batch" && in_path.empty()) return usage(argv[0]);

  // --trace PATH mirrors RSKETCH_TRACE=PATH; the at-exit exporter writes the
  // timeline after main returns, so every command is covered.
  if (const std::string trace_path = args.get("trace", "");
      !trace_path.empty()) {
    perf::trace::set_output(trace_path);
    perf::trace::arm();
  }

  // Distinct exit codes per failure class (documented in usage()): scripts
  // can tell a corrupt input (2) from a numeric failure (3) from a fired
  // deadline (4) or budget (5) without parsing stderr. The guarded-solve
  // attempt log is embedded in the exception messages, so printing what()
  // surfaces the full retry history on failure.
  try {
    if (cmd == "batch") return cmd_batch(args);
    CscMatrix<double> a = read_matrix_market_file<double>(in_path);
    if (cmd == "info") return cmd_info(args, a);
    if (cmd == "sketch") return cmd_sketch(args, a);
    if (cmd == "solve") return cmd_solve(args, std::move(a));
    return usage(argv[0]);
  } catch (const validation_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const invalid_argument_error& e) {
    // Bad flag values and malformed manifests are usage errors (exit 2, as
    // the usage text has always documented), not internal failures.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const run_stopped_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    switch (e.cause()) {
      case StopCause::DeadlineExceeded: return 4;
      case StopCause::BudgetExceeded: return 5;
      default: return 1;  // Cancelled: no signal handler wires this yet
    }
  } catch (const numeric_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
