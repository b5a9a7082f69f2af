// The per-layer ledger: one probe per layer of rsketch, each timing calls into
// that layer's public functions from here, with the trace recorder armed and
// one "layer/<name>" slice around every probe. The probes use the workloads'
// own inputs and configurations (layers.hpp), so a layer number can be read
// next to the end-to-end metric it should move. The driver thread sweep runs
// in separate fresh processes (run_sweep) so that a slow process shows up as
// one, not averaged into a single in-process number.
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "analysis/machine.hpp"
#include "dense/microkernel.hpp"
#include "layers.hpp"
#include "perf/perf.hpp"
#include "perf/trace.hpp"
#include "rng/xoshiro_batch.hpp"
#include "sketch/autotune.hpp"
#include "sketch/batch.hpp"
#include "sketch/outer_blocking.hpp"
#include "sketch/sketch.hpp"
#include "sketch/tuner.hpp"
#include "solvers/least_squares.hpp"
#include "sparse/blocked_csr.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/generate.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/validate.hpp"
#include "support/aligned_buffer.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace layers {

using namespace rsketch;

namespace {

/// Wall seconds of each of `reps` calls of fn.
std::vector<double> time_calls(int reps, const std::function<void()>& fn) {
  std::vector<double> out;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    out.push_back(t.seconds());
  }
  return out;
}

/// Median over `reps` of (units per second), each rep calling fn(i) until at
/// least `min_s` seconds have passed; every call processes `units` units.
double rate(int reps, double min_s, double units, const std::function<void(long)>& fn) {
  std::vector<double> rates;
  long i = 0;
  for (int r = 0; r < reps; ++r) {
    long calls = 0;
    Timer t;
    double secs = 0.0;
    do {
      for (int k = 0; k < 16; ++k) fn(i++);
      calls += 16;
      secs = t.seconds();
    } while (secs < min_s);
    rates.push_back(units * static_cast<double>(calls) / secs);
  }
  return median(rates);
}

double ms(const std::vector<double>& secs) { return 1e3 * median(secs); }

/// Dense -> COO -> CSC -> Matrix Market: sketch_tool's output path.
void write_dense_like_cli(const DenseMatrix<double>& m, const std::string& path) {
  CooMatrix<double> coo(m.rows(), m.cols());
  coo.reserve(m.rows() * m.cols());
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t i = 0; i < m.rows(); ++i) {
      if (m(i, j) != 0.0) coo.push(i, j, m(i, j));
    }
  }
  write_matrix_market_file(path, coo_to_csc(coo));
}

/// Runs each layer probe under a trace slice; a probe that throws is counted
/// as a failed unit and leaves its metrics out (run.py then reports them
/// missing).
class Ledger {
 public:
  void probe(const std::string& layer, const std::function<void()>& fn) {
    ++attempted_;
    try {
      perf::trace::Scope scope(perf::trace::intern("layer/" + layer));
      fn();
    } catch (const std::exception& e) {
      ++failed_;
      errors_.push_back(layer + ": " + e.what());
    }
  }

  void set(const std::string& name, double v) { metrics_[name] = v; }

  Json result() {
    Json doc = Json::object();
    doc["metrics"] = metrics_;
    doc["attempted"] = attempted_;
    doc["failed"] = failed_;
    Json errors = Json::array();
    for (const auto& e : errors_) errors.push_back(e);
    doc["errors"] = std::move(errors);
    return doc;
  }

 private:
  Json metrics_ = Json::object();
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace

Json run_ledger(const Options& opt) {
  const bool armed = !opt.trace_path.empty();
  if (armed) perf::trace::arm(std::size_t{1} << 18);
  const int reps = opt.quick ? 2 : 5;
  const int T = opt.threads;
  Ledger L;

  const CscMatrix<double> a_kji = kji_large_input(opt.seed);
  const SketchConfig c_kji = kji_large_config(opt.seed);
  const CscMatrix<double> a_skew = skewed_input(opt.seed);
  const SketchConfig c_skew = skewed_config(opt.seed);
  const CscMatrix<double> a_cli = cli_input(opt.seed);
  const std::string cli_in = opt.workdir + "/A.mtx";
  const std::string cli_out = opt.workdir + "/Ahat.mtx";
  write_matrix_market_file(cli_in, a_cli);

  // ---- cli + sparse I/O: first, before this process starts any thread team
  // that could compete with the children.
  std::vector<double> cli_wall;
  L.probe("cli/sketch_tool", [&] {
    const auto cli = [&] { run_sketch_tool(cli_in, cli_out, opt.workdir + "/sketch_tool.out"); };
    cli();  // unrecorded: the first run after a quiet spell wakes idle vCPUs
    cli_wall = time_calls(reps, cli);
  });
  double read_ms = 0, write_ms = 0, probe_ms = 0, model_ms = 0;
  L.probe("sparse/mm_read", [&] {
    read_ms = ms(time_calls(reps, [&] { (void)read_matrix_market_file<double>(cli_in); }));
    L.set("sparse.mm_read_ms", read_ms);
  });
  L.probe("sparse/validate", [&] {
    L.set("sparse.validate_ms", ms(time_calls(reps, [&] { (void)validate_csc(a_cli); })));
  });

  // ---- machine: the probes every tuned or scheduled call pays once.
  L.probe("machine/stream", [&] {
    std::vector<double> triad;
    const auto secs = time_calls(reps, [&] {
      triad.push_back(stream_benchmark(index_t{1} << 21, 2).triad_gbps);
    });
    probe_ms = ms(secs);
    L.set("machine.stream_probe_ms", probe_ms);
    L.set("machine.stream_triad_gbps", median(triad));
    L.set("machine.stream_triad_spread",
          (quantile(triad, 0.75) - quantile(triad, 0.25)) / median(triad));
  });
  L.probe("machine/h", [&] {
    const StreamResult& stream = cached_stream_result();
    L.set("machine.h_probe_ms", ms(time_calls(reps, [&] {
            (void)measure_h(Dist::PmOne, RngBackend::XoshiroBatch, stream);
          })));
  });

  // ---- tune: the model the CLI runs on every call, and how far its blocks
  // are from the empirical tuner's winner on the kji workload.
  SketchConfig c_cli = cli_config(a_cli.cols());
  L.probe("tune/model", [&] {
    model_ms = ms(time_calls(reps, [&] {
      SketchConfig c = cli_config(a_cli.cols());
      autotune_blocks(c, a_cli);
    }));
    L.set("tune.model_ms", model_ms);
    autotune_blocks(c_cli, a_cli);
  });
  L.probe("tune/model_gap", [&] {
    SketchConfig c = c_kji;
    c.tune = TuneMode::Model;
    const SketchConfig model = resolve_tuning(c, a_kji);
    c.tune = TuneMode::Empirical;
    const SketchConfig empirical = resolve_tuning(c, a_kji);
    DenseMatrix<double> out;
    const auto driver_s = [&](const SketchConfig& cfg) {
      std::vector<double> t;
      for (int r = 0; r < 3; ++r) t.push_back(sketch_into(cfg, a_kji, out).total_seconds);
      return median(t);
    };
    L.set("tune.model_gap", driver_s(model) / driver_s(empirical));
  });

  // ---- cli replay: read + probe + model + sketch_into + write, in process.
  L.probe("cli/replay", [&] {
    DenseMatrix<double> out;
    std::vector<double> into_s, kernel_s;
    sketch_into(c_cli, a_cli, out);
    for (int r = 0; r < reps; ++r) {
      Timer t;
      const SketchStats st = sketch_into(c_cli, a_cli, out);
      into_s.push_back(t.seconds());
      kernel_s.push_back(st.total_seconds);
    }
    write_ms = ms(time_calls(reps, [&] { write_dense_like_cli(out, cli_out); }));
    L.set("sparse.mm_write_ms", write_ms);
    const double cli_ms = ms(cli_wall);
    L.set("cli.unattributed_ms",
          cli_ms - (read_ms + probe_ms + model_ms + ms(into_s) + write_ms));
    L.set("cli.kernel_share", ms(kernel_s) / cli_ms);
    L.set("sketch.share", ms(into_s) / cli_ms);
  });

  // ---- rng + microkernel at the kji workload's b_d.
  const index_t bd = c_kji.block_d;
  const microkernel::Isa isa = microkernel::resolve(microkernel::Isa::Auto);
  const microkernel::Ops<double>& mk = microkernel::ops<double>(isa);
  AlignedBuffer<double> v(bd), y(bd), ys_buf(4 * bd);
  for (index_t i = 0; i < bd; ++i) v[i] = 1.0 / static_cast<double>(i + 1);
  for (index_t i = 0; i < bd; ++i) y[i] = 0.0;
  for (index_t i = 0; i < 4 * bd; ++i) ys_buf[i] = 0.0;
  XoshiroBatch g(c_kji.seed);
  const double min_s = opt.quick ? 0.01 : 0.04;
  L.probe("rng/fill", [&] {
    L.set("rng.fill_gsps", 1e-9 * rate(reps, min_s, static_cast<double>(bd), [&](long j) {
            g.set_state(0, static_cast<std::uint64_t>(j));
            mk.fill(g, Dist::PmOne, v.data(), bd);
          }));
    SketchSampler<double> philox(c_kji.seed, Dist::PmOne, RngBackend::Philox);
    L.set("rng.philox_gsps", 1e-9 * rate(reps, min_s, static_cast<double>(bd), [&](long j) {
            philox.fill(0, j, v.data(), bd);
          }));
  });
  L.probe("microkernel", [&] {
    const double elem = sizeof(double);
    L.set("microkernel.axpy_gbps", 1e-9 * rate(reps, min_s, 3.0 * bd * elem, [&](long) {
            mk.axpy(bd, 1e-9, v.data(), y.data());
          }));
    double* ys[4] = {ys_buf.data(), ys_buf.data() + bd, ys_buf.data() + 2 * bd,
                     ys_buf.data() + 3 * bd};
    const double alphas[4] = {1e-9, -1e-9, 2e-9, -2e-9};
    L.set("microkernel.axpy_multi_gbps",
          1e-9 * rate(reps, min_s, 9.0 * bd * elem, [&](long) {
            mk.axpy_multi(bd, v.data(), alphas, ys, 4);
          }));
    L.set("microkernel.fused_gsps", 1e-9 * rate(reps, min_s, static_cast<double>(bd), [&](long j) {
            g.set_state(0, static_cast<std::uint64_t>(j));
            mk.fused_axpy(g, Dist::PmOne, 1e-9, y.data(), bd);
          }));
    L.set("microkernel.l1_peak_gflops", 1e-9 * rate(reps, min_s, 2.0 * 512, [&](long) {
            mk.axpy(512, 1e-9, v.data(), y.data());
          }));
  });

  // ---- sketch: the sketch_into frame around the driver, on the kji input.
  L.probe("sketch/into", [&] {
    DenseMatrix<double> out;
    sketch_into(c_kji, a_kji, out);
    std::vector<double> into_s, frame_s, share;
    for (int r = 0; r < reps; ++r) {
      Timer t;
      const SketchStats st = sketch_into(c_kji, a_kji, out);
      const double wall = t.seconds();
      into_s.push_back(wall);
      frame_s.push_back(wall - st.total_seconds - st.convert_seconds);
      share.push_back(st.total_seconds / wall);
    }
    L.set("sketch.into_ms", ms(into_s));
    L.set("sketch.frame_ms", ms(frame_s));
    L.set("driver.share", median(share));
    std::vector<double> sample_share;
    for (int r = 0; r < 2; ++r) {
      const SketchStats st = sketch_into(c_kji, a_kji, out, /*instrument=*/true);
      sample_share.push_back(st.sample_seconds / st.total_seconds);
    }
    L.set("rng.sample_share", median(sample_share));
  });
  L.probe("sketch/tiny", [&] {
    const CscMatrix<double> tiny = random_sparse<double>(60, 30, 0.2, derive_seed(opt.seed, "tiny"));
    SketchConfig c = cli_config(tiny.cols());
    c.check_inputs = false;
    c.normalize = false;
    autotune_blocks(c, tiny);
    DenseMatrix<double> out;
    for (int r = 0; r < 3; ++r) sketch_into(c, tiny, out);
    L.set("sketch.tiny_ms", ms(time_calls(opt.quick ? 10 : 50, [&] { sketch_into(c, tiny, out); })));
  });
  L.probe("sparse/convert", [&] {
    L.set("sparse.convert_ms", ms(time_calls(reps, [&] {
            (void)BlockedCsr<double>::from_csc_parallel(a_skew, c_skew.block_n);
          })));
  });

  // ---- batch: each routing path alone, then the mixed wave.
  L.probe("batch", [&] {
    const BatchMix mix(opt.seed);
    BatchOptions bo;
    bo.workers = T;
    SketchBatch batch(bo);
    std::vector<DenseMatrix<double>> outs(mix.jobs.size());
    std::vector<JobHandle> handles;
    const auto wave = [&](std::size_t first, std::size_t last) {
      handles.clear();
      Timer t;
      for (std::size_t i = first; i < last; ++i) {
        handles.push_back(batch.submit(mix.jobs[i].cfg, *mix.jobs[i].a, outs[i]));
      }
      std::size_t failed = 0;  // failed() waits, so every job has ended after this loop
      for (const JobHandle& h : handles) failed += h.failed() ? 1 : 0;
      if (failed != 0) throw std::runtime_error("batch job failed");
      return t.seconds();
    };
    const std::size_t n = mix.jobs.size();
    wave(0, n);  // warm the pool, the arena and the OMP team
    std::vector<double> mixed, busy, steals;
    const std::uint64_t hits0 = batch.arena().reuse_hits();
    const std::uint64_t allocs0 = batch.arena().slab_allocs();
    for (int r = 0; r < reps; ++r) {
      const std::uint64_t s0 = batch.steals();
      const double wall = wave(0, n);
      double job_s = 0.0;
      for (const JobHandle& h : handles) job_s += h.stats().total_seconds;
      mixed.push_back(wall);
      busy.push_back(job_s / (T * wall));
      steals.push_back(static_cast<double>(batch.steals() - s0));
    }
    const double hits = static_cast<double>(batch.arena().reuse_hits() - hits0);
    const double allocs = static_cast<double>(batch.arena().slab_allocs() - allocs0);
    L.set("batch.busy_frac", median(busy));
    L.set("batch.steals_per_wave", median(steals));
    L.set("batch.arena_reuse", hits + allocs > 0 ? hits / (hits + allocs) : 0.0);
    std::vector<double> small, large;
    for (int r = 0; r < reps; ++r) {
      small.push_back(wave(1, n));
      large.push_back(wave(0, 1));
    }
    L.set("batch.small_only_ms", ms(small));
    L.set("batch.large_only_ms", ms(large));
    DenseMatrix<double> out;
    L.set("batch.large_direct_ms", ms(time_calls(reps, [&] {
            sketch_into(mix.jobs[0].cfg, *mix.jobs[0].a, out);
          })));
  });

  // ---- sap: the solver's own phase split over several solves.
  L.probe("sap", [&] {
    const CscMatrix<double> a = sap_input(opt.seed);
    const std::vector<double> b = make_least_squares_rhs(a, derive_seed(opt.seed, "sap/b"));
    const SapOptions so = sap_options(opt.seed);
    (void)sap_solve(a, b, so);  // first solve pays first-touch and team start
    std::vector<double> sk, fa, ls, it, err;
    for (int r = 0; r < (opt.quick ? 2 : 8); ++r) {
      const SapResult<double> res = sap_solve(a, b, so);
      if (!res.converged) throw std::runtime_error("SAP did not converge");
      sk.push_back(res.sketch_seconds);
      fa.push_back(res.factor_seconds);
      ls.push_back(res.lsqr_seconds);
      it.push_back(static_cast<double>(res.iterations));
      err.push_back(ls_error_metric(a, res.x, b));
    }
    L.set("sap.sketch_ms", ms(sk));
    L.set("sap.factor_ms", ms(fa));
    L.set("sap.factor_p90_ms", 1e3 * quantile(fa, 0.9));
    L.set("sap.lsqr_ms", ms(ls));
    L.set("sap.lsqr_iters", median(it));
    L.set("sap.accuracy_log10", std::log10(median(err)));
  });

  if (armed) {
    perf::trace::disarm();
    L.probe("trace/write", [&] {
      if (perf::trace::write(opt.trace_path).empty()) {
        throw std::runtime_error("cannot write " + opt.trace_path);
      }
    });
  }
  return L.result();
}

Json run_sweep(const Options& opt) {
  const CscMatrix<double> a = skewed_input(opt.seed);
  const SketchConfig cfg = skewed_config(opt.seed);
  const BlockedCsr<double> ab = BlockedCsr<double>::from_csc_parallel(a, cfg.block_n);
  DenseMatrix<double> out(cfg.d, a.cols());
  // Powers of two up to T, then T itself: no count oversubscribes the team.
  std::vector<int> counts;
  for (int c = 1; c <= opt.threads; c *= 2) counts.push_back(c);
  if (counts.back() != opt.threads) counts.push_back(opt.threads);
  sketch_blocked_jki(cfg, ab, out);  // warm: team start, first touch, probes

  // Thread counts interleaved rep by rep, so a slow stretch of this process
  // hits every count rather than one.
  std::vector<std::vector<double>> t(counts.size());
  const ProcStat stat0 = proc_stat_now();
  const Usage u0 = usage_now();
  for (int r = 0; r < (opt.quick ? 1 : 5); ++r) {
    for (std::size_t c = 0; c < counts.size(); ++c) {
      ThreadCountGuard guard(counts[c]);
      Timer timer;
      sketch_blocked_jki(cfg, ab, out);
      t[c].push_back(timer.seconds());
    }
  }
  const Usage u1 = usage_now();
  Json doc = Json::object();
  doc["steal_frac"] = steal_fraction(stat0, proc_stat_now());
  doc["ctx_vol"] = u1.nvcsw - u0.nvcsw;
  doc["ctx_invol"] = u1.nivcsw - u0.nivcsw;
  Json times = Json::object();
  for (std::size_t c = 0; c < counts.size(); ++c) {
    Json list = Json::array();
    for (double s : t[c]) list.push_back(s);
    times[std::to_string(counts[c])] = std::move(list);
  }
  doc["t_s"] = std::move(times);

  // Measured vs predicted imbalance needs the busy brackets, which only run
  // with telemetry on; timed separately so they never touch the times above.
  perf::set_enabled(true);
  std::vector<double> imb, est;
  for (int r = 0; r < 3; ++r) {
    const SketchStats st = sketch_blocked_jki(cfg, ab, out);
    imb.push_back(st.thread_imbalance);
    est.push_back(st.schedule_imbalance_est);
  }
  perf::set_enabled(false);
  doc["imbalance"] = median(imb);
  doc["imbalance_est"] = median(est);
  doc["flops"] = 2.0 * static_cast<double>(cfg.d) * static_cast<double>(a.nnz());
  doc["attempted"] = 1;
  doc["failed"] = 0;
  return doc;
}

}  // namespace layers
