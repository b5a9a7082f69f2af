// The five bench/layers workloads and the closed-loop measurement around
// them. One process runs one workload: it generates its inputs (not timed),
// runs a setup unit (setup_s), then units back to back for the requested
// number of seconds of unit wall time. Each output is checked between units,
// outside the timed region; outputs are compared bit for bit through digests
// against references recomputed after the timed phase, so the references
// neither inflate peak_rss_mb nor share the cache with the measured units.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <regex>
#include <stdexcept>

#include "layers.hpp"
#include "perf/trace.hpp"
#include "rng/splitmix64.hpp"
#include "sketch/batch.hpp"
#include "sketch/sketch.hpp"
#include "solvers/least_squares.hpp"
#include "sparse/generate.hpp"
#include "sparse/matrix_market.hpp"
#include "support/timer.hpp"

extern char** environ;

namespace layers {

using namespace rsketch;

// ---- helpers ---------------------------------------------------------------

Usage usage_now() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  Usage u;
  u.cpu_s = secs(self.ru_utime) + secs(self.ru_stime) + secs(kids.ru_utime) +
            secs(kids.ru_stime);
  u.nvcsw = static_cast<double>(self.ru_nvcsw + kids.ru_nvcsw);
  u.nivcsw = static_cast<double>(self.ru_nivcsw + kids.ru_nivcsw);
  u.child_maxrss_kb = static_cast<double>(kids.ru_maxrss);
  return u;
}

ProcStat proc_stat_now() {
  ProcStat s;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return s;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already included in user, so only the first eight are summed.
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    s.total += v;
    if (field == 7) s.steal = v;
  }
  return s;
}

double steal_fraction(const ProcStat& before, const ProcStat& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

/// 64-bit digest of raw bytes: outputs are compared bit for bit through it
/// without being kept. Four independent multiply-rotate lanes over 8-byte
/// words keep it at memory speed on the 64 MB outputs; tail bytes and the
/// length fold in last.
std::uint64_t digest_bytes(const void* data, std::size_t n,
                           std::uint64_t h = 0x243F6A8885A308D3ULL) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t lane[4] = {h, h ^ 1, h ^ 2, h ^ 3};
  const std::size_t words = n / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + 8 * i, 8);
    std::uint64_t& l = lane[i & 3];
    l = (l ^ w) * kMul;
    l = (l << 29) | (l >> 35);
  }
  std::uint64_t out = n;
  for (std::uint64_t l : lane) {
    std::uint64_t s = out ^ l;
    out = splitmix64_next(s);
  }
  for (std::size_t i = 8 * words; i < n; ++i) {
    std::uint64_t s = out ^ p[i];
    out = splitmix64_next(s);
  }
  return out;
}

/// Digest of a dense matrix's logical entries (the ld() padding is skipped).
std::uint64_t digest(const DenseMatrix<double>& m) {
  std::uint64_t h = static_cast<std::uint64_t>(m.rows()) * 31 + static_cast<std::uint64_t>(m.cols());
  for (index_t j = 0; j < m.cols(); ++j) {
    h = digest_bytes(m.col(j), static_cast<std::size_t>(m.rows()) * sizeof(double), h);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a of the tag
  for (char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t s = h ^ seed;
  return splitmix64_next(s);
}

// ---- shared inputs ---------------------------------------------------------

CscMatrix<double> kji_large_input(std::uint64_t seed) {
  return random_sparse<double>(100000, 2000, 1e-3, derive_seed(seed, "kji_large/A"));
}

SketchConfig kji_large_config(std::uint64_t seed) {
  // The model tuner re-probes h on every call and resolves different blocks
  // call to call (and xoshiro streams depend on b_d), so the workload pins
  // the model's analytic kji choice for this input: n1 = 1, b_d = min(d, M/2).
  SketchConfig cfg;
  cfg.d = 4000;
  cfg.seed = derive_seed(seed, "kji_large/S");
  cfg.dist = Dist::PmOne;
  cfg.backend = RngBackend::XoshiroBatch;
  cfg.kernel = KernelVariant::Kji;
  cfg.block_d = 4000;
  cfg.block_n = 1;
  cfg.parallel = ParallelOver::DBlocks;
  return cfg;
}

CscMatrix<double> skewed_input(std::uint64_t seed) {
  return abnormal_b<double>(100000, 3000, 2e-3, 0.9, derive_seed(seed, "jki_skewed/A"));
}

SketchConfig skewed_config(std::uint64_t seed) {
  // Ten 300-column slabs, three or four of them carrying 90% of the work:
  // the LPT schedule has to spread the heavy slabs over the team.
  SketchConfig cfg;
  cfg.d = 1000;
  cfg.seed = derive_seed(seed, "jki_skewed/S");
  cfg.dist = Dist::PmOne;
  cfg.backend = RngBackend::XoshiroBatch;
  cfg.kernel = KernelVariant::Jki;
  cfg.block_d = 1000;
  cfg.block_n = 300;
  cfg.parallel = ParallelOver::DBlocks;
  return cfg;
}

CscMatrix<double> cli_input(std::uint64_t seed) {
  return random_sparse<double>(20000, 200, 5e-3, derive_seed(seed, "cli/A"));
}

SketchConfig cli_config(index_t n) {
  SketchConfig cfg;
  cfg.d = 3 * n;
  cfg.seed = 42;
  cfg.dist = Dist::PmOne;
  cfg.kernel = KernelVariant::Kji;
  cfg.normalize = true;
  cfg.check_inputs = true;
  return cfg;
}

CscMatrix<double> sap_input(std::uint64_t seed) {
  return random_sparse<double>(60000, 500, 1e-2, derive_seed(seed, "sap/A"));
}

SapOptions sap_options(std::uint64_t seed) {
  SapOptions opt;
  opt.factor = SapFactor::QR;
  opt.gamma = 2.0;
  opt.seed = derive_seed(seed, "sap/S");
  return opt;
}

void run_sketch_tool(const std::string& in, const std::string& out,
                     const std::string& stdout_path) {
  // CMakeLists.txt builds the repository under rsketch/ next to this binary.
  const std::string tool =
      (std::filesystem::read_symlink("/proc/self/exe").parent_path() / "rsketch/examples/sketch_tool")
          .string();
  std::vector<std::string> args = {tool, "sketch", "--in", in, "--out", out};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                   0644);
  posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, tool.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("cannot start " + tool);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("sketch_tool exited with status " + std::to_string(status));
  }
}

BatchMix::BatchMix(std::uint64_t seed)
    : small_kji{random_sparse<double>(2000, 160, 8e-3, derive_seed(seed, "batch/kji0")),
                random_sparse<double>(2000, 160, 8e-3, derive_seed(seed, "batch/kji1"))},
      small_jki{random_sparse<double>(3000, 160, 1e-2, derive_seed(seed, "batch/jki0")),
                random_sparse<double>(3000, 160, 1e-2, derive_seed(seed, "batch/jki1"))},
      large(random_sparse<double>(100000, 520, 1e-2, derive_seed(seed, "batch/large"))) {
  const std::uint64_t job_seed = derive_seed(seed, "batch/S");
  const auto add = [&](const CscMatrix<double>& a, SketchConfig cfg) {
    cfg.seed = job_seed + jobs.size();
    cfg.dist = Dist::PmOne;
    cfg.backend = RngBackend::XoshiroBatch;
    jobs.push_back({&a, cfg});
    flops += 2.0 * static_cast<double>(cfg.d) * static_cast<double>(a.nnz());
  };
  // The large job: d chosen so 2 d nnz lands just over the batch's default
  // large-job threshold whatever nnz this seed drew.
  SketchConfig big;
  big.d = static_cast<index_t>(
      std::ceil(1.05 * SketchBatch::kLargeJobFlops / (2.0 * static_cast<double>(large.nnz()))));
  big.kernel = KernelVariant::Kji;
  big.block_d = big.d;
  big.block_n = 32;
  big.parallel = ParallelOver::DBlocks;
  add(large, big);
  // The batch_throughput shapes: three kji jobs for every jki job.
  for (int i = 0; i < 512; ++i) {
    SketchConfig cfg;
    cfg.block_d = 512;
    cfg.block_n = 128;
    if (i % 4 == 3) {
      cfg.d = 128;
      cfg.kernel = KernelVariant::Jki;
      add(small_jki[(i / 4) % 2], cfg);
    } else {
      cfg.d = 96;
      cfg.kernel = KernelVariant::Kji;
      add(small_kji[i % 2], cfg);
    }
  }
}

namespace {

/// Sequential, scalar-ISA recomputation of a sketch: the bitwise reference
/// every parallel / SIMD / batched output must equal.
DenseMatrix<double> reference_sketch(SketchConfig cfg, const CscMatrix<double>& a) {
  cfg.parallel = ParallelOver::Sequential;
  cfg.isa = microkernel::Isa::Scalar;
  DenseMatrix<double> out;
  sketch_into(cfg, a, out);
  return out;
}

double frobenius_sq(const CscMatrix<double>& a) {
  double s = 0.0;
  for (double v : a.values()) s += v * v;
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Restart this process's resident-set high-water mark at its current
/// resident set (Linux clear_refs mode 5).
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!(out << "5" << std::flush)) throw std::runtime_error("cannot reset the peak RSS");
}

/// This process's resident-set high-water mark (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---- workloads -------------------------------------------------------------

/// One workload: `unit()` is what a latency sample times. `check()` runs
/// right after each unit, outside the timed region, and returns a failure
/// reason or "". `unit_digest()` fingerprints the last unit's output (0 when
/// the workload checks its outputs in check() alone); reference_digest()
/// recomputes the expected fingerprint after the timed phase.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void unit() = 0;
  virtual std::string check() = 0;
  virtual std::uint64_t unit_digest() const { return 0; }
  virtual std::uint64_t reference_digest(std::vector<std::string>& errors) = 0;
  virtual double ops_per_unit() const { return 1.0; }
  virtual double flops_per_unit() const = 0;
};

class SketchWorkload final : public Workload {
 public:
  SketchWorkload(CscMatrix<double> a, SketchConfig cfg)
      : a_(std::move(a)), cfg_(cfg) {}

  void unit() override { sketch_into(cfg_, a_, out_); }

  std::string check() override {
    last_ = digest(out_);
    return "";
  }
  std::uint64_t unit_digest() const override { return last_; }

  std::uint64_t reference_digest(std::vector<std::string>& errors) override {
    const DenseMatrix<double> ref = reference_sketch(cfg_, a_);
    // pm1 entries have E[s^2] = 1, so ||S A||_F^2 / (d ||A||_F^2) -> 1.
    const double norm = ref.frobenius_norm();
    const double ratio = norm * norm / (static_cast<double>(cfg_.d) * frobenius_sq(a_));
    if (!(ratio >= 0.9 && ratio <= 1.1)) {
      errors.push_back("norm ratio " + std::to_string(ratio) + " outside [0.9, 1.1]");
    }
    return digest(ref);
  }

  double flops_per_unit() const override {
    return 2.0 * static_cast<double>(cfg_.d) * static_cast<double>(a_.nnz());
  }

 private:
  CscMatrix<double> a_;
  SketchConfig cfg_;
  DenseMatrix<double> out_;
  std::uint64_t last_ = 0;
};

class CliWorkload final : public Workload {
 public:
  CliWorkload(std::uint64_t seed, const std::string& workdir)
      : a_(cli_input(seed)),
        in_(workdir + "/A.mtx"),
        out_(workdir + "/Ahat.mtx"),
        first_(workdir + "/Ahat_first.mtx"),
        stdout_(workdir + "/sketch_tool.out") {
    write_matrix_market_file(in_, a_);
  }

  void unit() override { run_sketch_tool(in_, out_, stdout_); }

  std::string check() override {
    const std::string bytes = read_file(out_);
    last_ = digest_bytes(bytes.data(), bytes.size());
    if (first_digest_ == 0) {
      // Keep the first output and the blocks the tool printed; the read-back
      // comparison against an in-process sketch runs after the timed phase.
      static const std::regex re(R"(blocks=\((\d+), (\d+)\))");
      std::smatch m;
      const std::string printed = read_file(stdout_);
      if (!std::regex_search(printed, m, re)) return "sketch_tool printed no blocks";
      block_d_ = std::stoll(m[1]);
      block_n_ = std::stoll(m[2]);
      std::ofstream(first_, std::ios::binary) << bytes;
      first_digest_ = last_;
    }
    return "";
  }
  std::uint64_t unit_digest() const override { return last_; }

  std::uint64_t reference_digest(std::vector<std::string>& errors) override {
    if (first_digest_ == 0) {
      errors.push_back("no sketch_tool output to verify");
      return 0;
    }
    SketchConfig cfg = cli_config(a_.cols());
    cfg.block_d = block_d_;
    cfg.block_n = block_n_;
    DenseMatrix<double> want;
    sketch_into(cfg, a_, want);
    // The tool writes only nonzeros; scatter them back into a dense Â.
    const CscMatrix<double> got = read_matrix_market_file<double>(first_);
    if (got.rows() != want.rows() || got.cols() != want.cols()) {
      errors.push_back("sketch_tool output has the wrong shape");
      return first_digest_;
    }
    DenseMatrix<double> back(got.rows(), got.cols());
    for (index_t j = 0; j < got.cols(); ++j) {
      for (index_t p = got.col_ptr()[j]; p < got.col_ptr()[j + 1]; ++p) {
        back(got.row_idx()[p], j) = got.values()[p];
      }
    }
    if (back.max_abs_diff(want) != 0.0) {
      errors.push_back("sketch_tool output differs from the in-process sketch");
    }
    return first_digest_;
  }

  double flops_per_unit() const override {
    return 2.0 * 3.0 * static_cast<double>(a_.cols()) * static_cast<double>(a_.nnz());
  }

 private:
  CscMatrix<double> a_;
  std::string in_, out_, first_, stdout_;
  index_t block_d_ = 0;
  index_t block_n_ = 0;
  std::uint64_t first_digest_ = 0;
  std::uint64_t last_ = 0;
};

/// Waves one SketchBatch serves before check() replaces it. A batch keeps
/// every job it was ever given, so a fixed number of waves per batch keeps
/// the retained jobs, and with them peak_rss_mb, the same however many
/// waves fit into a run.
constexpr long kWavesPerBatch = 8;

class BatchWorkload final : public Workload {
 public:
  BatchWorkload(std::uint64_t seed, int workers)
      : mix_(seed), workers_(workers), outs_(mix_.jobs.size()), job_digests_(outs_.size()) {
    handles_.reserve(outs_.size());
  }

  void unit() override {
    // The first pool is built by the first unit, so setup_s includes its start.
    if (!batch_) batch_ = make_batch();
    handles_.clear();
    for (std::size_t i = 0; i < mix_.jobs.size(); ++i) {
      handles_.push_back(batch_->submit(mix_.jobs[i].cfg, *mix_.jobs[i].a, outs_[i]));
    }
    std::size_t failed = 0;
    for (const JobHandle& h : handles_) failed += h.failed() ? 1 : 0;
    if (failed != 0) throw std::runtime_error(std::to_string(failed) + " batch jobs failed");
  }

  std::string check() override {
    for (std::size_t i = 0; i < outs_.size(); ++i) job_digests_[i] = digest(outs_[i]);
    last_ = digest_bytes(job_digests_.data(), job_digests_.size() * sizeof(std::uint64_t));
    if (++waves_ % kWavesPerBatch == 0) {
      batch_.reset();  // drain and join the old pool before starting the next
      batch_ = make_batch();
    }
    return "";
  }
  std::uint64_t unit_digest() const override { return last_; }

  std::uint64_t reference_digest(std::vector<std::string>&) override {
    std::vector<std::uint64_t> d;
    d.reserve(mix_.jobs.size());
    for (const auto& job : mix_.jobs) d.push_back(digest(reference_sketch(job.cfg, *job.a)));
    return digest_bytes(d.data(), d.size() * sizeof(std::uint64_t));
  }

  double ops_per_unit() const override { return static_cast<double>(mix_.jobs.size()); }
  double flops_per_unit() const override { return mix_.flops; }

 private:
  std::unique_ptr<SketchBatch> make_batch() const {
    BatchOptions opt;
    opt.workers = workers_;
    return std::make_unique<SketchBatch>(opt);
  }

  BatchMix mix_;
  int workers_;
  std::vector<DenseMatrix<double>> outs_;
  std::vector<std::uint64_t> job_digests_;
  std::vector<JobHandle> handles_;
  std::unique_ptr<SketchBatch> batch_;
  long waves_ = 0;
  std::uint64_t last_ = 0;
};

class SapWorkload final : public Workload {
 public:
  explicit SapWorkload(std::uint64_t seed)
      : a_(sap_input(seed)),
        b_(make_least_squares_rhs(a_, derive_seed(seed, "sap/b"))),
        opt_(sap_options(seed)) {}

  void unit() override { result_ = sap_solve(a_, b_, opt_); }

  std::string check() override {
    if (!result_.converged) return "LSQR did not converge";
    const double err = ls_error_metric(a_, result_.x, b_);
    if (!(err <= 1e-10)) return "error metric " + std::to_string(err) + " above 1e-10";
    return "";
  }

  std::uint64_t reference_digest(std::vector<std::string>&) override { return 0; }

  double flops_per_unit() const override {
    const double d = std::ceil(opt_.gamma * static_cast<double>(a_.cols()));
    return 2.0 * d * static_cast<double>(a_.nnz());
  }

 private:
  CscMatrix<double> a_;
  std::vector<double> b_;
  SapOptions opt_;
  SapResult<double> result_;
};

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "sketch_kji_large") {
    return std::make_unique<SketchWorkload>(kji_large_input(opt.seed), kji_large_config(opt.seed));
  }
  if (opt.workload == "sketch_jki_skewed") {
    return std::make_unique<SketchWorkload>(skewed_input(opt.seed), skewed_config(opt.seed));
  }
  if (opt.workload == "cli_sketch") return std::make_unique<CliWorkload>(opt.seed, opt.workdir);
  if (opt.workload == "batch_mixed") return std::make_unique<BatchWorkload>(opt.seed, opt.threads);
  if (opt.workload == "sap_solve") return std::make_unique<SapWorkload>(opt.seed);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

// ---- closed-loop measurement -----------------------------------------------

/// Room for every per-unit record of a run, reserved up front: the
/// benchmark's own bookkeeping must not interleave heap allocations with the
/// library's, or it decides when freed workspace is trimmed and therefore
/// what peak_rss_mb reads.
constexpr std::size_t kMaxRecordedUnits = std::size_t{1} << 16;

/// What every unit of a process contributed to the pass/fail verdict.
struct Tally {
  Tally() { digests.reserve(kMaxRecordedUnits); }
  long attempted = 0;
  long failed = 0;
  std::vector<std::uint64_t> digests;  ///< one per unit that produced output
  std::vector<std::string> errors;     ///< first few failure reasons

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

/// Run one unit, time it, and check it. Returns the unit's wall seconds and
/// adds the CPU and context switches of the unit alone to `cost`.
double timed_unit(Workload& w, Tally& tally, Usage* cost = nullptr) {
  static const std::uint32_t unit_id = perf::trace::intern("bench/unit");
  static const std::uint32_t check_id = perf::trace::intern("bench/check");
  ++tally.attempted;
  const Usage u0 = usage_now();
  Timer t;
  bool ok = true;
  try {
    perf::trace::Scope scope(unit_id);
    w.unit();
  } catch (const std::exception& e) {
    tally.fail(e.what());
    ok = false;
  }
  const double secs = t.seconds();
  if (cost != nullptr) {
    const Usage u1 = usage_now();
    cost->cpu_s += u1.cpu_s - u0.cpu_s;
    cost->nvcsw += u1.nvcsw - u0.nvcsw;
    cost->nivcsw += u1.nivcsw - u0.nivcsw;
  }
  if (!ok) return secs;
  perf::trace::Scope scope(check_id);
  const std::string why = w.check();
  if (!why.empty()) {
    tally.fail(why);
  } else if (w.unit_digest() != 0) {
    tally.digests.push_back(w.unit_digest());
  }
  return secs;
}

struct Phase {
  std::vector<double> lat_s;
  double wall_s = 0.0;
  Usage usage;  ///< deltas over the units only
  double steal = 0.0;
};

Phase run_phase(Workload& w, Tally& tally, double seconds, long max_units) {
  Phase ph;
  ph.lat_s.reserve(kMaxRecordedUnits);
  const ProcStat stat0 = proc_stat_now();
  Timer real;
  // Stop on unit wall time; the real-time cap only matters if units fail
  // instantly or checks dwarf the units.
  while (ph.wall_s < seconds && real.seconds() < 2.0 * seconds + 10.0 &&
         (max_units <= 0 || static_cast<long>(ph.lat_s.size()) < max_units)) {
    const double secs = timed_unit(w, tally, &ph.usage);
    ph.lat_s.push_back(secs);
    ph.wall_s += secs;
  }
  ph.steal = steal_fraction(stat0, proc_stat_now());
  return ph;
}

/// Rates are taken over this many consecutive windows of a phase and the
/// median reported, so that a slow stretch of the host in one window moves
/// the rate no more than it moves the median latency.
constexpr std::size_t kRateWindows = 6;

/// Median over kRateWindows consecutive windows (equal unit counts) of
/// units per second of unit wall time.
double units_per_second(const std::vector<double>& lat_s) {
  const std::size_t n = lat_s.size();
  const std::size_t windows = std::min(kRateWindows, n);
  std::vector<double> rates;
  for (std::size_t k = 0; k < windows; ++k) {
    const std::size_t first = k * n / windows;
    const std::size_t last = (k + 1) * n / windows;
    double wall = 0.0;
    for (std::size_t i = first; i < last; ++i) wall += lat_s[i];
    rates.push_back(static_cast<double>(last - first) / wall);
  }
  return median(rates);
}

Json phase_json(const Phase& ph, const Workload& w, int threads) {
  const double units = static_cast<double>(ph.lat_s.size());
  const double ops = units * w.ops_per_unit();
  const double unit_rate = units_per_second(ph.lat_s);
  Json j = Json::object();
  j["units"] = static_cast<long long>(ph.lat_s.size());
  j["wall_s"] = ph.wall_s;
  j["lat_p50_ms"] = 1e3 * quantile(ph.lat_s, 0.5);
  j["lat_p90_ms"] = 1e3 * quantile(ph.lat_s, 0.9);
  j["ops_per_s"] = unit_rate * w.ops_per_unit();
  j["gflops"] = unit_rate * w.flops_per_unit() / 1e9;
  j["cpu_ms_per_op"] = 1e3 * ph.usage.cpu_s / ops;
  j["steal_frac"] = ph.steal;
  j["ctx_vol_per_op"] = ph.usage.nvcsw / ops;
  j["ctx_invol_per_op"] = ph.usage.nivcsw / ops;
  j["cpu_util"] = ph.usage.cpu_s / (ph.wall_s * threads);
  return j;
}

}  // namespace

Json run_workload(const Options& opt) {
  std::unique_ptr<Workload> w = make_workload(opt);  // input generation: untimed
  Tally tally;
  Json doc = Json::object();
  doc["workload"] = opt.workload;
  doc["seed"] = static_cast<long long>(opt.seed);
  doc["threads"] = opt.threads;

  doc["setup_s"] = timed_unit(*w, tally);
  doc["setup_digest"] = hex(tally.digests.empty() ? 0 : tally.digests.front());

  if (!opt.setup_only) {
    if (opt.warmup > 0.0) (void)run_phase(*w, tally, opt.warmup, 0);
    if (opt.trace_path.empty()) {
      // Peak memory of the timed phase only: one-off set-up allocations,
      // such as the scheduler's 48 MB STREAM probe, would otherwise land at
      // a timing-dependent point of batch_mixed's first wave.
      reset_peak_rss();
      const Phase ph = run_phase(*w, tally, opt.seconds, opt.max_units);
      doc["phase"] = phase_json(ph, *w, opt.threads);
      doc["peak_rss_mb"] = std::max(peak_rss_mb(), usage_now().child_maxrss_kb / 1024.0);
    } else {
      // Same units, first untraced then with the trace recorder armed: the
      // p50 ratio is the tracing overhead.
      const Phase plain = run_phase(*w, tally, opt.seconds / 2, opt.max_units);
      perf::trace::arm(std::size_t{1} << 18);
      const Phase traced = run_phase(*w, tally, opt.seconds / 2, opt.max_units);
      perf::trace::disarm();
      doc["phase"] = phase_json(plain, *w, opt.threads);
      doc["traced"] = phase_json(traced, *w, opt.threads);
      if (perf::trace::write(opt.trace_path).empty()) tally.fail("cannot write trace");
    }
    // References are recomputed only now, after the measured units. A bad
    // reference (norm check, read-back mismatch) condemns every output.
    std::vector<std::string> ref_errors;
    const std::uint64_t ref = w->reference_digest(ref_errors);
    long mismatched = 0;
    for (std::uint64_t d : tally.digests) mismatched += (ref != 0 && d != ref) ? 1 : 0;
    if (!ref_errors.empty()) {
      mismatched = std::max<long>(1, static_cast<long>(tally.digests.size()));
    } else if (mismatched > 0) {
      ref_errors.push_back(std::to_string(mismatched) + " outputs differ from the reference");
    }
    tally.failed += mismatched;
    tally.errors.insert(tally.errors.end(), ref_errors.begin(), ref_errors.end());
    doc["reference_digest"] = hex(ref);
  }
  doc["attempted"] = tally.attempted;
  doc["failed"] = tally.failed;
  Json errors = Json::array();
  for (const std::string& e : tally.errors) errors.push_back(e);
  doc["errors"] = std::move(errors);
  return doc;
}

}  // namespace layers
