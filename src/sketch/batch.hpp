// SketchBatch: the concurrent serving layer over sketch_into — many
// independent sketch jobs in flight on one persistent worker pool
// (support/executor.hpp), sharing one tuner memo and one recycling workspace
// arena so per-job setup is amortized across the stream.
//
// Scheduling model: each submitted job is classified through the
// roofline-style size test in classify_large() — cache-resident jobs run
// whole-job-per-worker with the kernel forced to ParallelOver::Sequential
// (bitwise-safe: thread count and parallel mode never change Â's bits, see
// sketch/sketch.cpp's ladder invariant), so N workers run N jobs
// concurrently with zero intra-job coordination; jobs too large for that
// keep their OpenMP-parallel kernel configuration and run one at a time
// under an internal lock so the pool and the OMP team never oversubscribe
// the machine.
//
// Run control fans out: every job gets a child RunControl chained to the
// batch-level control, so cancel()/deadline/budget at the batch stops every
// queued and running job — each exactly once, each with the library's
// complete-or-untouched output guarantee (queued jobs fail their first poll
// before touching anything; running jobs stage as always).
//
// Observability: batch_jobs / batch_steals counters, a batch/job span and
// trace slice per job, and a batch_queue_depth trace counter track. See
// docs/SERVING.md for the full model and docs/OBSERVABILITY.md for the
// counter catalog.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/machine.hpp"
#include "sketch/sketch.hpp"
#include "sketch/tuner.hpp"
#include "solvers/guarded.hpp"
#include "support/executor.hpp"
#include "support/run_control.hpp"

namespace rsketch {

struct BatchOptions {
  /// Pool size (0 = omp_get_max_threads()).
  int workers = 0;
  /// Batch-wide wall-clock deadline in ms (0 = none): every job still
  /// queued or running when it fires stops with DeadlineExceeded.
  double deadline_ms = 0.0;
  /// Batch-wide workspace byte budget (0 = none) covering the shared arena
  /// and every job's tracked scratch. Jobs that no longer fit walk the
  /// per-job degradation ladder (or fail, per their cfg.on_pressure).
  std::size_t workspace_budget_bytes = 0;
  /// Optional external control the batch control chains to. Not owned.
  RunControl* control = nullptr;
  /// Flop threshold (2·d·nnz) above which a job is "large" (0 = the
  /// built-in default, kLargeJobFlops).
  double large_job_flops = 0.0;
  /// TEST HOOK: pin every submit to this worker's queue (-1 = round-robin).
  /// A skewed placement forces the other workers to steal.
  int submit_worker = -1;
};

namespace detail {

/// Shared state behind a JobHandle. The job's RunControl chains to the
/// batch control; finished/stats/error are published under mu.
struct BatchJob {
  std::uint64_t id = 0;
  RunControl control;
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  SketchStats stats;
  std::exception_ptr error;
};

}  // namespace detail

/// Future-like handle to one submitted job. Copyable (shared state);
/// outliving the batch is fine — the batch drains before destruction, so a
/// handle held afterwards reads a finished job.
class JobHandle {
 public:
  /// Block until the job finished (successfully or not).
  void wait() const;

  /// Non-blocking completion check.
  bool done() const;

  /// Wait, then true when the job ended in an exception.
  bool failed() const;

  /// Wait, then the job's error (nullptr on success).
  std::exception_ptr error() const;

  /// Wait, then the job's stats — rethrowing the job's exception if it
  /// failed, so `h.stats()` behaves like a synchronous sketch_into call.
  const SketchStats& stats() const;

  std::uint64_t id() const { return job_->id; }

 private:
  friend class SketchBatch;
  explicit JobHandle(std::shared_ptr<detail::BatchJob> job)
      : job_(std::move(job)) {}
  std::shared_ptr<detail::BatchJob> job_;
};

class SketchBatch {
 public:
  /// Default flop threshold separating whole-job-per-worker jobs from
  /// OMP-parallel ones: ~1 GF is a few ms of kernel work — below that,
  /// parallel-region overhead beats any intra-job speedup.
  static constexpr double kLargeJobFlops = 1e9;

  explicit SketchBatch(BatchOptions options = {});

  /// Cancels whatever is still queued or running, then drains the pool.
  /// Call wait_all() first when the outputs matter.
  ~SketchBatch();

  SketchBatch(const SketchBatch&) = delete;
  SketchBatch& operator=(const SketchBatch&) = delete;

  /// Enqueue one sketch job: `out` receives Â = S·A exactly as a direct
  /// sketch_into(cfg, a, out) call would produce it, bit for bit. `a` and
  /// `out` are borrowed until the job finishes (wait on the handle or
  /// wait_all()). cfg.control/cfg.arena must be null — the batch owns both
  /// per-job wiring points; use BatchOptions for batch-level bounds.
  template <typename T>
  JobHandle submit(SketchConfig cfg, const CscMatrix<T>& a,
                   DenseMatrix<T>& out) {
    require(cfg.control == nullptr,
            "SketchBatch::submit: cfg.control is owned by the batch; set "
            "BatchOptions::control for an external handle");
    require(cfg.arena == nullptr,
            "SketchBatch::submit: cfg.arena is owned by the batch");
    if (cfg.tune != TuneMode::Off) cfg = resolve_shared(cfg, a);
    const bool large = classify_large(cfg, a);
    if (!large) cfg.parallel = ParallelOver::Sequential;
    const CscMatrix<T>* ap = &a;
    DenseMatrix<T>* outp = &out;
    return enqueue(
        [this, cfg, ap, outp](RunControl* run) {
          SketchConfig c = cfg;
          c.control = run;
          c.arena = &arena_;
          return sketch_into(c, *ap, *outp);
        },
        large);
  }

  /// Enqueue a guarded sketch-and-precondition solve (solvers/guarded.hpp)
  /// as a batch job: batch cancel/deadline/budget fan into its attempts via
  /// the same per-job control chain. Always scheduled as a large job (the
  /// SAP pipeline is parallel end to end). The handle's stats() are empty —
  /// the solve's telemetry lives in `out`.
  template <typename T>
  JobHandle submit_guarded_solve(GuardedSapOptions options,
                                 const CscMatrix<T>& a, const std::vector<T>& b,
                                 GuardedSapResult<T>& out) {
    require(options.control == nullptr,
            "SketchBatch::submit_guarded_solve: options.control is owned by "
            "the batch; set BatchOptions::control for an external handle");
    const CscMatrix<T>* ap = &a;
    const std::vector<T>* bp = &b;
    GuardedSapResult<T>* outp = &out;
    return enqueue(
        [options, ap, bp, outp](RunControl* run) mutable {
          options.control = run;
          *outp = guarded_sap_solve(*ap, *bp, options);
          return SketchStats{};
        },
        /*large=*/true);
  }

  /// Cooperatively stop every queued and running job (each fails with
  /// run_stopped_error(Cancelled), outputs complete-or-untouched).
  void cancel() { control_.request_cancel(); }

  /// Block until every job submitted so far finished; returns how many of
  /// them failed (their handles carry the exceptions).
  std::size_t wait_all();

  int workers() const { return exec_.workers(); }
  std::uint64_t jobs_submitted() const;
  std::uint64_t steals() const { return exec_.steals(); }
  std::size_t queue_depth() const { return exec_.queue_depth(); }

  /// Batch-level control (deadline/budget/cancel root). Exposed for tests
  /// and for callers that coordinate several batches.
  RunControl& control() { return control_; }
  /// The shared recycling arena (reuse_hits/slab_allocs/held_bytes).
  WorkspaceArena& arena() { return arena_; }

 private:
  JobHandle enqueue(std::function<SketchStats(RunControl*)> body, bool large);

  template <typename T>
  bool classify_large(const SketchConfig& cfg, const CscMatrix<T>& a) const {
    const double flops = 2.0 * static_cast<double>(cfg.d) *
                         static_cast<double>(a.nnz());
    const double threshold =
        options_.large_job_flops > 0.0 ? options_.large_job_flops
                                       : kLargeJobFlops;
    if (flops > threshold) return true;
    // Footprint test: input + output + estimated scratch vs. the outermost
    // cache. A job that spills anyway gains more from the OMP kernels'
    // memory-level parallelism than from job-level concurrency.
    const std::size_t footprint =
        a.memory_bytes() +
        static_cast<std::size_t>(cfg.d) * static_cast<std::size_t>(a.cols()) *
            sizeof(T) +
        sketch_workspace_estimate<T>(cfg, a.rows(), a.cols(), a.nnz());
    return footprint > cache_bytes_;
  }

  template <typename T>
  SketchConfig resolve_shared(SketchConfig cfg, const CscMatrix<T>& a) {
    const std::string key =
        matrix_fingerprint(a, cfg.d) + "|" + std::to_string(int(cfg.tune)) +
        "|" + std::to_string(int(cfg.kernel)) + "|" +
        std::to_string(int(cfg.backend)) + "|" + std::to_string(cfg.block_d) +
        "x" + std::to_string(cfg.block_n) + "|" +
        std::to_string(int(cfg.isa));
    {
      std::lock_guard<std::mutex> lock(tuner_mu_);
      const auto it = tuner_memo_.find(key);
      if (it != tuner_memo_.end()) {
        apply_candidate(cfg, it->second);
        return cfg;
      }
    }
    // Resolve outside the lock: a racing duplicate resolution is benign
    // (deterministic inputs, identical result) and never blocks submitters
    // behind a pilot-timing run.
    TuneDecision decision;
    resolve_tuning(cfg, a, &decision);
    {
      std::lock_guard<std::mutex> lock(tuner_mu_);
      tuner_memo_.emplace(key, decision.choice);
    }
    apply_candidate(cfg, decision.choice);
    return cfg;
  }

  BatchOptions options_;
  RunControl control_;
  WorkspaceArena arena_{&control_};
  std::size_t cache_bytes_ = 0;

  /// Tuner choice shared across jobs with the same fingerprint+config —
  /// the expensive part (fingerprint pass, pilot timing or cache file read)
  /// runs once per distinct problem shape per batch.
  std::mutex tuner_mu_;
  std::map<std::string, TuneCandidate> tuner_memo_;

  mutable std::mutex jobs_mu_;
  std::vector<std::shared_ptr<detail::BatchJob>> jobs_;
  std::uint64_t next_id_ = 0;

  std::mutex large_mu_;

  /// Last member: destroyed first, draining every task while the arena,
  /// control, and locks above are still alive.
  Executor exec_;
};

}  // namespace rsketch
