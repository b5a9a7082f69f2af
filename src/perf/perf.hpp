// Scoped-counter / span telemetry core (RSKETCH_PERF).
//
// Design: every thread accumulates into a thread-local record (no atomics on
// the hot path); records are registered in a global registry and merged on
// snapshot() or when the thread exits (merge-on-join). With the toggle off,
// add()/Span compile down to one predictable branch on a cached flag, and the
// kernels skip counter collection entirely — tier-1 timings are unaffected.
//
// Span names are routed through the trace interning table (perf/trace.hpp) at
// construction, so a span name can never dangle: the table owns every string,
// and dynamically built names are as legal as literals. When tracing is armed
// (RSKETCH_TRACE), Span and add_span additionally emit timeline events into
// the per-thread trace ring buffers.
//
// Enable with RSKETCH_PERF=1 (any value other than "" / "0"), or at runtime
// via set_enabled(true) (tests, tools). See docs/OBSERVABILITY.md for the
// counter catalog and the JSON report schema built on top of this.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "perf/counters.hpp"

namespace rsketch::perf {

/// Whether telemetry collection is on (RSKETCH_PERF env, overridable).
bool enabled();

/// Runtime override of the env toggle (tests and tools).
void set_enabled(bool on);

/// Global software-counter catalog. Keep counter_name() in sync.
enum class Counter : int {
  RngSamples = 0,  ///< entries of S generated on the fly
  NnzProcessed,    ///< entries of A streamed (once per block row of S)
  Flops,           ///< useful flops (2 per nonzero per sketch row)
  ElemsMoved,      ///< elements of A and Â read or written
  BytesMoved,      ///< the same traffic in bytes (values + indices)
  BytesGenerated,  ///< bytes of S produced (never stored)
  KernelBlocks,    ///< kernel invocations (outer block pairs)
  SketchCalls,     ///< sketch runs: one per outer-driver call
  TunerCacheHits,        ///< tuning-cache lookups answered without re-timing
  TunerCacheMisses,      ///< tuning-cache lookups that fell through
  TunerCandidatesTimed,  ///< pilot sub-sketches timed by the empirical tuner
  KernelDispatches,      ///< sketch calls routed through the micro-kernel ISA
                         ///< table; the chosen tier shows as a
                         ///< kernel_dispatch/<isa> span
  RunDegradations,       ///< degradation-ladder steps taken under budget
                         ///< pressure (support/run_control.hpp)
  RunCancelled,          ///< runs stopped by cooperative cancellation
  RunDeadlineHits,       ///< runs stopped by a wall-clock deadline
  RunBudgetHits,         ///< runs stopped by workspace-budget exhaustion
  BatchJobs,             ///< sketch jobs executed by a SketchBatch
                         ///< (sketch/batch.hpp)
  BatchSteals,           ///< executor tasks stolen from another worker's
                         ///< queue (support/executor.hpp)
  ScheduleBuilds,        ///< block schedules built for parallel sketch calls
                         ///< (sketch/schedule.hpp)
  ScheduleBlocks,        ///< outer blocks those schedules partitioned
  ScheduleImbalanceEstMilli,  ///< predicted max/mean thread cost, in
                              ///< thousandths, summed over builds (divide by
                              ///< schedule_builds for the mean prediction)
  kCount
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

/// Stable snake_case name used as the JSON key.
const char* counter_name(Counter c);

/// Add `v` to counter `c` in this thread's record. No-op when disabled.
void add(Counter c, std::uint64_t v);

/// Bulk-add a kernel-counter aggregate onto the global catalog.
void add(const KernelCounters& kc);

/// Aggregated statistics of one named span: count/total plus a log-bucketed
/// latency histogram (power-of-two nanosecond buckets) from which min / max /
/// mean / p50 / p95 / p99 are derived. Bucket resolution bounds the
/// percentile error to one octave; estimates are additionally clamped to the
/// exact [min, max] envelope, so p50 <= p95 <= p99 and min <= mean <= max
/// hold by construction.
struct SpanStat {
  /// 2^0 .. 2^47 ns (~1.6 days) — wider than any span this library times.
  static constexpr int kHistogramBuckets = 48;

  std::uint64_t count = 0;
  double seconds = 0.0;
  double min_seconds = 0.0;  ///< exact; 0 until the first record
  double max_seconds = 0.0;  ///< exact
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Fold in `n` executions totalling `secs` seconds (each bucketed at the
  /// per-execution mean when n > 1).
  void record(double secs, std::uint64_t n = 1);

  void merge(const SpanStat& other);

  double mean_seconds() const {
    return count > 0 ? seconds / static_cast<double>(count) : 0.0;
  }

  /// Histogram-estimated q-quantile (q in [0, 1]) in seconds: linear
  /// interpolation inside the owning bucket, clamped to [min, max].
  double percentile(double q) const;
};

/// Per-parallel-region thread-busy aggregate: how evenly a named parallel
/// span's work spread across its thread team, folded over every call.
/// `max_imbalance` is the worst single call's max-thread-busy over
/// mean-thread-busy (1.0 = perfectly balanced; ~nthreads = one thread did
/// everything) — the derived.thread_imbalance the reports emit.
struct BusyStat {
  std::uint64_t calls = 0;
  std::uint64_t thread_slots = 0;  ///< sum over calls of team size
  double busy_seconds = 0.0;       ///< sum over calls and threads
  double max_thread_busy = 0.0;    ///< sum over calls of the per-call max
  double max_imbalance = 0.0;

  void merge(const BusyStat& other);
  double mean_thread_busy() const {
    return thread_slots > 0 ? busy_seconds / static_cast<double>(thread_slots)
                            : 0.0;
  }
};

/// Record one parallel region's per-thread busy seconds under span `name`
/// (team of `nthreads`, busy_seconds[t] = time thread t spent in kernel
/// work). Called once per region from the joining thread. No-op when
/// disabled.
void add_parallel_busy(const std::string& name, int nthreads,
                       const double* busy_seconds);

/// Record `seconds` (over `count` executions) under span `name` directly —
/// used to fold externally measured intervals (e.g. the kernels' sample
/// timers) into the span table. When tracing is armed, also emits a Chrome
/// "X" (complete) event of that duration ending now. No-op when disabled
/// and tracing is off.
void add_span(const std::string& name, double seconds, std::uint64_t count = 1);

/// RAII wall-clock span: records elapsed time under `name` on destruction,
/// and emits trace begin/end events when tracing is armed. The name is
/// interned on construction, so temporaries are safe.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t name_id_;
  bool armed_;        ///< records into the span table (perf enabled)
  bool trace_armed_;  ///< emits trace events (tracing armed)
  std::chrono::steady_clock::time_point start_;
};

/// Point-in-time merge of every thread's record (live threads included).
struct Snapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::map<std::string, SpanStat> spans;
  std::map<std::string, BusyStat> busy;

  std::uint64_t get(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
};

Snapshot snapshot();

/// Zero every thread record and the retired accumulator. Only call when no
/// instrumented region is concurrently running — debug builds assert that no
/// Span is live anywhere in the process.
void reset();

}  // namespace rsketch::perf
