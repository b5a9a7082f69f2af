// Cost-model-driven block scheduler (DESIGN.md §5b).
//
// The outer-blocked kernels parallelize over (i-block, j-block) pairs whose
// per-block work varies wildly with the nnz distribution of A — a uniform
// omp-for split leaves threads idling behind whichever one drew the dense
// blocks (thread_imbalance 1.4 at 4 threads on the table7 skewed workload).
// This module closes the structure → cost → schedule loop: a per-block work
// estimator computed from A's structure alone feeds an LPT bin-packing
// partitioner that emits a deterministic static BlockSchedule — an explicit
// per-thread list of block ids each thread walks privately. No machine probe
// is consulted, so the schedule is a pure function of the input, the config
// and the team size.
//
// Every mode executes every block exactly once and output blocks are
// disjoint, so Â is bitwise identical across schedules, kernels, ISA tiers
// and distributions; the schedule is a pure load-balance knob.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sketch/config.hpp"
#include "support/common.hpp"

namespace rsketch {

/// Deterministic static assignment of block ids to threads. Thread t owns
/// items[offsets[t] .. offsets[t+1]); each list is sorted ascending so a
/// thread walks its blocks in traversal order (locality), while the *set*
/// per thread comes from the partitioner.
struct BlockSchedule {
  std::vector<index_t> items;    ///< block ids, grouped by owning thread
  std::vector<index_t> offsets;  ///< size threads()+1; prefix offsets
  /// Predicted max/mean per-thread cost (1.0 = model says balanced; 0 when
  /// the uniform split skipped the cost model entirely).
  double imbalance_est = 0.0;

  int threads() const { return static_cast<int>(offsets.size()) - 1; }
};

/// Parse "auto" / "uniform" / "balanced" into `out`; false on anything else.
bool parse_schedule_mode(const std::string& s, ScheduleMode& out);

/// Resolve Auto using an explicit env string (pure; for tests). Precedence:
/// non-Auto `requested` wins; then RSKETCH_SCHEDULE (`env_value`); then
/// Balanced — the default is on.
ScheduleMode resolve_schedule_mode(ScheduleMode requested,
                                   const std::string& env_value);

/// Resolve Auto through the process environment (cached after first read).
ScheduleMode resolve_schedule_mode(ScheduleMode requested);

/// Contiguous equal-count split of [0, n_items) over `nthreads` lists —
/// the moral equivalent of omp schedule(static). No cost model consulted.
BlockSchedule build_uniform_schedule(index_t n_items, int nthreads);

/// LPT (longest-processing-time-first) greedy bin packing: items sorted by
/// (cost desc, id asc) land in the currently lightest bin (lowest thread id
/// on ties). Deterministic for a fixed cost vector; max bin ≤ 4/3 · optimum
/// by the classic Graham bound.
BlockSchedule build_balanced_schedule(const std::vector<double>& costs,
                                      int nthreads);

/// Build the schedule for one kernel invocation: resolves nothing (pass the
/// resolved mode), times the build under the "schedule/build" span, bumps
/// the schedule_* counters and emits the predicted imbalance onto the trace
/// counter track. `costs` is only invoked for Balanced — Uniform never walks
/// the estimator. Sequential runs (nthreads <= 1) and degenerate
/// item counts short-circuit to a trivial split with no telemetry.
BlockSchedule build_block_schedule(
    ScheduleMode resolved, int nthreads, index_t n_items,
    const std::function<std::vector<double>()>& costs);

}  // namespace rsketch
