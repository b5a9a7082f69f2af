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
// The schedule executes every block exactly once and output blocks are
// disjoint, so Â is bitwise identical whatever the partition: team size,
// kernel and ISA tier move work between threads, never a bit of the result.
#pragma once

#include <functional>
#include <vector>

#include "support/common.hpp"

namespace rsketch {

/// Deterministic static assignment of block ids to threads. Thread t owns
/// items[offsets[t] .. offsets[t+1]); each list is sorted ascending so a
/// thread walks its blocks in traversal order (locality), while the *set*
/// per thread comes from the partitioner.
struct BlockSchedule {
  std::vector<index_t> items;    ///< block ids, grouped by owning thread
  std::vector<index_t> offsets;  ///< size threads()+1; prefix offsets
  /// Predicted max/mean per-thread cost (1.0 = model says balanced; 0 only
  /// for the sequential short-circuit, which skips the cost model).
  double imbalance_est = 0.0;

  int threads() const { return static_cast<int>(offsets.size()) - 1; }
};

/// LPT (longest-processing-time-first) greedy bin packing: items sorted by
/// (cost desc, id asc) land in the currently lightest bin (lowest thread id
/// on ties). Deterministic for a fixed cost vector; max bin ≤ 4/3 · optimum
/// by the classic Graham bound.
BlockSchedule build_balanced_schedule(const std::vector<double>& costs,
                                      int nthreads);

/// Build the schedule for one kernel invocation: the LPT partition of
/// `costs()`, timed under the "schedule/build" span, with the schedule_*
/// counters bumped and the predicted imbalance emitted onto the trace
/// counter track. Sequential runs (nthreads <= 1) and degenerate item counts
/// (n_items <= 1) short-circuit to one list holding every item, with no
/// telemetry and without calling `costs`.
BlockSchedule build_block_schedule(
    int nthreads, index_t n_items,
    const std::function<std::vector<double>()>& costs);

}  // namespace rsketch
