#include "sketch/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "perf/perf.hpp"
#include "perf/trace.hpp"

namespace rsketch {

BlockSchedule build_balanced_schedule(const std::vector<double>& costs,
                                      int nthreads) {
  const int nt = std::max(nthreads, 1);
  const index_t n = static_cast<index_t>(costs.size());
  std::vector<index_t> order(costs.size());
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return costs[static_cast<std::size_t>(a)] >
           costs[static_cast<std::size_t>(b)];
  });

  std::vector<double> load(static_cast<std::size_t>(nt), 0.0);
  std::vector<std::vector<index_t>> bins(static_cast<std::size_t>(nt));
  for (index_t id : order) {
    int best = 0;
    for (int t = 1; t < nt; ++t) {
      if (load[static_cast<std::size_t>(t)] <
          load[static_cast<std::size_t>(best)]) {
        best = t;
      }
    }
    bins[static_cast<std::size_t>(best)].push_back(id);
    load[static_cast<std::size_t>(best)] += costs[static_cast<std::size_t>(id)];
  }

  BlockSchedule s;
  s.items.reserve(static_cast<std::size_t>(n));
  s.offsets.resize(static_cast<std::size_t>(nt) + 1);
  s.offsets[0] = 0;
  for (int t = 0; t < nt; ++t) {
    auto& bin = bins[static_cast<std::size_t>(t)];
    std::sort(bin.begin(), bin.end());
    s.items.insert(s.items.end(), bin.begin(), bin.end());
    s.offsets[static_cast<std::size_t>(t) + 1] =
        static_cast<index_t>(s.items.size());
  }

  const double total = std::accumulate(load.begin(), load.end(), 0.0);
  const double mx = *std::max_element(load.begin(), load.end());
  const double mean = total / static_cast<double>(nt);
  s.imbalance_est = mean > 0.0 ? mx / mean : 1.0;
  return s;
}

BlockSchedule build_block_schedule(
    int nthreads, index_t n_items,
    const std::function<std::vector<double>()>& costs) {
  if (nthreads <= 1 || n_items <= 1) {
    BlockSchedule s;
    s.items.resize(static_cast<std::size_t>(std::max<index_t>(n_items, 0)));
    std::iota(s.items.begin(), s.items.end(), index_t{0});
    s.offsets = {0, static_cast<index_t>(s.items.size())};
    return s;
  }
  perf::Span span("schedule/build");
  BlockSchedule s = build_balanced_schedule(costs(), nthreads);
  if (perf::enabled()) {
    perf::add(perf::Counter::ScheduleBuilds, 1);
    perf::add(perf::Counter::ScheduleBlocks,
              static_cast<std::uint64_t>(n_items));
    perf::add(perf::Counter::ScheduleImbalanceEstMilli,
              static_cast<std::uint64_t>(
                  std::llround(s.imbalance_est * 1000.0)));
  }
  if (perf::trace::armed()) {
    // Predicted imbalance next to the measured busy split in the timeline.
    perf::trace::counter(perf::trace::intern("schedule_imbalance_est"),
                         s.imbalance_est);
  }
  return s;
}

}  // namespace rsketch
