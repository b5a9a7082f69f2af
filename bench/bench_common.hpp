// Shared helpers for the table/figure reproduction binaries.
//
// Every binary honours:
//   RSKETCH_SCALE       dimension divisor vs. the paper (default 6; 1 = paper)
//   RSKETCH_REPS        timing repetitions, best-of (default 3)
//   RSKETCH_MAX_THREADS cap for thread-scaling sweeps
// and prints the paper's reference numbers next to the measured ones so the
// SHAPE of the comparison (who wins, by what factor) can be checked directly.
#pragma once

#include <cstdio>
#include <functional>
#include <string>

#include "perf/perf.hpp"
#include "perf/report.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace rsketch::bench {

/// Best-of-`reps` wall-clock timing of `fn`.
inline double time_best(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// JSON report (BENCH_<name>.json) pre-filled with the standard env config.
/// All methods no-op unless RSKETCH_PERF=1, so benches call them freely.
inline perf::ReportBuilder make_report(const std::string& name) {
  perf::ReportBuilder r(name);
  r.config("scale", static_cast<long long>(bench_scale()));
  r.config("reps", static_cast<long long>(bench_reps()));
  return r;
}

/// Standard banner: experiment id, what the paper measured, our scaling.
inline void print_banner(const std::string& experiment,
                         const std::string& paper_setup) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper setup: %s\n", paper_setup.c_str());
  std::printf(
      "This run: RSKETCH_SCALE=%lld (dimensions / %lld vs. paper), "
      "RSKETCH_REPS=%d\n",
      static_cast<long long>(bench_scale()),
      static_cast<long long>(bench_scale()), bench_reps());
  std::printf(
      "Absolute times differ from the paper (different machine & scale); "
      "compare SHAPES:\nwho wins, by roughly what factor, and where "
      "crossovers fall.\n");
  std::printf("==============================================================\n\n");
}

}  // namespace rsketch::bench
