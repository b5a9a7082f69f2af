// The run-control bounds from the environment (RSKETCH_DEADLINE_MS) on a
// plain sap_solve, which takes no RunControl of its own. The variable is
// read once per process, so this binary holds only tests that set it before
// anything reads it; the other run-control tests never see it.
#include <gtest/gtest.h>

#include <cstdlib>

#include "perf/perf.hpp"
#include "solvers/least_squares.hpp"
#include "solvers/sap.hpp"
#include "sparse/generate.hpp"
#include "support/run_control.hpp"
#include "testdata/faults.hpp"

#include "clock_advancing_arena.hpp"

namespace rsketch {
namespace {

TEST(RunControlSap, EnvDeadlineBindsAfterTheSketch) {
  constexpr double kDeadlineMs = 1e6;  // never reached on the real clock
  ::setenv("RSKETCH_DEADLINE_MS", "1000000", 1);
  ASSERT_EQ(env_deadline_ms(), kDeadlineMs)
      << "RSKETCH_DEADLINE_MS was read before this test set it";
  const auto a = random_sparse<double>(120, 40, 0.3, 2024);
  const auto b = make_least_squares_rhs(a, 7);
  faults::ScheduledFault clock;
  ClockAdvancingArena arena(clock, 2 * kDeadlineMs);
  perf::set_enabled(true);
  perf::reset();
  StopCause cause = StopCause::None;
  {
    ScopedArenaScope scope(&arena);
    try {
      sap_solve(a, b, SapOptions{});
    } catch (const run_stopped_error& e) {
      cause = e.cause();
    }
  }
  const auto snap = perf::snapshot();
  perf::set_enabled(false);
  EXPECT_EQ(cause, StopCause::DeadlineExceeded);
  // The deadline passed after the sketch: the sketch and the factorization
  // both ran, and the stop came from LSQR's poll.
  EXPECT_GE(arena.acquired(), 2);
  for (const char* phase : {"sap/sketch", "sap/factor"}) {
    const auto it = snap.spans.find(phase);
    ASSERT_NE(it, snap.spans.end()) << phase;
    EXPECT_EQ(it->second.count, 1u) << phase;
  }
}

}  // namespace
}  // namespace rsketch
