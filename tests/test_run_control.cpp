// Run-control layer (support/run_control.hpp): cooperative cancellation
// stops a sketch within one outer block and leaves the output untouched,
// deadlines fire deterministically on the fake clock, workspace budgets
// drive the degradation ladder to a bitwise-identical Â (or a clean
// BudgetExceeded under --on-pressure=fail), and charges never leak — not
// even across exceptions. The stop contract is checked on every bounded
// entry point. Runs under TSan via the `parallel` ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "perf/perf.hpp"
#include "sketch/batch.hpp"
#include "sketch/sketch.hpp"
#include "sketch/sketch_right.hpp"
#include "solvers/guarded.hpp"
#include "solvers/least_squares.hpp"
#include "solvers/minimum_norm.hpp"
#include "solvers/sap.hpp"
#include "sparse/blocked_csr.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"
#include "support/memory_tracker.hpp"
#include "support/parallel.hpp"
#include "support/run_control.hpp"
#include "testdata/faults.hpp"

#include "clock_advancing_arena.hpp"

namespace rsketch {
namespace {

// ---------------------------------------------------------------- handle --

TEST(RunControl, FreshHandleIsUnarmed) {
  RunControl rc;
  EXPECT_FALSE(rc.cancel_requested());
  EXPECT_FALSE(rc.has_deadline());
  EXPECT_FALSE(rc.has_budget());
  EXPECT_FALSE(rc.budget_armed());
  EXPECT_EQ(rc.stop_cause(), StopCause::None);
  EXPECT_NO_THROW(rc.poll());
  EXPECT_EQ(rc.remaining_bytes(), SIZE_MAX);
}

TEST(RunControl, CancelLatchesAndPollThrows) {
  RunControl rc;
  rc.request_cancel();
  EXPECT_EQ(rc.stop_cause(), StopCause::Cancelled);
  try {
    rc.poll();
    FAIL() << "poll() must throw after request_cancel()";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::Cancelled);
  }
}

TEST(RunControl, ChargeAgainstBudget) {
  RunControl rc;
  rc.set_budget_bytes(100);
  EXPECT_TRUE(rc.try_charge(60));
  EXPECT_EQ(rc.charged_bytes(), 60u);
  EXPECT_EQ(rc.remaining_bytes(), 40u);
  // Overcommit: nothing is charged, the budget-hit latch fires.
  EXPECT_FALSE(rc.try_charge(41));
  EXPECT_EQ(rc.charged_bytes(), 60u);
  EXPECT_EQ(rc.stop_cause(), StopCause::BudgetExceeded);
  rc.uncharge(60);
  EXPECT_EQ(rc.charged_bytes(), 0u);
}

TEST(RunControl, ChargePropagatesThroughChainWithRollback) {
  RunControl parent, child;
  parent.set_budget_bytes(100);
  child.set_budget_bytes(1000);  // child is looser than the parent
  child.set_parent(&parent);
  EXPECT_TRUE(child.budget_armed());
  // 150 fits the child but not the parent: the child's provisional charge
  // must be rolled back, or retries would shrink the pool it never got.
  EXPECT_FALSE(child.try_charge(150));
  EXPECT_EQ(child.charged_bytes(), 0u);
  EXPECT_EQ(parent.charged_bytes(), 0u);
  EXPECT_TRUE(child.try_charge(80));
  EXPECT_EQ(child.charged_bytes(), 80u);
  EXPECT_EQ(parent.charged_bytes(), 80u);
  // remaining_bytes reports the tightest control in the chain.
  EXPECT_EQ(child.remaining_bytes(), 20u);
  child.uncharge(80);
}

TEST(RunControl, ChildSeesParentStop) {
  RunControl parent, child;
  child.set_parent(&parent);
  EXPECT_EQ(child.stop_cause(), StopCause::None);
  parent.request_cancel();
  EXPECT_EQ(child.stop_cause(), StopCause::Cancelled);
}

TEST(RunControl, DeadlineOnFakeClock) {
  faults::ScheduledFault clock;
  RunControl rc;
  rc.set_deadline_ms(50.0);
  EXPECT_TRUE(rc.has_deadline());
  EXPECT_EQ(rc.stop_cause(), StopCause::None);
  EXPECT_NEAR(rc.deadline_remaining_ms(), 50.0, 1e-9);
  clock.advance_ms(49.0);
  EXPECT_EQ(rc.stop_cause(), StopCause::None);
  clock.advance_ms(2.0);
  EXPECT_EQ(rc.stop_cause(), StopCause::DeadlineExceeded);
  EXPECT_EQ(rc.deadline_remaining_ms(), 0.0);
}

TEST(RunControl, DeadlineRemainingIsTightestInChain) {
  faults::ScheduledFault clock;
  RunControl parent, child;
  parent.set_deadline_ms(30.0);
  child.set_deadline_ms(200.0);
  child.set_parent(&parent);
  EXPECT_NEAR(child.deadline_remaining_ms(), 30.0, 1e-9);
}

TEST(CooperativeStop, LatchesFirstCauseAndThrowsAfterJoin) {
  CooperativeStop stop;
  EXPECT_FALSE(stop.should_skip(nullptr));  // unarmed: never skips
  RunControl rc;
  EXPECT_FALSE(stop.should_skip(&rc));
  rc.request_cancel();
  EXPECT_TRUE(stop.should_skip(&rc));
  EXPECT_TRUE(stop.stopped());
  EXPECT_EQ(stop.cause(), StopCause::Cancelled);
  try {
    stop.throw_if_stopped("unit");
    FAIL() << "throw_if_stopped must throw after a latched stop";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::Cancelled);
  }
}

// ---------------------------------------------------------- sketch paths --

CscMatrix<double> test_matrix() {
  return random_sparse<double>(200, 60, 0.15, 7);
}

/// Exact elementwise equality — the run-control contract is bitwise, not
/// within-tolerance.
void expect_bitwise_equal(const DenseMatrix<double>& a,
                          const DenseMatrix<double>& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

/// Fill with a sentinel so "untouched" is distinguishable from "zeroed".
DenseMatrix<double> sentinel_matrix(index_t rows, index_t cols) {
  DenseMatrix<double> m(rows, cols);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) m(i, j) = -123.25;
  }
  return m;
}

void expect_sentinel_intact(const DenseMatrix<double>& m) {
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t i = 0; i < m.rows(); ++i) {
      ASSERT_EQ(m(i, j), -123.25) << "output mutated at (" << i << ", " << j
                                  << ") despite the stop";
    }
  }
}

TEST(RunControlSketch, PreCancelledRunLeavesOutputUntouched) {
  const auto a = test_matrix();
  SketchConfig cfg;
  cfg.d = 40;
  RunControl rc;
  rc.request_cancel();
  cfg.bounds.control = &rc;
  auto a_hat = sentinel_matrix(cfg.d, a.cols());
  try {
    sketch_into(cfg, a, a_hat);
    FAIL() << "cancelled sketch must throw";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::Cancelled);
  }
  expect_sentinel_intact(a_hat);
}

TEST(RunControlSketch, ExpiredDeadlineLeavesOutputUntouched) {
  faults::ScheduledFault clock;
  const auto a = test_matrix();
  RunControl rc;
  rc.set_deadline_ms(10.0);
  clock.advance_ms(20.0);  // the deadline passed before the sketch started
  SketchConfig cfg;
  cfg.d = 40;
  cfg.bounds.control = &rc;
  auto a_hat = sentinel_matrix(cfg.d, a.cols());
  try {
    sketch_into(cfg, a, a_hat);
    FAIL() << "expired deadline must stop the sketch";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::DeadlineExceeded);
  }
  expect_sentinel_intact(a_hat);
}

TEST(RunControlSketch, ArmedButUnhitBoundsAreBitwiseInvisible) {
  // A generous deadline and budget must not change a single bit of Â —
  // the armed path stages into a private buffer but computes identically.
  const auto a = test_matrix();
  SketchConfig cfg;
  cfg.d = 40;
  DenseMatrix<double> plain;
  sketch_into(cfg, a, plain);

  SketchConfig armed = cfg;
  armed.bounds.deadline_ms = 1e9;
  armed.bounds.workspace_budget_bytes = std::size_t{1} << 40;
  DenseMatrix<double> bounded;
  const auto stats = sketch_into(armed, a, bounded);
  EXPECT_EQ(stats.degradations, 0u);
  expect_bitwise_equal(plain, bounded);
}

TEST(RunControlSketch, SecondThreadCancellationStopsTheSketch) {
  // A watcher thread cancels while the sketch runs. Timing is inherently
  // racy, so a fast machine finishing cleanly is a pass too — what the test
  // pins down is that a mid-flight cancel is honored (within one outer
  // block) and honors clean-throw semantics when it lands.
  const auto a = random_sparse<double>(4000, 300, 0.10, 11);
  SketchConfig cfg;
  cfg.d = 900;
  cfg.block_d = 8;  // many outer blocks -> many poll points
  cfg.block_n = 8;
  RunControl rc;
  cfg.bounds.control = &rc;
  std::atomic<bool> started{false};
  std::thread watcher([&] {
    while (!started.load(std::memory_order_relaxed)) std::this_thread::yield();
    rc.request_cancel();
  });
  auto a_hat = sentinel_matrix(cfg.d, a.cols());
  bool threw = false;
  try {
    started.store(true, std::memory_order_relaxed);
    sketch_into(cfg, a, a_hat);
  } catch (const run_stopped_error& e) {
    threw = true;
    EXPECT_EQ(e.cause(), StopCause::Cancelled);
  }
  watcher.join();
  if (threw) {
    expect_sentinel_intact(a_hat);
  } else {
    // Sketch won the race: the output must then be the real sketch.
    DenseMatrix<double> expected;
    SketchConfig plain = cfg;
    plain.bounds.control = nullptr;
    sketch_into(plain, a, expected);
    expect_bitwise_equal(expected, a_hat);
  }
}

// ------------------------------------------------------- budget + ladder --

TEST(RunControlBudget, LadderDegradesToBitwiseIdenticalSketch) {
  const auto a = test_matrix();
  SketchConfig cfg;
  cfg.d = 40;
  cfg.kernel = KernelVariant::Jki;
  cfg.block_n = 16;  // several vertical blocks -> the conversion has bulk
  cfg.parallel = ParallelOver::DBlocks;
  DenseMatrix<double> unbounded;
  sketch_into(cfg, a, unbounded);

  // Budget exactly the kji/sequential footprint: the ladder must shed the
  // thread team and the jki conversion to fit, and the result must not
  // move a bit (kji/jki and thread count are bitwise-equivalent by design).
  SketchConfig floor_cfg = cfg;
  floor_cfg.kernel = KernelVariant::Kji;
  floor_cfg.parallel = ParallelOver::Sequential;
  const std::size_t floor_bytes =
      sketch_workspace_estimate<double>(floor_cfg, a.rows(), a.cols(), a.nnz());
  ASSERT_LT(floor_bytes, sketch_workspace_estimate<double>(cfg, a.rows(),
                                                           a.cols(), a.nnz()));

  SketchConfig tight = cfg;
  tight.bounds.workspace_budget_bytes = floor_bytes;
  DenseMatrix<double> degraded;
  const auto stats = sketch_into(tight, a, degraded);
  EXPECT_GE(stats.degradations, 1u);
  expect_bitwise_equal(unbounded, degraded);
}

TEST(RunControlBudget, OneThreadTeamSkipsTheSequentialRung) {
  // On a one-thread team DBlocks already plans one scratch vector, so
  // dropping to Sequential would shrink nothing: the ladder must not take
  // (or count) that rung, only the two that shrink the estimate.
  ThreadCountGuard one(1);
  const auto a = test_matrix();
  SketchConfig cfg;
  cfg.d = 40;
  cfg.kernel = KernelVariant::Jki;
  cfg.block_n = 16;
  cfg.parallel = ParallelOver::DBlocks;
  DenseMatrix<double> unbounded;
  sketch_into(cfg, a, unbounded);

  const auto estimate = [&](const SketchConfig& c) {
    return sketch_workspace_estimate<double>(c, a.rows(), a.cols(), a.nnz());
  };
  SketchConfig sequential = cfg;
  sequential.parallel = ParallelOver::Sequential;
  SketchConfig widened = cfg;
  widened.block_n = a.cols();
  SketchConfig floor_cfg = widened;
  floor_cfg.kernel = KernelVariant::Kji;
  ASSERT_EQ(estimate(sequential), estimate(cfg));
  ASSERT_LT(estimate(widened), estimate(cfg));
  ASSERT_LT(estimate(floor_cfg), estimate(widened));

  perf::set_enabled(true);
  perf::reset();
  SketchConfig tight = cfg;
  tight.bounds.workspace_budget_bytes = estimate(floor_cfg);
  DenseMatrix<double> degraded;
  const auto stats = sketch_into(tight, a, degraded);
  const auto snap = perf::snapshot();
  perf::set_enabled(false);
  EXPECT_EQ(stats.degradations, 2u);  // widen_block_n, kernel_kji
  EXPECT_EQ(snap.get(perf::Counter::RunDegradations), 2u);
  EXPECT_EQ(snap.spans.count("run_control/degrade/sequential"), 0u);
  EXPECT_EQ(snap.spans.count("run_control/degrade/widen_block_n"), 1u);
  EXPECT_EQ(snap.spans.count("run_control/degrade/kernel_kji"), 1u);
  expect_bitwise_equal(unbounded, degraded);
}

TEST(RunControlBudget, PhiloxLadderMayHalveBlockD) {
  // Philox's sample stream is blocking-independent, so the ladder's last
  // rung (halving b_d) is available and still bitwise-clean.
  const auto a = test_matrix();
  SketchConfig cfg;
  cfg.d = 40;
  cfg.backend = RngBackend::Philox;
  cfg.kernel = KernelVariant::Kji;
  cfg.parallel = ParallelOver::Sequential;
  cfg.block_d = 64;
  DenseMatrix<double> unbounded;
  sketch_into(cfg, a, unbounded);

  SketchConfig quarter = cfg;
  quarter.block_d = 16;
  const std::size_t quarter_bytes = sketch_workspace_estimate<double>(
      quarter, a.rows(), a.cols(), a.nnz());
  SketchConfig tight = cfg;
  tight.bounds.workspace_budget_bytes = quarter_bytes;
  DenseMatrix<double> degraded;
  const auto stats = sketch_into(tight, a, degraded);
  EXPECT_GE(stats.degradations, 2u);  // two halvings: 40 -> 20 -> 10
  expect_bitwise_equal(unbounded, degraded);
}

TEST(RunControlBudget, OnPressureFailThrowsInsteadOfDegrading) {
  const auto a = test_matrix();
  SketchConfig cfg;
  cfg.d = 40;
  cfg.bounds.workspace_budget_bytes = 1;  // nothing fits
  cfg.on_pressure = OnPressure::Fail;
  auto a_hat = sentinel_matrix(cfg.d, a.cols());
  try {
    sketch_into(cfg, a, a_hat);
    FAIL() << "on_pressure=fail must throw at the first pressure";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::BudgetExceeded);
  }
  expect_sentinel_intact(a_hat);
}

TEST(RunControlBudget, BudgetChargesOnlyTheRowsTheDriverRuns) {
  // The driver clamps b_d to d, so a huge block_d costs no more scratch
  // than block_d = d: a 1 MB budget fits with no degradation even under
  // on_pressure=fail, and the result is bitwise the block_d = d sketch.
  const auto a = random_sparse<double>(60, 30, 0.1, 3);
  SketchConfig cfg;
  cfg.d = 90;
  cfg.block_d = 90;
  DenseMatrix<double> exact;
  sketch_into(cfg, a, exact);

  SketchConfig huge = cfg;
  huge.block_d = 1'000'000;
  huge.bounds.workspace_budget_bytes = 1'000'000;
  huge.on_pressure = OnPressure::Fail;
  DenseMatrix<double> clamped;
  const auto stats = sketch_into(huge, a, clamped);
  EXPECT_EQ(stats.degradations, 0u);
  expect_bitwise_equal(exact, clamped);
  EXPECT_EQ(sketch_workspace_estimate<double>(huge, a.rows(), a.cols(),
                                              a.nnz()),
            sketch_workspace_estimate<double>(cfg, a.rows(), a.cols(),
                                              a.nnz()));
}

TEST(RunControlBudget, DegradeLadderHalvesFromTheClampedBlockD) {
  // The halve_block_d rung starts from the b_d the driver runs, so a huge
  // block_d degrades exactly as block_d = d does: the same halvings to the
  // same fit, and the same bits.
  const auto a = test_matrix();
  SketchConfig cfg;
  cfg.d = 40;
  cfg.backend = RngBackend::Philox;
  cfg.kernel = KernelVariant::Kji;
  cfg.parallel = ParallelOver::Sequential;
  cfg.block_d = 40;
  DenseMatrix<double> unbounded;
  sketch_into(cfg, a, unbounded);

  SketchConfig quarter = cfg;
  quarter.block_d = 10;
  cfg.bounds.workspace_budget_bytes = sketch_workspace_estimate<double>(
      quarter, a.rows(), a.cols(), a.nnz());
  DenseMatrix<double> from_d;
  const auto want = sketch_into(cfg, a, from_d);
  EXPECT_EQ(want.degradations, 2u);  // 40 -> 20 -> 10

  SketchConfig huge = cfg;
  huge.block_d = 1'000'000;
  DenseMatrix<double> from_huge;
  const auto got = sketch_into(huge, a, from_huge);
  EXPECT_EQ(got.degradations, want.degradations);
  expect_bitwise_equal(unbounded, from_d);
  expect_bitwise_equal(unbounded, from_huge);
}

TEST(RunControlBudget, ExhaustedLadderThrowsBudgetExceeded) {
  // Xoshiro backends cannot shrink b_d (blocking-dependent stream), so a
  // one-byte budget exhausts the ladder instead of looping forever.
  const auto a = test_matrix();
  SketchConfig cfg;
  cfg.d = 40;
  cfg.bounds.workspace_budget_bytes = 1;
  auto a_hat = sentinel_matrix(cfg.d, a.cols());
  try {
    sketch_into(cfg, a, a_hat);
    FAIL() << "an unsatisfiable budget must throw";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::BudgetExceeded);
    EXPECT_NE(std::string(e.what()).find("ladder exhausted"),
              std::string::npos);
  }
  expect_sentinel_intact(a_hat);
}

TEST(RunControlBudget, DegradationsAreCountedInPerf) {
  const auto a = test_matrix();
  perf::set_enabled(true);
  perf::reset();
  SketchConfig cfg;
  cfg.d = 40;
  cfg.kernel = KernelVariant::Jki;
  cfg.parallel = ParallelOver::DBlocks;
  SketchConfig floor_cfg = cfg;
  floor_cfg.kernel = KernelVariant::Kji;
  floor_cfg.parallel = ParallelOver::Sequential;
  cfg.bounds.workspace_budget_bytes =
      sketch_workspace_estimate<double>(floor_cfg, a.rows(), a.cols(), a.nnz());
  DenseMatrix<double> a_hat;
  const auto stats = sketch_into(cfg, a, a_hat);
  const auto snap = perf::snapshot();
  perf::set_enabled(false);
  EXPECT_GE(stats.degradations, 1u);
  EXPECT_EQ(snap.get(perf::Counter::RunDegradations), stats.degradations);
  const auto it = snap.spans.find("run_control/degrade");
  ASSERT_NE(it, snap.spans.end());
  EXPECT_EQ(it->second.count, stats.degradations);
}

// ------------------------------------------ every entry point, every cause --
//
// The contract holds for every bounded public entry point: the three sketch
// entry points, the three SAP solvers and the two batch submissions. A
// stopped call throws the cause, leaves its output exactly as the caller
// passed it, and bumps the matching run_* counter exactly once — also when
// the stop fires inside a nested call (the solvers' sketch, a batch job's
// sketch or solve).

enum class Entry {
  Sketch,
  Prepartitioned,
  Right,
  Sap,
  Guarded,
  MinimumNorm,
  Batch,
  BatchGuarded,
};

std::string to_string(Entry e) {
  switch (e) {
    case Entry::Sketch: return "sketch_into";
    case Entry::Prepartitioned: return "prepartitioned";
    case Entry::Right: return "right";
    case Entry::Sap: return "sap_solve";
    case Entry::Guarded: return "guarded_sap_solve";
    case Entry::MinimumNorm: return "minimum_norm";
    case Entry::Batch: return "batch_submit";
    case Entry::BatchGuarded: return "batch_guarded_solve";
  }
  return "?";
}

std::vector<double> flatten(const DenseMatrix<double>& m) {
  std::vector<double> out;
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t i = 0; i < m.rows(); ++i) out.push_back(m(i, j));
  }
  return out;
}

/// Run one entry point under `bounds` on its test input, into a sentinel-
/// filled output of the right shape, and return that output flattened,
/// whether or not the call stopped. A run_stopped_error (thrown, or carried
/// by a batch handle) is caught and its cause stored in `*cause` (None when
/// the call completed).
std::vector<double> run_entry(Entry e, const RunBounds& bounds,
                              StopCause* cause) {
  *cause = StopCause::None;
  const auto guarded = [&](auto&& call) {
    try {
      call();
    } catch (const run_stopped_error& err) {
      *cause = err.cause();
    }
  };
  SketchConfig cfg;
  cfg.d = 24;
  cfg.block_d = 8;  // several row blocks, so the driver really schedules
  cfg.on_pressure = OnPressure::Fail;
  const auto a = test_matrix();
  // The solvers' inputs: tall for the least-squares solvers, wide for the
  // minimum-norm one.
  const auto tall = random_sparse<double>(120, 40, 0.3, 2024);
  const auto b = make_least_squares_rhs(tall, 7);
  std::vector<double> x(static_cast<std::size_t>(tall.cols()), -123.25);
  BatchOptions batch_options;
  batch_options.workers = 2;
  batch_options.bounds = bounds;
  switch (e) {
    case Entry::Sketch: {
      cfg.bounds = bounds;
      auto out = sentinel_matrix(cfg.d, a.cols());
      guarded([&] { sketch_into(cfg, a, out); });
      return flatten(out);
    }
    case Entry::Prepartitioned: {
      cfg.bounds = bounds;
      const auto ab = BlockedCsr<double>::from_csc(a, 16);
      auto out = sentinel_matrix(cfg.d, a.cols());
      guarded([&] { sketch_into_prepartitioned(cfg, ab, out); });
      return flatten(out);
    }
    case Entry::Right: {
      cfg.bounds = bounds;
      auto out = sentinel_matrix(cfg.d, a.rows());
      guarded([&] { sketch_right_into(cfg, a, out); });
      return flatten(out);
    }
    case Entry::Sap: {
      SapOptions opt;
      opt.bounds = bounds;
      guarded([&] { x = sap_solve(tall, b, opt).x; });
      return x;
    }
    case Entry::Guarded: {
      GuardedSapOptions opt;
      opt.base.bounds = bounds;
      guarded([&] { x = guarded_sap_solve(tall, b, opt).result.x; });
      return x;
    }
    case Entry::MinimumNorm: {
      const auto wide = transpose(tall);
      const std::vector<double> rhs(b.begin(), b.begin() + wide.rows());
      std::vector<double> xw(static_cast<std::size_t>(wide.cols()), -123.25);
      SapOptions opt;
      opt.bounds = bounds;
      guarded([&] { xw = sap_solve_minimum_norm(wide, rhs, opt).x; });
      return xw;
    }
    case Entry::Batch: {
      auto out = sentinel_matrix(cfg.d, a.cols());
      SketchBatch batch(batch_options);
      const JobHandle h = batch.submit(cfg, a, out);
      batch.wait_all();
      guarded([&] { h.stats(); });
      return flatten(out);
    }
    case Entry::BatchGuarded: {
      GuardedSapResult<double> out;
      out.result.x = x;
      SketchBatch batch(batch_options);
      const JobHandle h =
          batch.submit_guarded_solve(GuardedSapOptions{}, tall, b, out);
      batch.wait_all();
      guarded([&] { h.stats(); });
      return out.result.x;
    }
  }
  return {};
}

perf::Counter counter_of(StopCause c) {
  switch (c) {
    case StopCause::Cancelled: return perf::Counter::RunCancelled;
    case StopCause::DeadlineExceeded: return perf::Counter::RunDeadlineHits;
    default: return perf::Counter::RunBudgetHits;
  }
}

constexpr Entry kEntries[] = {
    Entry::Sketch,      Entry::Prepartitioned, Entry::Right,
    Entry::Sap,         Entry::Guarded,        Entry::MinimumNorm,
    Entry::Batch,       Entry::BatchGuarded,
};

class RunControlContract
    : public ::testing::TestWithParam<std::tuple<Entry, StopCause>> {};

TEST_P(RunControlContract, StopLeavesOutputUntouchedAndCountsOnce) {
  const auto [entry, want] = GetParam();
  faults::ScheduledFault clock;
  RunControl rc;
  RunBounds bounds;
  switch (want) {
    case StopCause::Cancelled:
      rc.request_cancel();
      bounds.control = &rc;
      break;
    case StopCause::DeadlineExceeded:
      rc.set_deadline_ms(10.0);
      clock.advance_ms(20.0);  // expired before the call starts
      bounds.control = &rc;
      break;
    default:
      bounds.workspace_budget_bytes = 1;  // nothing fits
      break;
  }

  perf::set_enabled(true);
  perf::reset();
  StopCause got = StopCause::None;
  const auto out = run_entry(entry, bounds, &got);
  const auto snap = perf::snapshot();
  perf::set_enabled(false);

  EXPECT_EQ(got, want);
  ASSERT_FALSE(out.empty());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], -123.25) << "output mutated at " << i
                               << " despite the stop";
  }
  for (StopCause c : {StopCause::Cancelled, StopCause::DeadlineExceeded,
                      StopCause::BudgetExceeded}) {
    EXPECT_EQ(snap.get(counter_of(c)), c == want ? 1u : 0u)
        << "counter for " << to_string(c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryEntryPoint, RunControlContract,
    ::testing::Combine(::testing::ValuesIn(kEntries),
                       ::testing::Values(StopCause::Cancelled,
                                         StopCause::DeadlineExceeded,
                                         StopCause::BudgetExceeded)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

class RunControlArmedUnhit : public ::testing::TestWithParam<Entry> {};

TEST_P(RunControlArmedUnhit, OutputIsBitwiseTheUnarmedOne) {
  StopCause cause = StopCause::None;
  const auto plain = run_entry(GetParam(), RunBounds{}, &cause);
  ASSERT_EQ(cause, StopCause::None);
  RunBounds armed;
  armed.deadline_ms = 1e9;
  armed.workspace_budget_bytes = std::size_t{1} << 40;
  const auto bounded = run_entry(GetParam(), armed, &cause);
  ASSERT_EQ(cause, StopCause::None);
  ASSERT_EQ(plain.size(), bounded.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_NE(plain[i], -123.25) << "output not written at " << i;
    ASSERT_EQ(plain[i], bounded[i]) << "at " << i;
  }
}

// sketch_into has its own case above.
INSTANTIATE_TEST_SUITE_P(
    OtherEntryPoints, RunControlArmedUnhit,
    ::testing::Values(Entry::Prepartitioned, Entry::Right, Entry::Sap,
                      Entry::Guarded, Entry::MinimumNorm, Entry::Batch,
                      Entry::BatchGuarded),
    [](const auto& info) { return to_string(info.param); });

/// A negative or NaN deadline is a caller error at every entry point, one
/// row per options struct that carries RunBounds: SketchConfig, SapOptions
/// (the guarded solve reads its base's) and BatchOptions.
class RunBoundsValidation : public ::testing::TestWithParam<Entry> {};

TEST_P(RunBoundsValidation, NegativeOrNanDeadlineIsRejected) {
  for (double deadline : {-1.0, std::nan("")}) {
    RunBounds bounds;
    bounds.deadline_ms = deadline;
    StopCause cause = StopCause::None;
    EXPECT_THROW(run_entry(GetParam(), bounds, &cause),
                 invalid_argument_error)
        << "deadline_ms = " << deadline;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryOptionsStruct, RunBoundsValidation,
    ::testing::Values(Entry::Sketch, Entry::Sap, Entry::Guarded, Entry::Batch),
    [](const auto& info) { return to_string(info.param); });

// --------------------------------------------------------- guarded solve --

TEST(RunControlGuarded, StopIsLoggedOnceAndNeverBurnsAttempts) {
  const auto a = random_sparse<double>(120, 40, 0.3, 2024);
  const auto b = make_least_squares_rhs(a, 7);
  faults::ScheduledFault clock;
  RunControl rc;
  rc.set_deadline_ms(10.0);
  clock.advance_ms(20.0);  // dead before the solve starts
  GuardedSapOptions opt;
  opt.max_attempts = 5;
  opt.base.bounds.control = &rc;
  try {
    guarded_sap_solve(a, b, opt);
    FAIL() << "an expired deadline must stop the solve";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::DeadlineExceeded);
    // Exactly-once: the message logs one deadline_exceeded attempt, not
    // five timed-out ones.
    const std::string what = e.what();
    EXPECT_NE(what.find("attempt 1: deadline_exceeded"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("attempt 2"), std::string::npos) << what;
  }
}

TEST(RunControlGuarded, CancelledControlStopsTheSolve) {
  const auto a = random_sparse<double>(120, 40, 0.3, 2024);
  const auto b = make_least_squares_rhs(a, 7);
  RunControl rc;
  rc.request_cancel();
  GuardedSapOptions opt;
  opt.base.bounds.control = &rc;
  try {
    guarded_sap_solve(a, b, opt);
    FAIL() << "a cancelled control must stop the solve";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::Cancelled);
  }
}

TEST(RunControlGuarded, StopInLsqrLogsTheStoppedAttempt) {
  const auto a = random_sparse<double>(120, 40, 0.3, 2024);
  const auto b = make_least_squares_rhs(a, 7);
  faults::ScheduledFault clock;
  RunControl rc;
  rc.set_deadline_ms(10.0);
  ClockAdvancingArena arena(clock, 20.0);
  GuardedSapOptions opt;
  opt.base.bounds.control = &rc;
  std::string what;
  StopCause cause = StopCause::None;
  {
    ScopedArenaScope scope(&arena);
    try {
      guarded_sap_solve(a, b, opt);
    } catch (const run_stopped_error& e) {
      cause = e.cause();
      what = e.what();
    }
  }
  ASSERT_EQ(cause, StopCause::DeadlineExceeded);
  // The message carries the stopped attempt as the sketch and the factor
  // left it: the base seed, d = ⌈γn⌉ and the factor's condition estimate.
  const auto d = static_cast<index_t>(std::ceil(opt.base.gamma * 40));
  std::ostringstream want;
  want << "[attempt 1: deadline_exceeded, seed=" << opt.base.seed
       << ", d=" << d << ", cond~";
  const std::size_t at = what.find(want.str());
  ASSERT_NE(at, std::string::npos) << what;
  const double cond = std::stod(what.substr(at + want.str().size()));
  EXPECT_GT(cond, 0.0) << what;
  EXPECT_EQ(what.find("attempt 2"), std::string::npos) << what;
}

// ------------------------------------------------------------ SAP solve --

TEST(RunControlSap, DeadlineBindsAfterTheSketch) {
  // SapOptions::bounds cover the whole solve, not just its sketch: a
  // deadline armed at the start of the solve that passes between the sketch
  // and LSQR stops the solve in LSQR, for the least-squares and the
  // minimum-norm solver alike.
  constexpr double kDeadlineMs = 1e6;  // never reached on the real clock
  const auto tall = random_sparse<double>(120, 40, 0.3, 2024);
  const auto b = make_least_squares_rhs(tall, 7);
  const auto wide = transpose(tall);
  const std::vector<double> rhs(b.begin(), b.begin() + wide.rows());
  SapOptions opt;
  opt.bounds.deadline_ms = kDeadlineMs;
  for (const bool minimum_norm : {false, true}) {
    SCOPED_TRACE(minimum_norm ? "sap_solve_minimum_norm" : "sap_solve");
    faults::ScheduledFault clock;
    ClockAdvancingArena arena(clock, 2 * kDeadlineMs);
    perf::set_enabled(true);
    perf::reset();
    StopCause cause = StopCause::None;
    {
      ScopedArenaScope scope(&arena);
      try {
        if (minimum_norm) {
          sap_solve_minimum_norm(wide, rhs, opt);
        } else {
          sap_solve(tall, b, opt);
        }
      } catch (const run_stopped_error& e) {
        cause = e.cause();
      }
    }
    const auto snap = perf::snapshot();
    perf::set_enabled(false);
    EXPECT_EQ(cause, StopCause::DeadlineExceeded);
    EXPECT_EQ(snap.get(perf::Counter::RunDeadlineHits), 1u);
    // The deadline passed after the sketch: the sketch and the
    // factorization both ran, and the stop came from LSQR's poll.
    EXPECT_GE(arena.acquired(), 2);
    for (const char* phase : {"sap/sketch", "sap/factor", "sap/lsqr"}) {
      const auto it = snap.spans.find(phase);
      ASSERT_NE(it, snap.spans.end()) << phase;
      EXPECT_EQ(it->second.count, 1u) << phase;
    }
  }
}

// -------------------------------------------------------- memory tracker --

TEST(RunControlTracker, AttachedTrackerEnforcesBudget) {
  RunControl rc;
  rc.set_budget_bytes(100);
  MemoryTracker mt;
  mt.attach(&rc);
  mt.add("a", 60);
  EXPECT_EQ(rc.charged_bytes(), 60u);
  try {
    mt.add("b", 50);
    FAIL() << "the attached budget must refuse the overcommit";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::BudgetExceeded);
  }
  // Charge-before-commit: the refused allocation never entered the books.
  EXPECT_EQ(mt.current_bytes(), 60u);
  EXPECT_EQ(rc.charged_bytes(), 60u);
  mt.release("a");
  EXPECT_EQ(rc.charged_bytes(), 0u);
}

TEST(RunControlTracker, DestructorReturnsOutstandingCharges) {
  RunControl rc;
  rc.set_budget_bytes(1000);
  {
    MemoryTracker mt;
    mt.attach(&rc);
    mt.add("leaked by an exception path", 400);
    EXPECT_EQ(rc.charged_bytes(), 400u);
  }
  // The tracker died with live items; the budget must be whole again.
  EXPECT_EQ(rc.charged_bytes(), 0u);
}

TEST(RunControlTracker, ConcurrentAddReleaseBalances) {
  // Thread-safety hammer (meaningful under TSan): concurrent add/release
  // from many threads must serialize cleanly and balance to zero.
  MemoryTracker mt;
  RunControl rc;
  rc.set_budget_bytes(SIZE_MAX / 2);
  mt.attach(&rc);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&mt, t] {
      const std::string label = "thread " + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        mt.add(label, 64);
        mt.release(label);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mt.current_bytes(), 0u);
  EXPECT_EQ(rc.charged_bytes(), 0u);
  EXPECT_GE(mt.peak_bytes(), 64u);
}

// ------------------------------------------------------------ fake clock --

TEST(RunControlEnv, ScheduledFaultRestoresTheRealClock) {
  {
    faults::ScheduledFault clock;
    EXPECT_EQ(RunControl::now_ns(), 0);
    clock.advance_seconds(1.5);
    EXPECT_EQ(RunControl::now_ns(), 1'500'000'000LL);
    EXPECT_NEAR(clock.elapsed_ms(), 1500.0, 1e-9);
  }
  // Destructor re-arms the steady clock: time moves again.
  const long long t0 = RunControl::now_ns();
  EXPECT_GT(t0, 0);
}

}  // namespace
}  // namespace rsketch
