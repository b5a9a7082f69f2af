// Tests for the batch-serving layer (sketch/batch.hpp + support/executor.hpp):
// batch outputs are bitwise-identical to direct sketch_into calls across
// kernels and ISA tiers, batch-level cancel/deadline fan out to every queued
// job exactly once with complete-or-untouched outputs, work stealing keeps
// its books straight under a deliberately skewed submit, the shared arena
// recycles slabs and respects the batch budget (degrading per the PR-7
// ladder), and pool workers retire their trace rings when they park instead
// of holding events (and thread names) hostage. The `parallel` label runs
// all of this under TSan in CI; the `batch` label gives the dedicated batch
// CI job a handle on it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "dense/microkernel.hpp"
#include "perf/json.hpp"
#include "perf/perf.hpp"
#include "perf/trace.hpp"
#include "sketch/batch.hpp"
#include "sketch/sketch.hpp"
#include "solvers/least_squares.hpp"
#include "sparse/generate.hpp"
#include "support/executor.hpp"
#include "support/run_control.hpp"
#include "testdata/faults.hpp"

namespace rsketch {
namespace {

template <typename T>
void expect_bitwise_equal(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
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

// --------------------------------------------------------------- executor --

TEST(Executor, RunsEverySubmittedTaskOnce) {
  Executor exec(3);
  EXPECT_EQ(exec.workers(), 3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    exec.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  exec.wait_idle();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(exec.executed(), 64u);
  EXPECT_EQ(exec.queue_depth(), 0u);
}

TEST(Executor, SkewedPlacementForcesStealing) {
  // Every task lands on worker 0's queue; the wave's first task sleeps, so
  // the only way the rest can run before it wakes is for workers 1..3 to
  // steal them (sleeping releases the CPU, so this holds on one core too).
  // One wave can theoretically complete steal-free — e.g. the OS is slow
  // enough starting threads 1..3 that worker 0 drains everything — so the
  // test retries with fresh waves (by which point every thread is long
  // alive) instead of betting on a single 200 ms window.
  Executor exec(4);
  std::atomic<int> ran{0};
  int waves = 0;
  while (waves < 5 && exec.steals() == 0) {
    ++waves;
    exec.submit_to(0, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    });
    for (int i = 0; i < 15; ++i) {
      exec.submit_to(0,
                     [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    exec.wait_idle();
  }
  EXPECT_EQ(ran.load(), 15 * waves);
  EXPECT_EQ(exec.executed(), static_cast<std::uint64_t>(16 * waves));
  EXPECT_GE(exec.steals(), 1u);
  EXPECT_EQ(exec.queue_depth(), 0u);
}

TEST(Executor, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    Executor exec(2);
    for (int i = 0; i < 32; ++i) {
      exec.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait_idle: the destructor must drain, not drop.
  }
  EXPECT_EQ(ran.load(), 32);
}

// ---------------------------------------------------------------- bitwise --

TEST(BatchBitwise, MatchesDirectCallAcrossKernelsAndIsaTiers) {
  const auto a = random_sparse<double>(1500, 120, 0.02, 321);
  const KernelVariant kernels[] = {KernelVariant::Kji, KernelVariant::Jki};
  const microkernel::Isa tiers[] = {microkernel::Isa::Scalar,
                                    microkernel::best_supported(),
                                    microkernel::Isa::Auto};
  BatchOptions options;
  options.workers = 2;
  SketchBatch batch(options);
  for (const KernelVariant kernel : kernels) {
    for (const microkernel::Isa isa : tiers) {
      SketchConfig cfg;
      cfg.d = 64;
      cfg.seed = 99;
      cfg.kernel = kernel;
      cfg.isa = isa;
      cfg.block_d = 32;
      cfg.block_n = 48;
      // Direct call keeps the default parallel mode; the batch forces small
      // jobs sequential — bitwise-equal outputs prove the invariant holds
      // through the pool, not just that both sides ran the same code path.
      DenseMatrix<double> expected;
      sketch_into(cfg, a, expected);
      DenseMatrix<double> out(cfg.d, a.cols());
      auto handle = batch.submit(cfg, a, out);
      EXPECT_NO_THROW(handle.stats());
      expect_bitwise_equal(expected, out);
    }
  }
}

TEST(BatchBitwise, MixedJobStreamMatchesSequentialReference) {
  const auto a0 = random_sparse<double>(1200, 96, 0.01, 11);
  const auto a1 = random_sparse<double>(2000, 128, 0.02, 12);
  constexpr int kJobs = 24;
  std::vector<DenseMatrix<double>> expected;
  std::vector<DenseMatrix<double>> out;
  std::vector<SketchConfig> cfgs;
  for (int i = 0; i < kJobs; ++i) {
    SketchConfig cfg;
    cfg.d = i % 3 == 0 ? 80 : 48;
    cfg.seed = 5000 + static_cast<std::uint64_t>(i);
    cfg.kernel = i % 2 == 0 ? KernelVariant::Kji : KernelVariant::Jki;
    cfgs.push_back(cfg);
    const auto& a = i % 2 == 0 ? a0 : a1;
    DenseMatrix<double> ref;
    sketch_into(cfg, a, ref);
    expected.push_back(std::move(ref));
    out.emplace_back(cfg.d, a.cols());
  }
  BatchOptions options;
  options.workers = 4;
  SketchBatch batch(options);
  for (int i = 0; i < kJobs; ++i) {
    batch.submit(cfgs[static_cast<std::size_t>(i)],
                 i % 2 == 0 ? a0 : a1, out[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(batch.wait_all(), 0u);
  EXPECT_EQ(batch.jobs_submitted(), static_cast<std::uint64_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    expect_bitwise_equal(expected[static_cast<std::size_t>(i)],
                         out[static_cast<std::size_t>(i)]);
  }
}

TEST(BatchBitwise, SharedTunerMemoMatchesDirectTunedCall) {
  const auto a = random_sparse<double>(1500, 120, 0.02, 77);
  SketchConfig cfg;
  cfg.d = 64;
  cfg.seed = 31;
  cfg.tune = TuneMode::Model;
  DenseMatrix<double> expected;
  sketch_into(cfg, a, expected);

  BatchOptions options;
  options.workers = 2;
  SketchBatch batch(options);
  constexpr int kJobs = 4;  // same shape: one memo entry serves all four
  std::vector<DenseMatrix<double>> out;
  for (int i = 0; i < kJobs; ++i) out.emplace_back(cfg.d, a.cols());
  for (int i = 0; i < kJobs; ++i) {
    batch.submit(cfg, a, out[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(batch.wait_all(), 0u);
  for (int i = 0; i < kJobs; ++i) {
    expect_bitwise_equal(expected, out[static_cast<std::size_t>(i)]);
  }
}

// ---------------------------------------------------------- cancel/deadline --

TEST(BatchControl, PreCancelledBatchFailsEveryJobUntouched) {
  const auto a = random_sparse<double>(1200, 96, 0.01, 21);
  BatchOptions options;
  options.workers = 2;
  SketchBatch batch(options);
  batch.cancel();
  constexpr int kJobs = 8;
  std::vector<DenseMatrix<double>> out;
  std::vector<JobHandle> handles;
  for (int i = 0; i < kJobs; ++i) out.push_back(sentinel_matrix(40, a.cols()));
  for (int i = 0; i < kJobs; ++i) {
    SketchConfig cfg;
    cfg.d = 40;
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    handles.push_back(batch.submit(cfg, a, out[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(batch.wait_all(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    auto& h = handles[static_cast<std::size_t>(i)];
    EXPECT_TRUE(h.failed());
    try {
      h.stats();
      FAIL() << "stats() on a cancelled job must rethrow";
    } catch (const run_stopped_error& e) {
      EXPECT_EQ(e.cause(), StopCause::Cancelled);
    }
    expect_sentinel_intact(out[static_cast<std::size_t>(i)]);
  }
}

TEST(BatchControl, ExpiredDeadlineFansOutToEveryQueuedJob) {
  faults::ScheduledFault clock;
  const auto a = random_sparse<double>(1200, 96, 0.01, 22);
  BatchOptions options;
  options.workers = 2;
  options.bounds.deadline_ms = 10.0;
  SketchBatch batch(options);
  clock.advance_ms(20.0);  // the batch deadline passed before any submit
  constexpr int kJobs = 6;
  std::vector<DenseMatrix<double>> out;
  std::vector<JobHandle> handles;
  for (int i = 0; i < kJobs; ++i) out.push_back(sentinel_matrix(40, a.cols()));
  for (int i = 0; i < kJobs; ++i) {
    SketchConfig cfg;
    cfg.d = 40;
    cfg.seed = 200 + static_cast<std::uint64_t>(i);
    handles.push_back(batch.submit(cfg, a, out[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(batch.wait_all(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    try {
      handles[static_cast<std::size_t>(i)].stats();
      FAIL() << "stats() past the batch deadline must rethrow";
    } catch (const run_stopped_error& e) {
      EXPECT_EQ(e.cause(), StopCause::DeadlineExceeded);
    }
    expect_sentinel_intact(out[static_cast<std::size_t>(i)]);
  }
}

TEST(BatchControl, MidStreamCancelLeavesEveryJobCompleteOrUntouched) {
  // Cancel lands while the stream is in flight on one worker. Which jobs it
  // catches is inherently racy; what must hold is that every job ends up
  // EITHER bitwise-complete OR sentinel-untouched — never half-written —
  // and that completion + failure accounts for every job exactly once.
  const auto a = random_sparse<double>(2000, 128, 0.02, 23);
  SketchConfig cfg;
  cfg.d = 64;
  cfg.block_d = 8;  // many outer blocks -> many poll points mid-job
  cfg.block_n = 8;
  DenseMatrix<double> expected;
  sketch_into(cfg, a, expected);

  BatchOptions options;
  options.workers = 1;  // serial pool: a queued tail exists to be cancelled
  SketchBatch batch(options);
  constexpr int kJobs = 16;
  std::vector<DenseMatrix<double>> out;
  std::vector<JobHandle> handles;
  for (int i = 0; i < kJobs; ++i) {
    out.push_back(sentinel_matrix(cfg.d, a.cols()));
  }
  for (int i = 0; i < kJobs; ++i) {
    handles.push_back(batch.submit(cfg, a, out[static_cast<std::size_t>(i)]));
  }
  handles.front().wait();
  batch.cancel();
  const std::size_t failed = batch.wait_all();
  std::size_t completed = 0;
  for (int i = 0; i < kJobs; ++i) {
    auto& h = handles[static_cast<std::size_t>(i)];
    if (h.failed()) {
      try {
        std::rethrow_exception(h.error());
      } catch (const run_stopped_error& e) {
        EXPECT_EQ(e.cause(), StopCause::Cancelled);
      } catch (...) {
        FAIL() << "job " << i << " failed with something other than a stop";
      }
      expect_sentinel_intact(out[static_cast<std::size_t>(i)]);
    } else {
      ++completed;
      expect_bitwise_equal(expected, out[static_cast<std::size_t>(i)]);
    }
  }
  EXPECT_EQ(completed + failed, static_cast<std::size_t>(kJobs));
  EXPECT_GE(completed, 1u);  // job 0 finished before the cancel
}

// ------------------------------------------------------------------ steals --

TEST(BatchSteals, SkewedSubmitKeepsCountersConsistent) {
  perf::set_enabled(true);
  perf::reset();
  const auto a = random_sparse<double>(1200, 96, 0.01, 24);
  BatchOptions options;
  options.workers = 4;
  options.submit_worker = 0;  // test hook: pin every job to worker 0's queue
  SketchBatch batch(options);
  constexpr int kJobs = 16;
  std::vector<DenseMatrix<double>> out;
  for (int i = 0; i < kJobs; ++i) out.emplace_back(40, a.cols());
  for (int i = 0; i < kJobs; ++i) {
    SketchConfig cfg;
    cfg.d = 40;
    cfg.seed = 300 + static_cast<std::uint64_t>(i);
    batch.submit(cfg, a, out[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(batch.wait_all(), 0u);
  const auto snap = perf::snapshot();
  EXPECT_EQ(snap.get(perf::Counter::BatchJobs),
            static_cast<std::uint64_t>(kJobs));
  // Stealing volume is scheduling-dependent; its books must balance anyway.
  EXPECT_EQ(snap.get(perf::Counter::BatchSteals), batch.steals());
  EXPECT_LE(batch.steals(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(batch.queue_depth(), 0u);
}

// ------------------------------------------------------------ arena/budget --

TEST(BatchArena, SlabsAreRecycledAcrossJobs) {
  const auto a = random_sparse<double>(2000, 128, 0.02, 25);
  BatchOptions options;
  options.workers = 1;  // serialize so job 2 sees job 1's released slabs
  SketchBatch batch(options);
  SketchConfig cfg;
  cfg.d = 64;
  cfg.kernel = KernelVariant::Jki;  // the conversion allocates real scratch
  DenseMatrix<double> out0(cfg.d, a.cols());
  DenseMatrix<double> out1(cfg.d, a.cols());
  batch.submit(cfg, a, out0).wait();
  EXPECT_GT(batch.arena().slab_allocs(), 0u);
  const std::uint64_t first_allocs = batch.arena().slab_allocs();
  batch.submit(cfg, a, out1).wait();
  EXPECT_EQ(batch.wait_all(), 0u);
  expect_bitwise_equal(out0, out1);  // same cfg + seed -> same sketch
  EXPECT_GT(batch.arena().reuse_hits(), 0u);
  // An identical job needs no new slabs at all.
  EXPECT_EQ(batch.arena().slab_allocs(), first_allocs);
  EXPECT_GT(batch.arena().held_bytes(), 0u);
  batch.arena().trim();
  EXPECT_EQ(batch.arena().held_bytes(), 0u);
}

TEST(BatchBudget, ExhaustionDegradesPerLadderBitwiseClean) {
  const auto a = random_sparse<double>(300, 120, 0.05, 26);
  SketchConfig cfg;
  cfg.d = 40;
  cfg.kernel = KernelVariant::Jki;
  cfg.block_n = 16;  // several vertical blocks -> the conversion has bulk
  cfg.parallel = ParallelOver::DBlocks;
  DenseMatrix<double> unbounded;
  sketch_into(cfg, a, unbounded);

  // Batch budget = exactly the kji/sequential floor: the job's ladder must
  // shed the thread team and the jki conversion (probing remaining_bytes()
  // through the job -> batch control chain), and Â must not move a bit.
  SketchConfig floor_cfg = cfg;
  floor_cfg.kernel = KernelVariant::Kji;
  floor_cfg.parallel = ParallelOver::Sequential;
  const std::size_t floor_bytes =
      sketch_workspace_estimate<double>(floor_cfg, a.rows(), a.cols(), a.nnz());
  BatchOptions options;
  options.workers = 1;
  options.bounds.workspace_budget_bytes = floor_bytes;
  options.large_job_flops = 1.0;  // force the large-job path: keep cfg as-is
  SketchBatch batch(options);
  DenseMatrix<double> degraded(cfg.d, a.cols());
  auto handle = batch.submit(cfg, a, degraded);
  const SketchStats& stats = handle.stats();
  EXPECT_GE(stats.degradations, 1u);
  expect_bitwise_equal(unbounded, degraded);
}

TEST(BatchBudget, OnPressureFailSurfacesBudgetExceeded) {
  const auto a = random_sparse<double>(300, 120, 0.05, 27);
  BatchOptions options;
  options.workers = 1;
  options.bounds.workspace_budget_bytes = 1;  // nothing fits
  SketchBatch batch(options);
  SketchConfig cfg;
  cfg.d = 40;
  cfg.on_pressure = OnPressure::Fail;
  auto out = sentinel_matrix(cfg.d, a.cols());
  auto handle = batch.submit(cfg, a, out);
  EXPECT_TRUE(handle.failed());
  try {
    handle.stats();
    FAIL() << "stats() must rethrow the budget stop";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::BudgetExceeded);
  }
  expect_sentinel_intact(out);
}

// ----------------------------------------------------------- guarded solve --

TEST(BatchGuarded, GuardedSolveRunsAsBatchJob) {
  const auto a = random_sparse<double>(120, 40, 0.3, 2024);
  const auto b = make_least_squares_rhs(a, 7);
  BatchOptions options;
  options.workers = 1;
  SketchBatch batch(options);
  GuardedSapOptions opt;
  GuardedSapResult<double> result;
  auto handle = batch.submit_guarded_solve(opt, a, b, result);
  handle.wait();
  EXPECT_FALSE(handle.failed());
  EXPECT_EQ(result.attempts, 1);
  EXPECT_TRUE(result.result.converged);
  EXPECT_LT(ls_error_metric(a, result.result.x, b), 1e-8);
}

TEST(BatchGuarded, BatchCancelFansIntoGuardedSolve) {
  const auto a = random_sparse<double>(120, 40, 0.3, 2024);
  const auto b = make_least_squares_rhs(a, 7);
  BatchOptions options;
  options.workers = 1;
  SketchBatch batch(options);
  batch.cancel();  // before submit: the job must fail its first poll
  GuardedSapOptions opt;
  GuardedSapResult<double> result;
  auto handle = batch.submit_guarded_solve(opt, a, b, result);
  EXPECT_TRUE(handle.failed());
  try {
    std::rethrow_exception(handle.error());
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), StopCause::Cancelled);
  }
  EXPECT_EQ(result.attempts, 1);  // default-constructed: never touched
  EXPECT_TRUE(result.log.empty());
}

// ------------------------------------------------------------------- trace --

TEST(BatchTrace, ParkedWorkersRetireRingsWithoutLosingSlices) {
  perf::trace::set_output("");
  perf::trace::arm(4096);
  perf::trace::clear();
  const auto a = random_sparse<double>(1200, 96, 0.01, 28);
  constexpr int kJobs = 4;
  {
    BatchOptions options;
    options.workers = 2;
    SketchBatch batch(options);
    std::vector<DenseMatrix<double>> out;
    for (int i = 0; i < kJobs; ++i) out.emplace_back(40, a.cols());
    for (int i = 0; i < kJobs; ++i) {
      SketchConfig cfg;
      cfg.d = 40;
      cfg.seed = 400 + static_cast<std::uint64_t>(i);
      batch.submit(cfg, a, out[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(batch.wait_all(), 0u);
    // Workers are idle (possibly parked, rings retired): the export must
    // still see every job slice exactly once — live and retired records for
    // the same thread must never double-count.
    const perf::Json doc = perf::trace::chrome_trace_json();
    const perf::Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t begins = 0;
    std::size_t ends = 0;
    bool worker_named = false;
    for (std::size_t i = 0; i < events->size(); ++i) {
      const perf::Json& e = events->at(i);
      const perf::Json* name = e.find("name");
      const perf::Json* ph = e.find("ph");
      if (name == nullptr || ph == nullptr) continue;
      if (name->as_string() == "batch/job") {
        if (ph->as_string() == "B") ++begins;
        if (ph->as_string() == "E") ++ends;
      }
      if (name->as_string() == "thread_name" && ph->as_string() == "M") {
        const perf::Json* args = e.find("args");
        if (args != nullptr && args->find("name") != nullptr &&
            args->find("name")->as_string().rfind("pool-worker-", 0) == 0) {
          worker_named = true;
        }
      }
    }
    EXPECT_EQ(begins, static_cast<std::size_t>(kJobs));
    EXPECT_EQ(ends, static_cast<std::size_t>(kJobs));
    // Retiring a parked ring must keep the worker's thread_name metadata.
    EXPECT_TRUE(worker_named);
  }
  // After the pool is torn down the slices must still all be there (the
  // final holder-side retire merges into the same per-tid record instead of
  // duplicating it).
  const perf::Json doc = perf::trace::chrome_trace_json();
  std::size_t begins = 0;
  const perf::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (std::size_t i = 0; i < events->size(); ++i) {
    const perf::Json& e = events->at(i);
    const perf::Json* name = e.find("name");
    const perf::Json* ph = e.find("ph");
    if (name != nullptr && ph != nullptr && name->as_string() == "batch/job" &&
        ph->as_string() == "B") {
      ++begins;
    }
  }
  EXPECT_EQ(begins, static_cast<std::size_t>(kJobs));
  perf::trace::disarm();
  perf::trace::clear();
}

}  // namespace
}  // namespace rsketch
