// Cost-model-driven block scheduler (sketch/schedule.hpp, DESIGN.md §5b).
//
// The load-bearing invariant: the schedule only moves work between threads.
// It executes every (i-block, j-block) exactly once into disjoint output
// panels, so Â must be bitwise identical to the sequential walk at every
// team size — and each team size gets a different LPT partition — for
// every kernel × ISA tier × element type. The rest of the file pins the
// partitioner itself: LPT quality on random costs, determinism, the skew
// bias on block suggestions, and the cost model depending on the input
// alone — no machine probe on the dispatch path.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "dense/microkernel.hpp"
#include "perf/perf.hpp"
#include "sketch/autotune.hpp"
#include "sketch/schedule.hpp"
#include "sketch/sketch.hpp"
#include "sketch/tuner.hpp"
#include "sparse/generate.hpp"
#include "support/parallel.hpp"
#include "support/run_control.hpp"

namespace rsketch {
namespace {

// ----------------------------------------------------------- partitioner --

/// Per-thread loads under `s` for the given cost vector (1.0 per item when
/// costs is empty), plus coverage bookkeeping.
std::vector<double> bin_loads(const BlockSchedule& s,
                              const std::vector<double>& costs) {
  std::vector<double> loads(static_cast<std::size_t>(s.threads()), 0.0);
  for (int t = 0; t < s.threads(); ++t) {
    for (index_t k = s.offsets[static_cast<std::size_t>(t)];
         k < s.offsets[static_cast<std::size_t>(t) + 1]; ++k) {
      const index_t item = s.items[static_cast<std::size_t>(k)];
      loads[static_cast<std::size_t>(t)] +=
          costs.empty() ? 1.0 : costs[static_cast<std::size_t>(item)];
    }
  }
  return loads;
}

/// Every item id in [0, n) appears exactly once, and each thread's list is
/// ascending (the locality contract).
void expect_valid_partition(const BlockSchedule& s, index_t n) {
  ASSERT_EQ(s.items.size(), static_cast<std::size_t>(n));
  ASSERT_GE(s.threads(), 1);
  EXPECT_EQ(s.offsets.front(), 0);
  EXPECT_EQ(s.offsets.back(), n);
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (int t = 0; t < s.threads(); ++t) {
    for (index_t k = s.offsets[static_cast<std::size_t>(t)];
         k < s.offsets[static_cast<std::size_t>(t) + 1]; ++k) {
      ++seen[static_cast<std::size_t>(s.items[static_cast<std::size_t>(k)])];
      if (k > s.offsets[static_cast<std::size_t>(t)]) {
        EXPECT_LT(s.items[static_cast<std::size_t>(k - 1)],
                  s.items[static_cast<std::size_t>(k)]);
      }
    }
  }
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "item " << i;
  }
}

TEST(SchedulePartition, LptQualityOnRandomCosts) {
  // Deterministic LCG: 256 costs in [0.5, 1.5] plus a handful of heavies —
  // the shape LPT is worst at. Greedy LPT guarantees max ≤ 4/3 · optimum;
  // with 256 items in 4 bins it should land well inside 1.2 × mean.
  std::vector<double> costs;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 256; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    costs.push_back(0.5 + static_cast<double>((x >> 33) & 0xffff) / 65536.0);
  }
  costs[7] = 40.0;
  costs[101] = 25.0;
  costs[202] = 25.0;

  const BlockSchedule s = build_balanced_schedule(costs, 4);
  expect_valid_partition(s, static_cast<index_t>(costs.size()));
  const std::vector<double> loads = bin_loads(s, costs);
  const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
  const double mean = total / static_cast<double>(loads.size());
  const double max = *std::max_element(loads.begin(), loads.end());
  EXPECT_LE(max, 1.2 * mean) << "LPT left a bin " << max / mean
                             << "x the mean load";
  EXPECT_NEAR(s.imbalance_est, max / mean, 1e-12);
}

TEST(SchedulePartition, BalancedIsolatesOneDominantItem) {
  // One item worth more than everything else combined: LPT must give it a
  // bin of its own rather than chain it with neighbors.
  std::vector<double> costs(32, 1.0);
  costs[5] = 100.0;
  const BlockSchedule s = build_balanced_schedule(costs, 4);
  expect_valid_partition(s, 32);
  for (int t = 0; t < s.threads(); ++t) {
    const index_t begin = s.offsets[static_cast<std::size_t>(t)];
    const index_t end = s.offsets[static_cast<std::size_t>(t) + 1];
    for (index_t k = begin; k < end; ++k) {
      if (s.items[static_cast<std::size_t>(k)] == 5) {
        EXPECT_EQ(end - begin, 1) << "dominant item shares a bin";
      }
    }
  }
}

TEST(SchedulePartition, DeterministicForFixedCosts) {
  std::vector<double> costs;
  for (int i = 0; i < 61; ++i) {
    costs.push_back(1.0 + static_cast<double>((i * 37) % 11));
  }
  const BlockSchedule a = build_balanced_schedule(costs, 3);
  const BlockSchedule b = build_balanced_schedule(costs, 3);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.imbalance_est, b.imbalance_est);
}

TEST(SchedulePartition, BuildShortCircuitsSequentialAndDegenerate) {
  int cost_calls = 0;
  const auto costs = [&] {
    ++cost_calls;
    return std::vector<double>(8, 1.0);
  };
  // nthreads <= 1: trivial split, the cost model is never consulted.
  BlockSchedule s = build_block_schedule(1, 8, costs);
  expect_valid_partition(s, 8);
  EXPECT_EQ(cost_calls, 0);
  // A real team pays for the estimator exactly once.
  s = build_block_schedule(4, 8, costs);
  expect_valid_partition(s, 8);
  EXPECT_EQ(cost_calls, 1);
}

// ------------------------------------------------------- bitwise identity --

/// Bitwise equality over logical entries (padded tail rows excluded, as in
/// test_simd_equivalence.cpp).
template <typename T>
void expect_bitwise_equal(const DenseMatrix<T>& a, const DenseMatrix<T>& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    ASSERT_EQ(0, std::memcmp(a.col(j), b.col(j),
                             static_cast<std::size_t>(a.rows()) * sizeof(T)))
        << what << ": column " << j << " differs";
  }
}

std::vector<microkernel::Isa> supported_isas() {
  std::vector<microkernel::Isa> out = {microkernel::Isa::Scalar};
  if (microkernel::supported(microkernel::Isa::Avx2)) {
    out.push_back(microkernel::Isa::Avx2);
  }
  if (microkernel::supported(microkernel::Isa::Avx512)) {
    out.push_back(microkernel::Isa::Avx512);
  }
  return out;
}

template <typename T>
void check_parallel_matches_sequential(KernelVariant kernel,
                                       ParallelOver mode) {
  const auto a = random_sparse<T>(150, 60, 0.08, 31);
  for (const microkernel::Isa isa : supported_isas()) {
    SketchConfig cfg;
    cfg.d = 96;
    cfg.seed = 777;
    cfg.kernel = kernel;
    cfg.isa = isa;
    // Odd-ish blocks so block-boundary tails occur and the item count
    // comfortably exceeds the team size.
    cfg.block_d = 40;
    cfg.block_n = 17;

    SketchConfig seq = cfg;
    seq.parallel = ParallelOver::Sequential;
    DenseMatrix<T> want(cfg.d, a.cols());
    const SketchStats ss = sketch_into(seq, a, want);
    // The sequential walk skips the cost model.
    EXPECT_EQ(ss.schedule_imbalance_est, 0.0);

    // Each team size gets its own LPT partition. Forcing the team is valid
    // on a small CI box too: the scheduled walk is team-shrink-safe.
    for (const int threads : {2, 3, 4}) {
      ThreadCountGuard guard(threads);
      SketchConfig par = cfg;
      par.parallel = mode;
      DenseMatrix<T> got(cfg.d, a.cols());
      const SketchStats ps = sketch_into(par, a, got);
      expect_bitwise_equal(
          want, got,
          std::string("kernel=") + to_string(kernel) + " isa=" +
              microkernel::to_string(isa) + " threads=" +
              std::to_string(threads));
      EXPECT_EQ(ps.samples_generated > 0, ss.samples_generated > 0);
      // A real team consulted the cost model.
      EXPECT_GE(ps.schedule_imbalance_est, 1.0);
    }
  }
}

TEST(ScheduleBitwise, KjiDBlocksFloat) {
  check_parallel_matches_sequential<float>(KernelVariant::Kji,
                                           ParallelOver::DBlocks);
}
TEST(ScheduleBitwise, KjiDBlocksDouble) {
  check_parallel_matches_sequential<double>(KernelVariant::Kji,
                                            ParallelOver::DBlocks);
}
TEST(ScheduleBitwise, KjiNBlocksDouble) {
  check_parallel_matches_sequential<double>(KernelVariant::Kji,
                                            ParallelOver::NBlocks);
}
TEST(ScheduleBitwise, JkiDBlocksFloat) {
  check_parallel_matches_sequential<float>(KernelVariant::Jki,
                                           ParallelOver::DBlocks);
}
TEST(ScheduleBitwise, JkiDBlocksDouble) {
  check_parallel_matches_sequential<double>(KernelVariant::Jki,
                                            ParallelOver::DBlocks);
}
TEST(ScheduleBitwise, JkiNBlocksDouble) {
  check_parallel_matches_sequential<double>(KernelVariant::Jki,
                                            ParallelOver::NBlocks);
}

TEST(ScheduleBitwise, SequentialMatchesParallelBalanced) {
  // The ladder invariant extends through the scheduler: thread count and
  // the schedule it implies together still never change a bit.
  ThreadCountGuard guard(4);
  const auto a = random_sparse<double>(200, 80, 0.05, 19);
  SketchConfig cfg;
  cfg.d = 64;
  cfg.seed = 99;
  cfg.block_d = 24;
  cfg.block_n = 13;
  cfg.parallel = ParallelOver::Sequential;
  DenseMatrix<double> seq(cfg.d, a.cols());
  sketch_into(cfg, a, seq);

  cfg.parallel = ParallelOver::DBlocks;
  DenseMatrix<double> par(cfg.d, a.cols());
  sketch_into(cfg, a, par);
  expect_bitwise_equal(seq, par, "sequential vs balanced parallel");
}

// A grid with fewer items than threads is refilled with a narrower b_n: the
// (3000, 500) defaults give this 120-column, d = 200 sketch one item, yet
// all four threads run blocks, the stats report the narrowed b_n, and Â
// keeps every bit of the sequential walk.
TEST(ScheduleBitwise, OneItemKjiGridFillsTheTeam) {
  ThreadCountGuard guard(4);
  const auto a = random_sparse<double>(900, 120, 0.05, 41);
  SketchConfig cfg;
  cfg.d = 200;
  cfg.seed = 4242;
  cfg.parallel = ParallelOver::Sequential;
  DenseMatrix<double> seq;
  EXPECT_EQ(sketch_into(cfg, a, seq).block_n, 120);  // b_n clamped to n

  cfg.parallel = ParallelOver::DBlocks;
  DenseMatrix<double> par;
  perf::set_enabled(true);
  perf::reset();
  const SketchStats st = sketch_into(cfg, a, par);
  const perf::Snapshot snap = perf::snapshot();
  perf::set_enabled(false);
  perf::reset();
  expect_bitwise_equal(seq, par, "one-item grid at 4 threads");
  EXPECT_EQ(st.threads_used, 4);
  EXPECT_EQ(st.block_n, 30);  // ⌈120 / 4⌉: the width that ran is reported
  EXPECT_GE(st.schedule_imbalance_est, 1.0);
  EXPECT_EQ(snap.get(perf::Counter::ScheduleBlocks), 4u);
}

// -------------------------------------------------------------- stopping --

TEST(ScheduleStop, CancelledRunLeavesOutputUntouched) {
  // A cancelled control must stop the scheduled walk at block granularity
  // with the complete-or-untouched guarantee intact (armed runs stage).
  ThreadCountGuard guard(4);
  const auto a = random_sparse<double>(300, 90, 0.05, 7);
  SketchConfig cfg;
  cfg.d = 80;
  cfg.block_d = 16;
  cfg.block_n = 16;
  cfg.parallel = ParallelOver::DBlocks;
  RunControl rc;
  rc.request_cancel();
  cfg.control = &rc;

  DenseMatrix<double> out(cfg.d, a.cols());
  const double sentinel = -12345.5;
  for (index_t j = 0; j < out.cols(); ++j) {
    for (index_t i = 0; i < out.rows(); ++i) out.col(j)[i] = sentinel;
  }
  bool threw = false;
  try {
    sketch_into(cfg, a, out);
  } catch (const run_stopped_error& e) {
    threw = true;
    EXPECT_EQ(e.cause(), StopCause::Cancelled);
  }
  EXPECT_TRUE(threw);
  for (index_t j = 0; j < out.cols(); ++j) {
    for (index_t i = 0; i < out.rows(); ++i) {
      ASSERT_EQ(out.col(j)[i], sentinel) << "output touched at (" << i << ","
                                         << j << ")";
    }
  }
}

// ------------------------------------------------------------- skew bias --

TEST(ScheduleSkew, SingleDenseRowCapsBlockN) {
  // One dense row among otherwise empty ones: max degree = n while the mean
  // is n/m — far past the 8× trigger. The bias must shrink b_n so the dense
  // row's work splits into at least 4 blocks per thread.
  const index_t m = 100;
  const index_t n = 2000;
  std::vector<index_t> col_ptr(static_cast<std::size_t>(n) + 1);
  std::vector<index_t> row_idx(static_cast<std::size_t>(n), 0);
  std::vector<double> values(static_cast<std::size_t>(n), 1.0);
  for (index_t j = 0; j <= n; ++j) {
    col_ptr[static_cast<std::size_t>(j)] = j;
  }
  const CscMatrix<double> a(m, n, std::move(col_ptr), std::move(row_idx),
                            std::move(values));
  const RowDegreeStats stats = row_degree_stats(a);
  EXPECT_GE(stats.max_fraction * static_cast<double>(n),
            kSkewBiasRatio * stats.mean);

  BlockSuggestion s;
  s.block_d = 64;
  s.block_n = n;  // model says "one big slab"
  const BlockSuggestion biased = bias_blocks_for_skew(s, stats, n, 4);
  EXPECT_LE(biased.block_n, ceil_div(n, index_t{16}));
  EXPECT_GE(biased.block_n, 1);
  EXPECT_EQ(biased.block_d, s.block_d);  // only b_n is biased

  // Sequential runs and balanced patterns are left alone.
  EXPECT_EQ(bias_blocks_for_skew(s, stats, n, 1).block_n, n);
  RowDegreeStats flat;
  flat.mean = 10.0;
  flat.max_fraction = 10.0 / static_cast<double>(n);
  EXPECT_EQ(bias_blocks_for_skew(s, flat, n, 4).block_n, n);
}

// ------------------------------------------------------------ cost model --

/// A scaled-down jki_skewed benchmark input: 90% of the nonzeros in the
/// middle third of the columns, so the LPT schedule has real work to
/// move. Ten 60-column slabs by four row blocks (the last one 8 rows).
struct SkewedJki {
  CscMatrix<double> a = abnormal_b<double>(20000, 600, 2e-3, 0.9, 5);
  SketchConfig cfg = [] {
    SketchConfig c;
    c.d = 200;
    c.seed = 9;
    c.kernel = KernelVariant::Jki;
    c.block_d = 64;
    c.block_n = 60;
    c.parallel = ParallelOver::DBlocks;
    return c;
  }();
};

TEST(ScheduleCost, NoProbeOnDispatch) {
  ThreadCountGuard guard(4);
  SkewedJki in;
  DenseMatrix<double> out(in.cfg.d, in.a.cols());
  perf::set_enabled(true);
  perf::reset();
  sketch_into(in.cfg, in.a, out);
  const perf::Snapshot dispatch = perf::snapshot();
  perf::reset();
  SketchConfig tuned = in.cfg;
  autotune_blocks(tuned, in.a);
  const perf::Snapshot tune = perf::snapshot();
  perf::reset();
  SketchConfig model = in.cfg;
  model.tune = TuneMode::Model;
  (void)resolve_tuning(model, in.a);
  const perf::Snapshot resolve = perf::snapshot();
  perf::set_enabled(false);

  // The LPT schedule was built, without timing the machine.
  EXPECT_EQ(dispatch.spans.count("schedule/build"), 1u);
  // The model tuner takes h from model_rng_cost, so it times nothing either.
  EXPECT_EQ(resolve.spans.count("tuner/model"), 1u);
  for (const perf::Snapshot* snap : {&dispatch, &tune, &resolve}) {
    for (const auto& [name, stat] : snap->spans) {
      EXPECT_NE(name.rfind("probe/", 0), 0u) << name << " ran";
    }
  }
}

TEST(ScheduleCost, EstimateIsAFunctionOfTheInput) {
  ThreadCountGuard guard(4);
  SkewedJki in;
  // Block costs are integers d1·(width + columns + 2·nnz), so the LPT loads
  // and hence max/mean are exact: the heaviest of the four threads carries
  // kMaxLoad of kTotalLoad element-traffic units.
  constexpr double kMaxLoad = 3494208.0;
  constexpr double kTotalLoad = 13967600.0;
  for (int rep = 0; rep < 3; ++rep) {
    DenseMatrix<double> out(in.cfg.d, in.a.cols());
    const SketchStats st = sketch_into(in.cfg, in.a, out);
    EXPECT_EQ(st.schedule_imbalance_est, kMaxLoad / (kTotalLoad / 4.0));
  }
}

}  // namespace
}  // namespace rsketch
