// Machine probes and the model-driven autotuner.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/machine.hpp"
#include "sketch/autotune.hpp"
#include "sketch/outer_blocking.hpp"
#include "sparse/generate.hpp"

namespace rsketch {
namespace {

TEST(Stream, ReportsPositiveBandwidth) {
  const auto r = stream_benchmark(1 << 18, 2);
  EXPECT_GT(r.copy_gbps, 0.0);
  EXPECT_GT(r.scale_gbps, 0.0);
  EXPECT_GT(r.add_gbps, 0.0);
  EXPECT_GT(r.triad_gbps, 0.0);
}

TEST(Stream, InvalidArgsThrow) {
  EXPECT_THROW(stream_benchmark(0, 1), invalid_argument_error);
  EXPECT_THROW(stream_benchmark(100, 0), invalid_argument_error);
}

TEST(RngThroughput, PositiveAndOrderedByCost) {
  const double pm1 =
      rng_throughput(Dist::PmOne, RngBackend::XoshiroBatch, 10000, 20);
  const double gauss =
      rng_throughput(Dist::Gaussian, RngBackend::XoshiroBatch, 10000, 20);
  EXPECT_GT(pm1, 0.0);
  EXPECT_GT(gauss, 0.0);
  // ±1 extraction is far cheaper than Box–Muller.
  EXPECT_GT(pm1, gauss);
}

TEST(RngThroughput, InvalidArgsThrow) {
  EXPECT_THROW(rng_throughput(Dist::Uniform, RngBackend::Xoshiro, 0, 1),
               invalid_argument_error);
}

TEST(MeasureH, PositiveAndGaussianCostsMore) {
  const auto stream = stream_benchmark(1 << 18, 2);
  const double h_pm1 = measure_h(Dist::PmOne, RngBackend::XoshiroBatch, stream);
  const double h_gauss =
      measure_h(Dist::Gaussian, RngBackend::XoshiroBatch, stream);
  EXPECT_GT(h_pm1, 0.0);
  EXPECT_GT(h_gauss, h_pm1);
}

TEST(CacheDetect, ReturnsPlausibleSize) {
  const std::size_t bytes = detect_cache_bytes();
  EXPECT_GE(bytes, std::size_t{16} << 10);   // ≥ 16 KiB
  EXPECT_LE(bytes, std::size_t{1} << 31);    // ≤ 2 GiB
}

TEST(SuggestBlocks, ProducesValidBlocks) {
  const auto s = suggest_blocks(100000, 10000, 30000, 1e-3, 1 << 20, 0.1, 4);
  EXPECT_GE(s.block_d, 1);
  EXPECT_LE(s.block_d, 30000);
  EXPECT_GE(s.block_n, 1);
  EXPECT_LE(s.block_n, 10000);
  EXPECT_GT(s.model_ci, 0.0);
}

TEST(SuggestBlocks, CheapRngPrefersNarrowColumns) {
  // Small h pushes n₁ toward 1 (regenerate instead of reuse); large h pushes
  // n₁ up (amortize generation over wider blocks).
  const auto cheap = suggest_blocks(100000, 10000, 30000, 0.05, 1 << 20, 0.001, 4);
  const auto costly = suggest_blocks(100000, 10000, 30000, 0.05, 1 << 20, 0.9, 4);
  EXPECT_LE(cheap.block_n, costly.block_n);
}

TEST(SuggestBlocks, TinyProblemsStayClamped) {
  // Regression: for m < 64 the cache-constraint optimum lands beyond the
  // matrix, and the old code handed kernels block_d > d / block_n > n (or 0).
  for (const index_t m : {1, 2, 7, 33, 63}) {
    const auto s = suggest_blocks(m, m, m, 0.5, 1 << 20, 0.1, 8);
    EXPECT_GE(s.block_d, 1) << "m=" << m;
    EXPECT_LE(s.block_d, m) << "m=" << m;
    EXPECT_GE(s.block_n, 1) << "m=" << m;
    EXPECT_LE(s.block_n, m) << "m=" << m;
  }
  // Degenerate density: the intensity model divides by rho; the suggestion
  // must still come back clamped instead of overflowing through llround.
  const auto s = suggest_blocks(50, 10, 20, 1e-12, 1 << 20, 0.1, 8);
  EXPECT_GE(s.block_n, 1);
  EXPECT_LE(s.block_n, 10);
  EXPECT_GE(s.block_d, 1);
  EXPECT_LE(s.block_d, 20);
}

TEST(SuggestBlocks, InvalidArgsThrow) {
  EXPECT_THROW(suggest_blocks(10, 0, 5, 0.1, 1024, 0.1, 4),
               invalid_argument_error);
  EXPECT_THROW(suggest_blocks(10, 5, 5, 0.1, 1024, 0.1, 0),
               invalid_argument_error);
}

TEST(AutotuneBlocks, FillsConfig) {
  const auto a = random_sparse<float>(2000, 400, 0.01, 1);
  SketchConfig cfg;
  cfg.d = 1200;
  cfg.block_d = 0;  // will be overwritten
  cfg.block_n = 0;
  autotune_blocks(cfg, a);
  EXPECT_GE(cfg.block_d, 1);
  EXPECT_GE(cfg.block_n, 1);
  EXPECT_LE(cfg.block_n, 400);
}

TEST(AutotuneBlocks, IsAFunctionOfTheInput) {
  // No probe: the same input gives the same blocks on every call, and they
  // are the §III-A suggestion at the table's h.
  const auto a = random_sparse<double>(3000, 300, 5e-3, 7);
  SketchConfig cfg;
  cfg.d = 900;
  cfg.dist = Dist::Uniform;
  cfg.backend = RngBackend::Philox;
  const BlockSuggestion want = bias_blocks_for_skew(
      suggest_blocks(a.rows(), a.cols(), cfg.d, a.density(),
                     detect_cache_bytes(),
                     model_rng_cost(cfg.dist, cfg.backend), sizeof(double)),
      row_degree_stats(a), a.cols(), team_size(cfg));
  for (int rep = 0; rep < 20; ++rep) {
    SketchConfig c = cfg;
    autotune_blocks(c, a);
    EXPECT_EQ(c.block_d, want.block_d) << "call " << rep;
    EXPECT_EQ(c.block_n, want.block_n) << "call " << rep;
  }
}

TEST(AutotuneBlocks, LeavesDegenerateShapesAlone) {
  // Nothing to block: the caller's blocks survive (suggest_blocks would
  // reject n = 0 or d = 0).
  SketchConfig cfg;
  cfg.block_d = 17;
  cfg.block_n = 5;
  cfg.d = 4;
  autotune_blocks(cfg, CscMatrix<double>(5, 0));
  EXPECT_EQ(cfg.block_d, 17);
  EXPECT_EQ(cfg.block_n, 5);
  cfg.d = 0;
  autotune_blocks(cfg, random_sparse<double>(20, 6, 0.3, 1));
  EXPECT_EQ(cfg.block_d, 17);
  EXPECT_EQ(cfg.block_n, 5);
}

TEST(ModelRngCost, TableIsOrderedAsMeasured) {
  const Dist dists[] = {Dist::PmOne, Dist::Uniform, Dist::UniformScaled,
                        Dist::Gaussian, Dist::Junk};
  const RngBackend backends[] = {RngBackend::XoshiroBatch, RngBackend::Xoshiro,
                                 RngBackend::Philox};
  for (const Dist d : dists) {
    for (const RngBackend b : backends) {
      const double h = model_rng_cost(d, b);
      EXPECT_TRUE(std::isfinite(h)) << to_string(d) << "/" << to_string(b);
      EXPECT_GT(h, 0.0) << to_string(d) << "/" << to_string(b);
    }
  }
  // Cheaper distributions cost less on the vectorized backends. (The scalar
  // generator's ±1 path measures slower than its uniform one, so it is not
  // asserted.)
  for (const RngBackend b : {RngBackend::XoshiroBatch, RngBackend::Philox}) {
    EXPECT_LT(model_rng_cost(Dist::PmOne, b), model_rng_cost(Dist::Uniform, b));
    EXPECT_LT(model_rng_cost(Dist::Uniform, b),
              model_rng_cost(Dist::Gaussian, b));
  }
  // Backends order by cost on the uniform streams. (±1 and Gaussian do not:
  // there the per-sample transform, not the generator, sets the rate.)
  for (const Dist d : {Dist::Uniform, Dist::UniformScaled}) {
    EXPECT_LT(model_rng_cost(d, RngBackend::XoshiroBatch),
              model_rng_cost(d, RngBackend::Xoshiro));
    EXPECT_LT(model_rng_cost(d, RngBackend::Xoshiro),
              model_rng_cost(d, RngBackend::Philox));
  }
  static_assert(model_rng_cost(Dist::PmOne, RngBackend::XoshiroBatch) > 0.0);
}

}  // namespace
}  // namespace rsketch
