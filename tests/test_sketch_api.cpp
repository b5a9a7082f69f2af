// End-to-end correctness of the public sketching API: every kernel ×
// distribution × backend × blocking × team size must equal the explicit
// product with the materialized S, and its parallel run must equal its
// sequential run byte for byte; baselines and the streaming scheme must agree with the
// blocked kernels.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "sketch/baselines.hpp"
#include "sketch/sketch.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"
#include "support/parallel.hpp"

namespace rsketch {
namespace {

/// Reference Â via the Eigen-style baseline against materialized S — an
/// independent code path from the on-the-fly kernels.
DenseMatrix<double> reference(const SketchConfig& cfg,
                              const CscMatrix<double>& a) {
  const DenseMatrix<double> s = materialize_S<double>(cfg, a.rows());
  DenseMatrix<double> out;
  baseline_eigen_style(s, a, out);
  return out;
}

using ApiCombo =
    std::tuple<KernelVariant, Dist, RngBackend, index_t, index_t, int>;

class SketchApi : public ::testing::TestWithParam<ApiCombo> {};

TEST_P(SketchApi, MatchesMaterializedProduct) {
  const auto [kernel, dist, backend, bd, bn, team] = GetParam();
  const auto a = random_sparse<double>(150, 60, 0.07, 99);
  SketchConfig cfg;
  cfg.d = 50;
  cfg.seed = 1357;
  cfg.dist = dist;
  cfg.backend = backend;
  cfg.kernel = kernel;
  cfg.block_d = bd;
  cfg.block_n = bn;

  // Teams of one, two and three threads: three is a real, uneven team even
  // on a two-core machine.
  DenseMatrix<double> got(cfg.d, a.cols());
  {
    ThreadCountGuard guard(team);
    sketch_into(cfg, a, got);
  }
  const auto expect = reference(cfg, a);

  // Tolerance scaled by the distribution's magnitude (the scaling trick's
  // raw values are ~2^31 before the post-scale).
  const double tol = dist == Dist::UniformScaled ? 1e-8 : 1e-10;
  EXPECT_LT(got.max_abs_diff(expect), tol * (a.density() * a.rows() + 1.0));

  // The team and its schedule only move work between threads: the parallel
  // run is the sequential run, bit for bit.
  SketchConfig seq = cfg;
  seq.parallel = ParallelOver::Sequential;
  DenseMatrix<double> want(cfg.d, a.cols());
  sketch_into(seq, a, want);
  for (index_t j = 0; j < a.cols(); ++j) {
    ASSERT_EQ(0, std::memcmp(want.col(j), got.col(j),
                             static_cast<std::size_t>(cfg.d) * sizeof(double)))
        << "column " << j << " differs from the sequential run";
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsByConfig, SketchApi,
    ::testing::Combine(
        ::testing::Values(KernelVariant::Kji, KernelVariant::Jki),
        ::testing::Values(Dist::PmOne, Dist::Uniform, Dist::UniformScaled,
                          Dist::Gaussian),
        ::testing::Values(RngBackend::XoshiroBatch, RngBackend::Philox),
        ::testing::Values(index_t{50}, index_t{16}, index_t{7}),
        ::testing::Values(index_t{60}, index_t{13}),
        ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<ApiCombo>& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_" +
                         to_string(std::get<1>(info.param)) + "_" +
                         to_string(std::get<2>(info.param)) + "_bd" +
                         std::to_string(std::get<3>(info.param)) + "_bn" +
                         std::to_string(std::get<4>(info.param)) + "_team" +
                         std::to_string(std::get<5>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SketchApi, SketchByValueEqualsInto) {
  const auto a = random_sparse<double>(80, 30, 0.1, 5);
  SketchConfig cfg;
  cfg.d = 24;
  cfg.block_d = 10;
  cfg.block_n = 8;
  const auto by_value = sketch(cfg, a);
  DenseMatrix<double> into;
  sketch_into(cfg, a, into);
  EXPECT_EQ(by_value.max_abs_diff(into), 0.0);
}

TEST(SketchApi, SeedChangesResult) {
  const auto a = random_sparse<double>(80, 30, 0.1, 5);
  SketchConfig cfg;
  cfg.d = 24;
  auto s1 = sketch(cfg, a);
  cfg.seed ^= 0xDEAD;
  auto s2 = sketch(cfg, a);
  EXPECT_GT(s1.max_abs_diff(s2), 1e-6);
}

TEST(SketchApi, NormalizeScalesOutput) {
  const auto a = random_sparse<double>(100, 20, 0.2, 6);
  SketchConfig cfg;
  cfg.d = 40;
  cfg.dist = Dist::PmOne;
  const auto raw = sketch(cfg, a);
  cfg.normalize = true;
  const auto normed = sketch(cfg, a);
  // PmOne second moment is 1 → scale is 1/sqrt(d).
  const double scale = 1.0 / std::sqrt(40.0);
  for (index_t j = 0; j < 20; ++j) {
    for (index_t i = 0; i < 40; ++i) {
      EXPECT_NEAR(normed(i, j), raw(i, j) * scale, 1e-12);
    }
  }
}

TEST(SketchApi, ScalingTrickMatchesUniformSketch) {
  // (Sf)(A) computed via UniformScaled + post-scale must equal the Uniform
  // sketch exactly (the 2^-31 factor is a power of two).
  const auto a = random_sparse<double>(90, 25, 0.12, 7);
  SketchConfig cfg;
  cfg.d = 30;
  cfg.dist = Dist::Uniform;
  const auto uniform = sketch(cfg, a);
  cfg.dist = Dist::UniformScaled;
  const auto trick = sketch(cfg, a);
  EXPECT_LT(uniform.max_abs_diff(trick), 1e-9);
}

TEST(SketchApi, JkiConversionTimeReported) {
  const auto a = random_sparse<double>(200, 80, 0.05, 8);
  SketchConfig cfg;
  cfg.d = 60;
  cfg.kernel = KernelVariant::Jki;
  cfg.block_n = 16;
  DenseMatrix<double> out;
  const SketchStats stats = sketch_into(cfg, a, out);
  EXPECT_GT(stats.convert_seconds, 0.0);
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.samples_generated, 0u);
}

TEST(SketchApi, PrepartitionedMatchesOneShot) {
  const auto a = random_sparse<double>(150, 50, 0.08, 9);
  SketchConfig cfg;
  cfg.d = 45;
  cfg.kernel = KernelVariant::Jki;
  cfg.block_n = 11;
  cfg.block_d = 20;
  DenseMatrix<double> one_shot;
  sketch_into(cfg, a, one_shot);

  const auto ab = BlockedCsr<double>::from_csc(a, cfg.block_n);
  DenseMatrix<double> pre;
  sketch_into_prepartitioned(cfg, ab, pre);
  EXPECT_EQ(one_shot.max_abs_diff(pre), 0.0);
}

TEST(SketchApi, StreamingEqualsBlockedKernels) {
  const auto a = random_sparse<double>(120, 45, 0.1, 10);
  SketchConfig cfg;
  cfg.d = 36;
  cfg.block_d = 36;
  DenseMatrix<double> blocked;
  sketch_into(cfg, a, blocked);

  const auto a_csr = csc_to_csr(a);
  DenseMatrix<double> streamed;
  baseline_streaming(cfg, a_csr, streamed);
  EXPECT_EQ(blocked.max_abs_diff(streamed), 0.0);
}

TEST(SketchApi, PhiloxIsBlockingIndependent) {
  // With the Philox backend, two completely different blockings must produce
  // the SAME sketch — the RandBLAS-style reproducibility guarantee.
  const auto a = random_sparse<double>(100, 40, 0.1, 11);
  SketchConfig cfg;
  cfg.d = 32;
  cfg.backend = RngBackend::Philox;
  cfg.block_d = 32;
  cfg.block_n = 40;
  const auto s1 = sketch(cfg, a);
  cfg.block_d = 5;
  cfg.block_n = 3;
  const auto s2 = sketch(cfg, a);
  cfg.kernel = KernelVariant::Jki;
  cfg.block_d = 9;
  cfg.block_n = 7;
  const auto s3 = sketch(cfg, a);
  EXPECT_LT(s1.max_abs_diff(s2), 1e-10);
  EXPECT_LT(s1.max_abs_diff(s3), 1e-10);
}

TEST(SketchApi, XoshiroBlockingDependentByDesign) {
  const auto a = random_sparse<double>(100, 40, 0.1, 11);
  SketchConfig cfg;
  cfg.d = 32;
  cfg.block_d = 32;
  const auto s1 = sketch(cfg, a);
  cfg.block_d = 5;
  const auto s2 = sketch(cfg, a);
  EXPECT_GT(s1.max_abs_diff(s2), 1e-8);
}

TEST(SketchApi, ThreadCountInvariance) {
  // The parallel run partitions disjoint output blocks; results must not
  // depend on the number of threads.
  const auto a = random_sparse<double>(300, 90, 0.04, 12);
  SketchConfig cfg;
  cfg.d = 66;
  cfg.block_d = 16;
  cfg.block_n = 13;
  cfg.parallel = ParallelOver::DBlocks;
  const auto parallel = sketch(cfg, a);
  cfg.parallel = ParallelOver::Sequential;
  const auto serial = sketch(cfg, a);
  EXPECT_EQ(parallel.max_abs_diff(serial), 0.0);
}

TEST(Baselines, AllThreeAgree) {
  const auto a = random_sparse<double>(70, 35, 0.15, 13);
  SketchConfig cfg;
  cfg.d = 28;
  const auto s = materialize_S<double>(cfg, a.rows());

  DenseMatrix<double> eigen_out, julia_out;
  baseline_eigen_style(s, a, eigen_out);
  baseline_julia_style(s, a, julia_out);
  EXPECT_LT(eigen_out.max_abs_diff(julia_out), 1e-12);

  const auto st = pack_transposed_rowmajor(s);
  std::vector<double> mkl_out;
  baseline_mkl_style(st, a, cfg.d, mkl_out);
  for (index_t k = 0; k < a.cols(); ++k) {
    for (index_t i = 0; i < cfg.d; ++i) {
      EXPECT_NEAR(mkl_out[static_cast<std::size_t>(k * cfg.d + i)],
                  eigen_out(i, k), 1e-10);
    }
  }
}

TEST(SketchApi, EmptyMatrixAndZeroSketch) {
  CscMatrix<double> empty(50, 0);
  SketchConfig cfg;
  cfg.d = 10;
  DenseMatrix<double> out;
  sketch_into(cfg, empty, out);
  EXPECT_EQ(out.cols(), 0);

  const auto a = random_sparse<double>(20, 10, 0.3, 14);
  cfg.d = 0;
  sketch_into(cfg, a, out);
  EXPECT_EQ(out.rows(), 0);
}

TEST(SketchApi, InvalidConfigThrows) {
  const auto a = random_sparse<double>(20, 10, 0.3, 14);
  SketchConfig cfg;
  cfg.d = 8;
  cfg.block_d = 0;
  DenseMatrix<double> out;
  EXPECT_THROW(sketch_into(cfg, a, out), invalid_argument_error);
  cfg.block_d = 4;
  cfg.block_n = -1;
  EXPECT_THROW(sketch_into(cfg, a, out), invalid_argument_error);
}

TEST(SketchApi, GflopsReported) {
  const auto a = random_sparse<double>(400, 100, 0.05, 15);
  SketchConfig cfg;
  cfg.d = 64;
  DenseMatrix<double> out;
  const auto stats = sketch_into(cfg, a, out);
  EXPECT_GT(stats.gflops, 0.0);
}

}  // namespace
}  // namespace rsketch
