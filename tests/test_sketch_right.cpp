// Right-sketching B = A·Sᵀ: correctness against materialized S, blocking
// invariants, sample counting, parallel determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "sketch/sketch.hpp"
#include "sketch/sketch_right.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"
#include "sparse/validate.hpp"
#include "support/parallel.hpp"
#include "testdata/faults.hpp"

namespace rsketch {
namespace {

/// Dense reference Bᵀ = S·Aᵀ (d×m) from the materialized right-sketch S
/// (d×n).
DenseMatrix<double> reference(const SketchConfig& cfg,
                              const CscMatrix<double>& a) {
  const auto s = materialize_S<double>(cfg, a.cols());
  DenseMatrix<double> bt(cfg.d, a.rows());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t c = 0; c < cfg.d; ++c) {
      double acc = 0.0;
      for (index_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * s(c, k);
      bt(c, i) = acc;
    }
  }
  return bt;
}

/// Entries of two equal-shaped matrices whose bytes differ (padding aside).
template <typename T>
int differing_entries(const DenseMatrix<T>& x, const DenseMatrix<T>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return -1;
  int differs = 0;
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      differs += std::memcmp(&x(i, j), &y(i, j), sizeof(T)) != 0;
    }
  }
  return differs;
}

using Combo = std::tuple<Dist, index_t, int>;

class SketchRight : public ::testing::TestWithParam<Combo> {};

TEST_P(SketchRight, MatchesMaterializedProduct) {
  const auto [dist, bd, team] = GetParam();
  const auto a = random_sparse<double>(60, 45, 0.1, 77);
  SketchConfig cfg;
  cfg.d = 24;
  cfg.seed = 9;
  cfg.dist = dist;
  cfg.block_d = bd;

  // Teams of one, two and three threads: three is a real, uneven team even
  // on a two-core machine.
  DenseMatrix<double> bt;
  {
    ThreadCountGuard guard(team);
    sketch_right_into(cfg, a, bt);
  }
  const auto expect = reference(cfg, a);
  ASSERT_EQ(bt.rows(), expect.rows());
  ASSERT_EQ(bt.cols(), expect.cols());
  const double tol = dist == Dist::UniformScaled ? 1e-7 : 1e-10;
  EXPECT_LT(bt.max_abs_diff(expect), tol);

  // The parallel run is the sequential run, bit for bit.
  SketchConfig seq = cfg;
  seq.parallel = ParallelOver::Sequential;
  DenseMatrix<double> want;
  sketch_right_into(seq, a, want);
  EXPECT_EQ(0, differing_entries(want, bt))
      << "differs from the sequential run";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SketchRight,
    ::testing::Combine(::testing::Values(Dist::PmOne, Dist::Uniform,
                                         Dist::UniformScaled, Dist::Gaussian),
                       ::testing::Values(index_t{24}, index_t{7}, index_t{1}),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_bd" +
                         std::to_string(std::get<1>(info.param)) + "_team" +
                         std::to_string(std::get<2>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SketchRight, SampleCountIsDTimesNonemptyColumnsPerBlock) {
  // Reuse across a CSC column means exactly d samples per nonempty column.
  const auto a = abnormal_c<double>(40, 30, 10, 3);  // 3 dense, 27 empty cols
  SketchConfig cfg;
  cfg.d = 16;
  cfg.block_d = 16;
  DenseMatrix<double> bt;
  const auto stats = sketch_right_into(cfg, a, bt);
  EXPECT_EQ(stats.samples_generated, 16u * 3u);
}

TEST(SketchRight, ParallelMatchesSequentialExactly) {
  const auto a = random_sparse<double>(120, 80, 0.05, 5);
  SketchConfig cfg;
  cfg.d = 40;
  cfg.block_d = 8;
  cfg.parallel = ParallelOver::Sequential;
  DenseMatrix<double> seq, par;
  sketch_right_into(cfg, a, seq);
  cfg.parallel = ParallelOver::DBlocks;
  sketch_right_into(cfg, a, par);
  EXPECT_EQ(0, differing_entries(seq, par));
}

/// A·Sᵀ is (S·Aᵀ)ᵀ, and all three add the same products in the same order
/// through the sampler's micro-kernel, so the right sketch must equal both
/// left sketches of Aᵀ byte for byte, on every backend and team size. b_d
/// runs from one row to more than d, 7 and 16 do not divide d = 40.
template <typename T>
int right_differs_from_transposed_left(Dist dist, RngBackend backend,
                                       index_t bd, KernelVariant kernel,
                                       int team) {
  const auto a = random_sparse<T>(300, 60, 0.1, 5);
  SketchConfig cfg;
  cfg.d = 40;
  cfg.block_d = bd;
  cfg.block_n = 16;
  cfg.dist = dist;
  cfg.backend = backend;
  cfg.kernel = kernel;
  ThreadCountGuard guard(team);
  DenseMatrix<T> right;
  sketch_right_into(cfg, a, right);
  DenseMatrix<T> left;
  sketch_into(cfg, transpose(a), left);
  return differing_entries(right, left);
}

TEST(SketchRight, BitwiseTransposeOfLeftSketch) {
  for (const Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled,
                          Dist::Gaussian}) {
    for (const RngBackend backend : {RngBackend::Xoshiro,
                                     RngBackend::XoshiroBatch,
                                     RngBackend::Philox}) {
      for (const index_t bd : {index_t{1}, index_t{7}, index_t{16},
                               index_t{3000}}) {
        for (const KernelVariant kernel :
             {KernelVariant::Kji, KernelVariant::Jki}) {
          for (const int team : {1, 3}) {
            const auto where = [&](std::size_t bytes) {
              return to_string(dist) + " " + to_string(backend) + " bd=" +
                     std::to_string(bd) + " " + to_string(kernel) +
                     " team=" + std::to_string(team) +
                     " sizeof(T)=" + std::to_string(bytes);
            };
            EXPECT_EQ(0, right_differs_from_transposed_left<float>(
                             dist, backend, bd, kernel, team))
                << where(sizeof(float));
            EXPECT_EQ(0, right_differs_from_transposed_left<double>(
                             dist, backend, bd, kernel, team))
                << where(sizeof(double));
          }
        }
      }
    }
  }
}

TEST(SketchRight, PhiloxBlockingIndependent) {
  const auto a = random_sparse<double>(50, 35, 0.15, 6);
  SketchConfig cfg;
  cfg.d = 20;
  cfg.backend = RngBackend::Philox;
  cfg.block_d = 20;
  DenseMatrix<double> b1, b2;
  sketch_right_into(cfg, a, b1);
  cfg.block_d = 3;
  sketch_right_into(cfg, a, b2);
  EXPECT_EQ(0, differing_entries(b1, b2));
}

TEST(SketchRight, NormalizePreservesColumnNormsApproximately) {
  // Rows of B approximate rows of A in norm after normalization.
  const auto a = random_sparse<double>(30, 400, 0.1, 8);
  SketchConfig cfg;
  cfg.d = 320;
  cfg.dist = Dist::PmOne;
  cfg.normalize = true;
  DenseMatrix<double> bt;
  sketch_right_into(cfg, a, bt);
  for (index_t i = 0; i < 10; ++i) {
    double orig = 0.0, sk = 0.0;
    for (index_t k = 0; k < a.cols(); ++k) orig += a.at(i, k) * a.at(i, k);
    for (index_t c = 0; c < cfg.d; ++c) {
      const double v = bt(c, i);
      sk += v * v;
    }
    if (orig == 0.0) continue;
    EXPECT_NEAR(std::sqrt(sk / orig), 1.0, 0.35) << "row " << i;
  }
}

TEST(SketchRight, EmptyAndInvalidInputs) {
  CscMatrix<double> empty(10, 0);
  SketchConfig cfg;
  cfg.d = 4;
  DenseMatrix<double> bt;
  sketch_right_into(cfg, empty, bt);
  ASSERT_EQ(bt.rows(), 4);
  ASSERT_EQ(bt.cols(), 10);
  for (index_t i = 0; i < 10; ++i) {
    for (index_t c = 0; c < 4; ++c) EXPECT_EQ(bt(c, i), 0.0);
  }

  const auto a = random_sparse<double>(5, 5, 0.5, 1);
  cfg.block_d = 0;
  EXPECT_THROW(sketch_right_into(cfg, a, bt), invalid_argument_error);
}

TEST(SketchRight, CheckInputsRejectsCorruptInput) {
  const auto clean = random_sparse<double>(60, 20, 0.2, 5);
  // A value fault (not structural): safe to execute unvalidated, so the test
  // can show the default path really skips the scan.
  const auto bad = faults::corrupt_csc(clean, faults::CscFault::NanPayload, 1);
  SketchConfig cfg;
  cfg.d = 16;
  DenseMatrix<double> bt;
  // Off by default: the hot path never validates.
  EXPECT_NO_THROW(sketch_right_into(cfg, bad, bt));
  cfg.check_inputs = true;
  EXPECT_THROW(sketch_right_into(cfg, bad, bt), validation_error);
  EXPECT_NO_THROW(sketch_right_into(cfg, clean, bt));
}

}  // namespace
}  // namespace rsketch
