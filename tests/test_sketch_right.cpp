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

/// Dense reference B = A·Sᵀ from the materialized right-sketch S (d×n).
std::vector<double> reference(const SketchConfig& cfg,
                              const CscMatrix<double>& a) {
  const auto s = materialize_S<double>(cfg, a.cols());
  std::vector<double> b(static_cast<std::size_t>(a.rows() * cfg.d), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t c = 0; c < cfg.d; ++c) {
      double acc = 0.0;
      for (index_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * s(c, k);
      b[static_cast<std::size_t>(i * cfg.d + c)] = acc;
    }
  }
  return b;
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
  std::vector<double> b;
  {
    ThreadCountGuard guard(team);
    sketch_right_into(cfg, a, b);
  }
  const auto expect = reference(cfg, a);
  ASSERT_EQ(b.size(), expect.size());
  double max_diff = 0.0;
  for (std::size_t p = 0; p < b.size(); ++p) {
    max_diff = std::max(max_diff, std::abs(b[p] - expect[p]));
  }
  const double tol = dist == Dist::UniformScaled ? 1e-7 : 1e-10;
  EXPECT_LT(max_diff, tol);

  // The parallel run is the sequential run, bit for bit.
  SketchConfig seq = cfg;
  seq.parallel = ParallelOver::Sequential;
  std::vector<double> want;
  sketch_right_into(seq, a, want);
  ASSERT_EQ(want.size(), b.size());
  EXPECT_EQ(0, std::memcmp(want.data(), b.data(), b.size() * sizeof(double)))
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
  std::vector<double> b;
  const auto stats = sketch_right_into(cfg, a, b);
  EXPECT_EQ(stats.samples_generated, 16u * 3u);
}

TEST(SketchRight, ParallelMatchesSequentialExactly) {
  const auto a = random_sparse<double>(120, 80, 0.05, 5);
  SketchConfig cfg;
  cfg.d = 40;
  cfg.block_d = 8;
  cfg.parallel = ParallelOver::Sequential;
  std::vector<double> seq, par;
  sketch_right_into(cfg, a, seq);
  cfg.parallel = ParallelOver::DBlocks;
  sketch_right_into(cfg, a, par);
  EXPECT_EQ(seq, par);
}

/// A·Sᵀ is (S·Aᵀ)ᵀ, and both sides add the same products in the same order
/// through the same micro-kernel axpy, so the right sketch must equal the
/// transposed left sketch byte for byte (b_d = 16 does not divide d = 40).
template <typename T>
void expect_right_is_transposed_left(Dist dist) {
  const auto a = random_sparse<T>(300, 60, 0.1, 5);
  SketchConfig cfg;
  cfg.d = 40;
  cfg.block_d = 16;
  cfg.dist = dist;
  cfg.kernel = KernelVariant::Kji;
  std::vector<T> right;
  sketch_right_into(cfg, a, right);
  DenseMatrix<T> left;
  sketch_into(cfg, transpose(a), left);
  int differs = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t c = 0; c < cfg.d; ++c) {
      differs += std::memcmp(&right[static_cast<std::size_t>(i * cfg.d + c)],
                             &left(c, i), sizeof(T)) != 0;
    }
  }
  EXPECT_EQ(differs, 0) << to_string(dist) << " sizeof(T)=" << sizeof(T);
}

TEST(SketchRight, BitwiseTransposeOfLeftSketch) {
  for (const Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled,
                          Dist::Gaussian}) {
    expect_right_is_transposed_left<float>(dist);
    expect_right_is_transposed_left<double>(dist);
  }
}

TEST(SketchRight, PhiloxBlockingIndependent) {
  const auto a = random_sparse<double>(50, 35, 0.15, 6);
  SketchConfig cfg;
  cfg.d = 20;
  cfg.backend = RngBackend::Philox;
  cfg.block_d = 20;
  std::vector<double> b1, b2;
  sketch_right_into(cfg, a, b1);
  cfg.block_d = 3;
  sketch_right_into(cfg, a, b2);
  for (std::size_t p = 0; p < b1.size(); ++p) {
    ASSERT_NEAR(b1[p], b2[p], 1e-12);
  }
}

TEST(SketchRight, NormalizePreservesColumnNormsApproximately) {
  // Rows of B approximate rows of A in norm after normalization.
  const auto a = random_sparse<double>(30, 400, 0.1, 8);
  SketchConfig cfg;
  cfg.d = 320;
  cfg.dist = Dist::PmOne;
  cfg.normalize = true;
  std::vector<double> b;
  sketch_right_into(cfg, a, b);
  for (index_t i = 0; i < 10; ++i) {
    double orig = 0.0, sk = 0.0;
    for (index_t k = 0; k < a.cols(); ++k) orig += a.at(i, k) * a.at(i, k);
    for (index_t c = 0; c < cfg.d; ++c) {
      const double v = b[static_cast<std::size_t>(i * cfg.d + c)];
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
  std::vector<double> b;
  sketch_right_into(cfg, empty, b);
  EXPECT_EQ(b.size(), 40u);
  for (double v : b) EXPECT_EQ(v, 0.0);

  const auto a = random_sparse<double>(5, 5, 0.5, 1);
  cfg.block_d = 0;
  EXPECT_THROW(sketch_right_into(cfg, a, b), invalid_argument_error);
}

TEST(SketchRight, CheckInputsRejectsCorruptInput) {
  const auto clean = random_sparse<double>(60, 20, 0.2, 5);
  // A value fault (not structural): safe to execute unvalidated, so the test
  // can show the default path really skips the scan.
  const auto bad = faults::corrupt_csc(clean, faults::CscFault::NanPayload, 1);
  SketchConfig cfg;
  cfg.d = 16;
  std::vector<double> b;
  // Off by default: the hot path never validates.
  EXPECT_NO_THROW(sketch_right_into(cfg, bad, b));
  cfg.check_inputs = true;
  EXPECT_THROW(sketch_right_into(cfg, bad, b), validation_error);
  EXPECT_NO_THROW(sketch_right_into(cfg, clean, b));
}

}  // namespace
}  // namespace rsketch
