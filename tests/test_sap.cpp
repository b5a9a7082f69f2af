// The sketch-and-precondition pipeline (§V-C): accuracy, iteration counts,
// SVD path on near-singular problems, and workspace accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "solvers/least_squares.hpp"
#include "solvers/sap.hpp"
#include "solvers/sparse_qr.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "rng/xoshiro.hpp"
#include "sparse/generate.hpp"
#include "support/parallel.hpp"

namespace rsketch {
namespace {

SapOptions default_options() {
  SapOptions o;
  o.gamma = 2.0;
  o.lsqr_max_iter = 500;
  return o;
}

TEST(SapQr, ReachesDirectMethodAccuracy) {
  const auto a = random_sparse<double>(800, 40, 0.1, 1);
  const auto b = make_least_squares_rhs(a, 2);
  const auto res = sap_solve(a, b, default_options());
  EXPECT_TRUE(res.converged);
  EXPECT_LT(ls_error_metric(a, res.x, b), 1e-12);
}

/// Ill-conditioning that COLUMN scaling cannot repair and that has NO
/// spectral clustering for Krylov methods to exploit: a 1-D Laplacian
/// (second-difference) block, cond ≈ (2n/π)², all column norms equal, with
/// tall padding rows so the problem is overdetermined.
CscMatrix<double> laplacian_tall_matrix(index_t m, index_t n,
                                        std::uint64_t seed) {
  CooMatrix<double> coo(m, n);
  for (index_t j = 0; j < n; ++j) {
    if (j > 0) coo.push(j - 1, j, -1.0);
    coo.push(j, j, 2.0);
    if (j + 1 < n) coo.push(j + 1, j, -1.0);
  }
  // Tiny random entries in the padding rows keep the matrix tall without
  // changing the conditioning profile.
  Xoshiro256pp g(seed);
  for (index_t i = n; i < m; i += 7) {
    const index_t j = static_cast<index_t>(g.next() % static_cast<std::uint64_t>(n));
    coo.push(i, j, 1e-3);
  }
  return coo_to_csc(coo);
}

TEST(SapQr, IterationCountIsSmallAndPredictable) {
  // The paper (Table IX): SAP's LSQR converges in a near-constant number of
  // iterations regardless of the matrix, and far faster than LSQR-D on
  // problems whose conditioning diagonal scaling cannot repair.
  const auto hard = laplacian_tall_matrix(1500, 50, 3);
  const auto b = make_least_squares_rhs(hard, 5);

  const auto sap = sap_solve(hard, b, default_options());
  LsqrOptions lo;
  lo.tol = 1e-14;
  lo.max_iter = 20000;
  const auto lsqrd = lsqr_diag_precond(hard, b, lo);

  EXPECT_TRUE(sap.converged);
  EXPECT_LT(sap.iterations, 250);
  EXPECT_LT(sap.iterations * 2, lsqrd.iterations)
      << "SAP should need far fewer iterations than LSQR-D here";

  // Predictability: an easy problem needs a similar SAP iteration count.
  const auto easy = random_sparse<double>(1500, 50, 0.05, 7);
  const auto b2 = make_least_squares_rhs(easy, 8);
  const auto sap_easy = sap_solve(easy, b2, default_options());
  EXPECT_LT(std::abs(static_cast<long>(sap.iterations) -
                     static_cast<long>(sap_easy.iterations)),
            80);
}

TEST(SapQr, MatchesSparseQrSolution) {
  const auto a = random_sparse<double>(600, 30, 0.08, 6);
  const auto b = make_least_squares_rhs(a, 7);
  const auto sap = sap_solve(a, b, default_options());
  const auto direct = sparse_qr_least_squares(a, b.data());
  for (index_t j = 0; j < 30; ++j) {
    EXPECT_NEAR(sap.x[j], direct.x[j],
                1e-6 * (std::fabs(direct.x[j]) + 1.0));
  }
}

TEST(SapSvd, HandlesNearRankDeficiency) {
  // Near-duplicate columns defeat SAP-QR's triangular solve but SAP-SVD's
  // σ-truncation must still produce an optimal-residual solution.
  auto base = random_sparse<double>(700, 28, 0.1, 8);
  const auto a = append_near_duplicate_cols(base, 4, 1e-14, 9);
  const auto b = make_least_squares_rhs(a, 10);

  auto opt = default_options();
  opt.factor = SapFactor::SVD;
  const auto res = sap_solve(a, b, opt);
  EXPECT_LT(res.rank, a.cols()) << "truncation should have dropped columns";
  EXPECT_LT(ls_error_metric(a, res.x, b), 1e-10);
}

TEST(SapSvd, FullRankProblemKeepsAllColumns) {
  const auto a = random_sparse<double>(500, 20, 0.15, 11);
  const auto b = make_least_squares_rhs(a, 12);
  auto opt = default_options();
  opt.factor = SapFactor::SVD;
  const auto res = sap_solve(a, b, opt);
  EXPECT_EQ(res.rank, 20);
  EXPECT_LT(ls_error_metric(a, res.x, b), 1e-11);
}

TEST(Sap, TimingBreakdownAndWorkspaceReported) {
  const auto a = random_sparse<double>(900, 35, 0.06, 13);
  const auto b = make_least_squares_rhs(a, 14);
  const auto res = sap_solve(a, b, default_options());
  EXPECT_GT(res.sketch_seconds, 0.0);
  EXPECT_GT(res.factor_seconds, 0.0);
  EXPECT_GT(res.lsqr_seconds, 0.0);
  EXPECT_GE(res.total_seconds, res.sketch_seconds);
  // Workspace ≈ d·n sketch + n² factor: must dominate the tracker's floor.
  EXPECT_GT(res.workspace_bytes, static_cast<std::size_t>(70 * 35) * 8);
}

TEST(Sap, WorksWithJkiKernelAndPmOne) {
  const auto a = random_sparse<double>(600, 24, 0.1, 15);
  const auto b = make_least_squares_rhs(a, 16);
  auto opt = default_options();
  opt.kernel = KernelVariant::Jki;
  opt.dist = Dist::PmOne;
  const auto res = sap_solve(a, b, opt);
  EXPECT_LT(ls_error_metric(a, res.x, b), 1e-12);
}

TEST(Sap, InvalidInputsThrow) {
  const auto wide = random_sparse<double>(10, 20, 0.3, 17);
  std::vector<double> b(10, 1.0);
  EXPECT_THROW(sap_solve(wide, b, default_options()), invalid_argument_error);

  const auto tall = random_sparse<double>(30, 5, 0.3, 18);
  std::vector<double> short_b(10, 1.0);
  EXPECT_THROW(sap_solve(tall, short_b, default_options()),
               invalid_argument_error);

  std::vector<double> ok_b(30, 1.0);
  auto opt = default_options();
  opt.gamma = 0.9;
  EXPECT_THROW(sap_solve(tall, ok_b, opt), invalid_argument_error);
}

TEST(Sap, DeterministicForFixedSeed) {
  const auto a = random_sparse<double>(400, 16, 0.12, 19);
  const auto b = make_least_squares_rhs(a, 20);
  const auto r1 = sap_solve(a, b, default_options());
  const auto r2 = sap_solve(a, b, default_options());
  EXPECT_EQ(r1.iterations, r2.iterations);
  for (index_t j = 0; j < 16; ++j) EXPECT_DOUBLE_EQ(r1.x[j], r2.x[j]);
}

// An exactly empty column makes R singular. The solve must say so as a
// numeric failure before LSQR starts, not as a usage error from the first
// zero pivot of the triangular solve; the SVD factor still solves it.
TEST(Sap, RankDeficientQrSketchIsANumericError) {
  CscMatrix<double> a(6, 3, {0, 4, 8, 8}, {0, 1, 2, 5, 0, 3, 4, 5},
                      {1.0, 2.0, -1.0, 3.0, 0.25, 1.5, 0.5, -2.0});
  const std::vector<double> b = {1.0, 0.0, 2.0, -1.0, 0.5, 1.0};
  try {
    sap_solve(a, b, default_options());
    FAIL() << "a singular R must throw";
  } catch (const numeric_error& e) {
    EXPECT_NE(std::string(e.what()).find("--svd"), std::string::npos)
        << e.what();
  }
  auto opt = default_options();
  opt.factor = SapFactor::SVD;
  const auto res = sap_solve(a, b, opt);
  EXPECT_EQ(res.rank, 2);
  EXPECT_EQ(res.x[2], 0.0);

  // An all-zero A leaves even the SVD factor with rank 0; the message then
  // does not send the caller to the factor they already use.
  const CscMatrix<double> zero(6, 3);
  try {
    sap_solve(zero, b, opt);
    FAIL() << "an SVD rank of 0 must throw";
  } catch (const numeric_error& e) {
    EXPECT_NE(std::string(e.what()).find("numerically zero"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(std::string(e.what()).find("--svd"), std::string::npos)
        << e.what();
  }
}

// The team-parallel sketch, A·v and R⁻ᵀ solve leave x's bits alone: the
// 60000×500 (ρ = 1e-2, γ = 2) solve gives the same x at 1 to 4 threads.
TEST(Sap, SolutionIsBitwiseIndependentOfTeamSize) {
  const auto a = random_sparse<double>(60000, 500, 1e-2, 61);
  const auto b = make_least_squares_rhs(a, 62);
  SapOptions opt;
  std::vector<double> want;
  for (const int threads : {1, 2, 3, 4}) {
    ThreadCountGuard guard(threads);
    const auto res = sap_solve(a, b, opt);
    ASSERT_TRUE(res.converged);
    if (want.empty()) {
      want = res.x;
      continue;
    }
    EXPECT_EQ(std::memcmp(want.data(), res.x.data(),
                          want.size() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rsketch
