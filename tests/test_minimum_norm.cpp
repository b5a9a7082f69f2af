// Underdetermined minimum-norm SAP solver (paper §V-C footnote 2).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "solvers/minimum_norm.hpp"
#include "solvers/qr.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"
#include "sparse/ops.hpp"

namespace rsketch {
namespace {

SapOptions options() {
  SapOptions o;
  o.gamma = 2.0;
  o.lsqr_tol = 1e-13;
  o.lsqr_max_iter = 2000;
  return o;
}

/// Dense reference minimum-norm solution: x = Aᵀ(AAᵀ)⁻¹b via QR of Aᵀ.
std::vector<double> reference_min_norm(const CscMatrix<double>& a,
                                       const std::vector<double>& b) {
  // Aᵀ = QR (tall). Then x = Q R⁻ᵀ b.
  const auto at = transpose(a);
  DenseMatrix<double> dense(at.rows(), at.cols());
  for (index_t j = 0; j < at.cols(); ++j) {
    for (index_t p = at.col_ptr()[j]; p < at.col_ptr()[j + 1]; ++p) {
      dense(at.row_idx()[p], j) = at.values()[p];
    }
  }
  QrFactor<double> f = qr_factorize(std::move(dense));
  // Solve Rᵀ y = b (forward substitution on the packed factor).
  std::vector<double> y(b);
  const index_t m = a.rows();
  for (index_t j = 0; j < m; ++j) {
    double s = y[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < j; ++i) {
      s -= f.qr(i, j) * y[static_cast<std::size_t>(i)];
    }
    y[static_cast<std::size_t>(j)] = s / f.qr(j, j);
  }
  // x = Q [y; 0].
  std::vector<double> x(static_cast<std::size_t>(a.cols()), 0.0);
  for (index_t i = 0; i < m; ++i) x[static_cast<std::size_t>(i)] = y[static_cast<std::size_t>(i)];
  apply_q(f, x.data());
  return x;
}

CscMatrix<double> wide_matrix(index_t m, index_t n, std::uint64_t seed) {
  // Wide, full row rank (each row guaranteed nonempty by density choice).
  auto at = random_sparse<double>(n, m, 0.25, seed);  // tall n×m then flip
  return transpose(at);
}

TEST(MinNorm, SatisfiesTheConstraints) {
  const auto a = wide_matrix(20, 150, 1);
  std::vector<double> x0(150);
  for (index_t j = 0; j < 150; ++j) x0[static_cast<std::size_t>(j)] = std::sin(0.3 * j);
  std::vector<double> b(20, 0.0);
  spmv(a, x0.data(), b.data());

  const auto res = sap_solve_minimum_norm(a, b, options());
  std::vector<double> ax(20, 0.0);
  spmv(a, res.x.data(), ax.data());
  for (index_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(ax[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)],
                1e-8 * (std::fabs(b[static_cast<std::size_t>(i)]) + 1.0));
  }
}

TEST(MinNorm, MatchesDenseReferenceSolution) {
  const auto a = wide_matrix(15, 90, 2);
  std::vector<double> b(15);
  for (index_t i = 0; i < 15; ++i) b[static_cast<std::size_t>(i)] = 1.0 + 0.2 * i;

  const auto res = sap_solve_minimum_norm(a, b, options());
  const auto ref = reference_min_norm(a, b);
  for (index_t j = 0; j < 90; ++j) {
    EXPECT_NEAR(res.x[static_cast<std::size_t>(j)],
                ref[static_cast<std::size_t>(j)],
                1e-7 * (std::fabs(ref[static_cast<std::size_t>(j)]) + 1.0));
  }
}

TEST(MinNorm, SolutionIsShorterThanAnyParticularSolution) {
  const auto a = wide_matrix(12, 80, 3);
  std::vector<double> x0(80, 0.0);
  for (index_t j = 0; j < 80; j += 3) x0[static_cast<std::size_t>(j)] = 1.0;
  std::vector<double> b(12, 0.0);
  spmv(a, x0.data(), b.data());

  const auto res = sap_solve_minimum_norm(a, b, options());
  double norm_min = 0.0, norm_x0 = 0.0;
  for (index_t j = 0; j < 80; ++j) {
    norm_min += res.x[static_cast<std::size_t>(j)] * res.x[static_cast<std::size_t>(j)];
    norm_x0 += x0[static_cast<std::size_t>(j)] * x0[static_cast<std::size_t>(j)];
  }
  EXPECT_LE(norm_min, norm_x0 + 1e-9);
}

TEST(MinNorm, IterationsFewForWellConditioned) {
  const auto a = wide_matrix(25, 300, 4);
  const std::vector<double> b(25, 1.0);
  // m = 25 is small, so the sketch distortion is far from its asymptotic
  // value; oversample more to keep the preconditioned cond tight.
  auto opt = options();
  opt.gamma = 4.0;
  const auto res = sap_solve_minimum_norm(a, b, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 400);
  EXPECT_GT(res.sketch_seconds, 0.0);
  EXPECT_GT(res.workspace_bytes, 0u);
}

TEST(MinNorm, InvalidInputsThrow) {
  const auto tall = random_sparse<double>(50, 10, 0.3, 5);
  std::vector<double> b(50, 1.0);
  EXPECT_THROW(sap_solve_minimum_norm(tall, b, options()),
               invalid_argument_error);

  const auto wide = wide_matrix(10, 60, 6);
  std::vector<double> short_b(5, 1.0);
  EXPECT_THROW(sap_solve_minimum_norm(wide, short_b, options()),
               invalid_argument_error);

  std::vector<double> ok_b(10, 1.0);
  auto bad = options();
  bad.factor = SapFactor::SVD;
  EXPECT_THROW(sap_solve_minimum_norm(wide, ok_b, bad),
               invalid_argument_error);
}

// A row with no nonzeros makes R of the sketch of Aᵀ singular: a numeric
// failure before LSQR, not a usage error from the triangular solve.
TEST(MinimumNorm, DependentRowsAreANumericError) {
  const auto a = transpose(CscMatrix<double>(
      6, 3, {0, 4, 8, 8}, {0, 1, 2, 5, 0, 3, 4, 5},
      {1.0, 2.0, -1.0, 3.0, 0.25, 1.5, 0.5, -2.0}));
  const std::vector<double> b = {1.0, -1.0, 0.0};
  EXPECT_THROW(sap_solve_minimum_norm(a, b, options()), numeric_error);
}

}  // namespace
}  // namespace rsketch
