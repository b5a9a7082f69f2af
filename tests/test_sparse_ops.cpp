// Sparse BLAS-2 operations against dense references.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "sparse/generate.hpp"
#include "sparse/ops.hpp"
#include "support/parallel.hpp"

namespace rsketch {
namespace {

/// Dense reference y = alpha*A*x + beta*y.
std::vector<double> ref_spmv(const CscMatrix<double>& a,
                             const std::vector<double>& x, double alpha,
                             double beta, std::vector<double> y) {
  for (index_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (index_t j = 0; j < a.cols(); ++j) s += a.at(i, j) * x[j];
    y[i] = beta * y[i] + alpha * s;
  }
  return y;
}

TEST(Spmv, MatchesDenseReference) {
  const auto a = random_sparse<double>(40, 25, 0.2, 1);
  std::vector<double> x(25), y(40, 0.5);
  for (index_t j = 0; j < 25; ++j) x[j] = 0.1 * j - 1.0;
  auto expect = ref_spmv(a, x, 2.0, 3.0, y);
  spmv(a, x.data(), y.data(), 2.0, 3.0);
  for (index_t i = 0; i < 40; ++i) EXPECT_NEAR(y[i], expect[i], 1e-12);
}

TEST(Spmv, BetaZeroIgnoresInitialY) {
  const auto a = random_sparse<double>(10, 10, 0.3, 2);
  std::vector<double> x(10, 1.0);
  std::vector<double> y(10, std::nan(""));
  spmv(a, x.data(), y.data());  // beta = 0 must overwrite NaNs
  for (double v : y) EXPECT_FALSE(std::isnan(v));
}

TEST(SpmvTranspose, MatchesDenseReference) {
  const auto a = random_sparse<double>(30, 45, 0.15, 3);
  std::vector<double> x(30), y(45, -1.0);
  for (index_t i = 0; i < 30; ++i) x[i] = std::sin(i);
  std::vector<double> expect(45);
  for (index_t j = 0; j < 45; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < 30; ++i) s += a.at(i, j) * x[i];
    expect[j] = -1.0 * 0.5 + 1.5 * s;
  }
  for (auto& v : y) v = 0.5;
  spmv_transpose(a, x.data(), y.data(), 1.5, -1.0);
  for (index_t j = 0; j < 45; ++j) EXPECT_NEAR(y[j], expect[j], 1e-12);
}

TEST(SpmvAndTranspose, AdjointIdentity) {
  // <A x, y> == <x, Aᵀ y> for random vectors.
  const auto a = random_sparse<double>(50, 35, 0.1, 4);
  std::vector<double> x(35), y(50), ax(50), aty(35);
  for (index_t j = 0; j < 35; ++j) x[j] = 0.3 * j - 5.0;
  for (index_t i = 0; i < 50; ++i) y[i] = std::cos(i);
  spmv(a, x.data(), ax.data());
  spmv_transpose(a, y.data(), aty.data());
  double lhs = 0.0, rhs = 0.0;
  for (index_t i = 0; i < 50; ++i) lhs += ax[i] * y[i];
  for (index_t j = 0; j < 35; ++j) rhs += x[j] * aty[j];
  EXPECT_NEAR(lhs, rhs, 1e-10 * (std::fabs(lhs) + 1.0));
}

TEST(ColumnNorms, MatchesDense) {
  const auto a = random_sparse<double>(60, 12, 0.25, 5);
  const auto norms = column_norms(a);
  for (index_t j = 0; j < 12; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < 60; ++i) s += a.at(i, j) * a.at(i, j);
    EXPECT_NEAR(norms[j], std::sqrt(s), 1e-12);
  }
}

TEST(FrobeniusNorm, MatchesSumOfSquares) {
  const auto a = random_sparse<double>(30, 30, 0.2, 6);
  double s = 0.0;
  for (double v : a.values()) s += v * v;
  EXPECT_NEAR(frobenius_norm(a), std::sqrt(s), 1e-12);
}

TEST(EmptyRowsCols, CountAndDrop) {
  // Build a matrix with known empty row 1 and empty column 2.
  CscMatrix<double> a(4, 3, {0, 2, 4, 4}, {0, 2, 2, 3}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(count_empty_rows(a), 1);  // row 1
  EXPECT_EQ(count_empty_cols(a), 1);  // col 2

  const auto c = drop_empty_cols(a);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c.nnz(), 4);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c.at(3, 1), 4.0);

  const auto r = drop_empty_rows(a);
  EXPECT_EQ(r.rows(), 3);
  EXPECT_EQ(r.nnz(), 4);
  // Former row 2 becomes row 1, former row 3 becomes row 2.
  EXPECT_DOUBLE_EQ(r.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(r.at(2, 1), 4.0);
}

TEST(EmptyRowsCols, NoopWhenNoneEmpty) {
  const auto a = fixed_nnz_per_col<double>(10, 10, 10, 7);  // fully dense cols
  EXPECT_EQ(count_empty_rows(a), 0);
  EXPECT_EQ(count_empty_cols(a), 0);
  const auto c = drop_empty_cols(a);
  EXPECT_EQ(c.cols(), 10);
  const auto r = drop_empty_rows(a);
  EXPECT_EQ(r.rows(), 10);
}

/// The sequential column scatter spmv() must reproduce bit for bit.
void scatter_spmv(const CscMatrix<double>& a, const double* x, double* y,
                  double alpha, double beta) {
  for (index_t i = 0; i < a.rows(); ++i) {
    y[i] = beta == 0.0 ? 0.0 : (beta == 1.0 ? y[i] : y[i] * beta);
  }
  for (index_t j = 0; j < a.cols(); ++j) {
    const double ax = alpha * x[j];
    if (ax == 0.0) continue;
    for (index_t p = a.col_ptr()[j]; p < a.col_ptr()[j + 1]; ++p) {
      y[a.row_idx()[p]] += ax * a.values()[p];
    }
  }
}

/// Column j of `a` emptied (its nonzeros dropped).
CscMatrix<double> without_col(const CscMatrix<double>& a, index_t j) {
  std::vector<index_t> cp{0}, ri;
  std::vector<double> vv;
  for (index_t k = 0; k < a.cols(); ++k) {
    if (k != j) {
      for (index_t p = a.col_ptr()[k]; p < a.col_ptr()[k + 1]; ++p) {
        ri.push_back(a.row_idx()[p]);
        vv.push_back(a.values()[p]);
      }
    }
    cp.push_back(static_cast<index_t>(ri.size()));
  }
  return CscMatrix<double>(a.rows(), a.cols(), std::move(cp), std::move(ri),
                           std::move(vv));
}

// Row-split spmv against the sequential scatter, bit for bit, at every team
// size: fewer rows than threads, a single row, empty columns, and shapes on
// both sides of each cut-off of spmv_splits_rows() (the nonzero count and the
// average column length).
TEST(Spmv, RowSplitIsBitwiseTheSequentialScatter) {
  const index_t cut = kSpmvParallelNnz;
  const index_t col_cut = kSpmvParallelColumnNnz;
  struct Shape {
    std::string name;
    CscMatrix<double> a;
    bool splits;
  };
  const std::vector<Shape> shapes = {
      {"m<T", random_sparse<double>(3, 4 * cut, 0.9, 21), false},
      {"one row", random_sparse<double>(1, 2 * cut, 0.8, 22), false},
      {"below nnz cut", random_sparse<double>(400, 40, 0.5, 23), false},
      {"at both cuts",
       fixed_nnz_per_col<double>(4096, cut / col_cut, col_cut, 24), true},
      {"short columns", random_sparse<double>(2000, 1000, 0.03, 27), false},
      {"above both cuts", random_sparse<double>(6000, 90, 0.05, 25), true},
      {"empty cols", without_col(without_col(random_sparse<double>(
                                                 5000, 60, 0.1, 26), 0), 37),
       true},
  };
  for (const auto& [name, a, splits] : shapes) {
    ASSERT_EQ(spmv_splits_rows(a), splits) << name;
    if (name == "at both cuts") {
      ASSERT_EQ(a.nnz(), cut);
      ASSERT_EQ(a.nnz(), col_cut * a.cols());
    }
    std::vector<double> x(static_cast<std::size_t>(a.cols()));
    for (index_t j = 0; j < a.cols(); ++j) x[j] = std::sin(0.37 * j) - 0.2;
    x[1] = 0.0;  // a skipped column
    std::vector<double> y0(static_cast<std::size_t>(a.rows()));
    for (index_t i = 0; i < a.rows(); ++i) y0[i] = std::cos(0.11 * i);
    for (const double alpha : {0.0, 1.0, 0.5}) {
      for (const double beta : {0.0, 1.0, 0.5}) {
        std::vector<double> want = y0;
        scatter_spmv(a, x.data(), want.data(), alpha, beta);
        for (const int threads : {1, 2, 3, 4}) {
          ThreadCountGuard guard(threads);
          std::vector<double> got = y0;
          spmv(a, x.data(), got.data(), alpha, beta);
          EXPECT_EQ(std::memcmp(want.data(), got.data(),
                                want.size() * sizeof(double)),
                    0)
              << name << " alpha=" << alpha << " beta=" << beta
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(Spmv, ZeroDimensionEdgeCases) {
  CscMatrix<double> a(0, 0);
  spmv<double>(a, nullptr, nullptr);  // must not crash
  CscMatrix<double> b(3, 0);
  std::vector<double> y(3, 1.0);
  spmv<double>(b, nullptr, y.data());
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);  // beta=0 zeroes y
}

}  // namespace
}  // namespace rsketch
