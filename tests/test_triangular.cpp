// Triangular solves used by the SAP-QR preconditioner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "solvers/triangular.hpp"

namespace rsketch {
namespace {

DenseMatrix<double> upper_example() {
  // R = [2 1 3; 0 4 1; 0 0 5]
  DenseMatrix<double> r(3, 3);
  r(0, 0) = 2;
  r(0, 1) = 1;
  r(0, 2) = 3;
  r(1, 1) = 4;
  r(1, 2) = 1;
  r(2, 2) = 5;
  return r;
}

TEST(Triangular, SolveUpper) {
  const auto r = upper_example();
  // Pick x, form b = R x, solve back.
  std::vector<double> x = {1.0, -2.0, 3.0};
  std::vector<double> b = {2 * 1 + 1 * -2 + 3 * 3, 4 * -2 + 1 * 3, 5 * 3};
  solve_upper(r, b.data());
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(b[i], x[i], 1e-14);
}

TEST(Triangular, SolveUpperTranspose) {
  const auto r = upper_example();
  std::vector<double> x = {0.5, 2.0, -1.0};
  // b = Rᵀ x.
  std::vector<double> b = {2 * 0.5, 1 * 0.5 + 4 * 2.0,
                           3 * 0.5 + 1 * 2.0 + 5 * -1.0};
  solve_upper_transpose(r, b.data());
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(b[i], x[i], 1e-14);
}

TEST(Triangular, InverseRoundTrip) {
  const auto r = upper_example();
  std::vector<double> v = {1.0, 2.0, 3.0};
  std::vector<double> w = v;
  solve_upper(r, w.data());  // w = R⁻¹ v
  // Multiply back: R w should equal v.
  std::vector<double> back(3, 0.0);
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i <= j; ++i) back[i] += r(i, j) * w[j];
  }
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(back[i], v[i], 1e-13);
}

TEST(Triangular, AdjointConsistency) {
  // <R⁻¹u, v> == <u, R⁻ᵀv>
  const auto r = upper_example();
  std::vector<double> u = {1.0, -1.0, 2.0}, v = {3.0, 0.5, -2.0};
  std::vector<double> riu = u, rtv = v;
  solve_upper(r, riu.data());
  solve_upper_transpose(r, rtv.data());
  double lhs = 0, rhs = 0;
  for (int i = 0; i < 3; ++i) {
    lhs += riu[i] * v[i];
    rhs += u[i] * rtv[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-12);
}

TEST(Triangular, SingularDiagonalThrows) {
  DenseMatrix<double> r(2, 2);
  r(0, 0) = 1.0;
  r(1, 1) = 0.0;
  std::vector<double> b = {1.0, 1.0};
  EXPECT_THROW(solve_upper(r, b.data()), invalid_argument_error);
  EXPECT_THROW(solve_upper_transpose(r, b.data()), invalid_argument_error);
}

TEST(Triangular, OneByOne) {
  DenseMatrix<double> r(1, 1);
  r(0, 0) = 4.0;
  std::vector<double> b = {8.0};
  solve_upper(r, b.data());
  EXPECT_DOUBLE_EQ(b[0], 2.0);
}

/// The one-column-at-a-time forward substitution solve_upper_transpose()
/// must reproduce bit for bit. Out of line, like the library's column loop,
/// so the compiler cannot specialise it to the caller's n.
template <typename T>
[[gnu::noinline]] void column_forward_substitution(const DenseMatrix<T>& r,
                                                   T* x) {
  for (index_t j = 0; j < r.cols(); ++j) {
    const T* rj = r.col(j);
    T s = x[j];
    for (index_t i = 0; i < j; ++i) s -= rj[i] * x[i];
    x[j] = s / rj[j];
  }
}

/// n×n upper triangle with a dominant diagonal and irregular off-diagonals.
template <typename T>
DenseMatrix<T> random_upper(index_t n) {
  DenseMatrix<T> r(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < j; ++i) {
      r(i, j) = static_cast<T>(std::sin(1.3 * i + 0.7 * j) / (1.0 + j));
    }
    r(j, j) = static_cast<T>(1.5 + std::cos(0.9 * j));
  }
  return r;
}

template <typename T>
void check_interleaved_matches_column_loop() {
  for (const index_t n : {0, 1, 7, 8, 9, 63, 64, 65, 500}) {
    const DenseMatrix<T> r = random_upper<T>(n);
    std::vector<T> want(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) want[i] = static_cast<T>(std::cos(0.3 * i));
    std::vector<T> got = want;
    column_forward_substitution(r, want.data());
    solve_upper_transpose(r, got.data());
    if (n == 0) continue;  // nothing to compare, and memcmp wants non-null
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(T)), 0)
        << "n=" << n;
  }
}

TEST(Triangular, TransposeSolveIsBitwiseTheColumnLoopDouble) {
  check_interleaved_matches_column_loop<double>();
}

TEST(Triangular, TransposeSolveIsBitwiseTheColumnLoopFloat) {
  check_interleaved_matches_column_loop<float>();
}

// A zero pivot throws wherever it sits: inside an 8-column group (columns 3
// and 12) or among the trailing columns solved one at a time (column 18).
TEST(Triangular, TransposeSolveThrowsOnEveryZeroPivot) {
  for (const index_t zero : {0, 3, 7, 12, 15, 16, 18}) {
    DenseMatrix<double> r = random_upper<double>(19);
    r(zero, zero) = 0.0;
    std::vector<double> x(19, 1.0);
    EXPECT_THROW(solve_upper_transpose(r, x.data()), invalid_argument_error)
        << "zero pivot at " << zero;
  }
}

}  // namespace
}  // namespace rsketch
