#include "solvers/triangular.hpp"

namespace rsketch {

template <typename T>
void solve_upper(const DenseMatrix<T>& r, T* x) {
  const index_t n = r.cols();
  require(r.rows() >= n, "solve_upper: R must have at least n rows");
  for (index_t j = n - 1; j >= 0; --j) {
    require(r(j, j) != T{0}, "solve_upper: singular R");
    x[j] /= r(j, j);
    const T xj = x[j];
    const T* rj = r.col(j);
    for (index_t i = 0; i < j; ++i) x[i] -= rj[i] * xj;
  }
}

namespace {

/// x[j] := (s - Σ_{i0 ≤ i < j} rj[i]·x[i]) / rj[j], subtracting in ascending
/// i. Kept out of line so this loop compiles to one shape for every caller:
/// with FP contraction on, which of its products the compiler fuses into
/// FMAs depends on what it knows about the trip count, and the solve's bits
/// must not.
template <typename T>
[[gnu::noinline]] void finish_column(const T* rj, index_t i0, index_t j, T s,
                                     T* x) {
  for (index_t i = i0; i < j; ++i) s -= rj[i] * x[i];
  if (rj[j] == T{0}) {
    throw invalid_argument_error("solve_upper_transpose: singular R");
  }
  x[j] = s / rj[j];
}

}  // namespace

template <typename T>
void solve_upper_transpose(const DenseMatrix<T>& r, T* x) {
  const index_t n = r.cols();
  require(r.rows() >= n, "solve_upper_transpose: R must have at least n rows");
  // Forward substitution is one dependent chain per column. Eight columns
  // j0..j0+7 run their chains in lockstep over the solved prefix [0, j0),
  // then each finishes its part of the 8×8 triangle in order. Every chain
  // still subtracts its terms in ascending i, and j0 is a multiple of 8, so
  // the prefix falls on the same vector boundaries as a one-column loop over
  // [0, j): x is bitwise that of the one-column-at-a-time solve.
  index_t j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    const T* r0 = r.col(j0);
    const T* r1 = r.col(j0 + 1);
    const T* r2 = r.col(j0 + 2);
    const T* r3 = r.col(j0 + 3);
    const T* r4 = r.col(j0 + 4);
    const T* r5 = r.col(j0 + 5);
    const T* r6 = r.col(j0 + 6);
    const T* r7 = r.col(j0 + 7);
    T s0 = x[j0], s1 = x[j0 + 1], s2 = x[j0 + 2], s3 = x[j0 + 3];
    T s4 = x[j0 + 4], s5 = x[j0 + 5], s6 = x[j0 + 6], s7 = x[j0 + 7];
    for (index_t i = 0; i < j0; ++i) {
      const T xi = x[i];
      s0 -= r0[i] * xi;
      s1 -= r1[i] * xi;
      s2 -= r2[i] * xi;
      s3 -= r3[i] * xi;
      s4 -= r4[i] * xi;
      s5 -= r5[i] * xi;
      s6 -= r6[i] * xi;
      s7 -= r7[i] * xi;
    }
    finish_column(r0, j0, j0, s0, x);
    finish_column(r1, j0, j0 + 1, s1, x);
    finish_column(r2, j0, j0 + 2, s2, x);
    finish_column(r3, j0, j0 + 3, s3, x);
    finish_column(r4, j0, j0 + 4, s4, x);
    finish_column(r5, j0, j0 + 5, s5, x);
    finish_column(r6, j0, j0 + 6, s6, x);
    finish_column(r7, j0, j0 + 7, s7, x);
  }
  for (index_t j = j0; j < n; ++j) finish_column(r.col(j), 0, j, x[j], x);
}

template void solve_upper<float>(const DenseMatrix<float>&, float*);
template void solve_upper<double>(const DenseMatrix<double>&, double*);
template void solve_upper_transpose<float>(const DenseMatrix<float>&, float*);
template void solve_upper_transpose<double>(const DenseMatrix<double>&,
                                            double*);

}  // namespace rsketch
