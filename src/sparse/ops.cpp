#include "sparse/ops.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>

namespace rsketch {

namespace {

/// rows [r0, r1) of y := beta*y + alpha*A*x: scales its own rows, then walks
/// every column in order and finds the column's segment inside [r0, r1) by
/// binary search (CSC rows are strictly ascending). Each y[i] therefore sees
/// the same additions in the same order as a whole-matrix scatter.
template <typename T>
void spmv_rows(const CscMatrix<T>& a, const T* x, T* y, T alpha, T beta,
               index_t r0, index_t r1) {
  if (beta == T{0}) {
    for (index_t i = r0; i < r1; ++i) y[i] = T{0};
  } else if (beta != T{1}) {
    for (index_t i = r0; i < r1; ++i) y[i] *= beta;
  }
  if (r0 == r1) return;
  const bool all_rows = r0 == 0 && r1 == a.rows();
  const index_t* const cp = a.col_ptr().data();
  const index_t* const ri = a.row_idx().data();
  const T* const vv = a.values().data();
  for (index_t j = 0; j < a.cols(); ++j) {
    const T ax = alpha * x[j];
    if (ax == T{0}) continue;
    const index_t* lo = ri + cp[j];
    const index_t* hi = ri + cp[j + 1];
    if (!all_rows) {
      lo = std::lower_bound(lo, hi, r0);
      hi = std::lower_bound(lo, hi, r1);
    }
    for (const index_t* p = lo; p < hi; ++p) y[*p] += ax * vv[p - ri];
  }
}

}  // namespace

template <typename T>
void spmv(const CscMatrix<T>& a, const T* x, T* y, T alpha, T beta) {
  const index_t m = a.rows();
  if (!spmv_splits_rows(a)) {
    spmv_rows(a, x, y, alpha, beta, 0, m);
    return;
  }
#pragma omp parallel
  {
    const index_t t = omp_get_thread_num();
    const index_t team = omp_get_num_threads();
    spmv_rows(a, x, y, alpha, beta, m * t / team, m * (t + 1) / team);
  }
}

template <typename T>
void spmv_transpose(const CscMatrix<T>& a, const T* x, T* y, T alpha, T beta) {
  const index_t n = a.cols();
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  const auto& vv = a.values();
#pragma omp parallel for schedule(static)
  for (index_t j = 0; j < n; ++j) {
    T dot{0};
    for (index_t p = cp[static_cast<std::size_t>(j)];
         p < cp[static_cast<std::size_t>(j) + 1]; ++p) {
      dot += vv[static_cast<std::size_t>(p)] * x[ri[static_cast<std::size_t>(p)]];
    }
    y[j] = (beta == T{0} ? T{0} : beta * y[j]) + alpha * dot;
  }
}

template <typename T>
std::vector<T> column_norms(const CscMatrix<T>& a) {
  std::vector<T> norms(static_cast<std::size_t>(a.cols()), T{0});
  for (index_t j = 0; j < a.cols(); ++j) {
    // Accumulate in double to avoid float underflow/overflow on the wildly
    // scaled columns used in the conditioning experiments.
    double s = 0.0;
    for (index_t p = a.col_ptr()[static_cast<std::size_t>(j)];
         p < a.col_ptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      const double v = static_cast<double>(a.values()[static_cast<std::size_t>(p)]);
      s += v * v;
    }
    norms[static_cast<std::size_t>(j)] = static_cast<T>(std::sqrt(s));
  }
  return norms;
}

template <typename T>
T frobenius_norm(const CscMatrix<T>& a) {
  double s = 0.0;
  for (const T v : a.values()) {
    s += static_cast<double>(v) * static_cast<double>(v);
  }
  return static_cast<T>(std::sqrt(s));
}

template <typename T>
index_t count_empty_rows(const CscMatrix<T>& a) {
  std::vector<bool> seen(static_cast<std::size_t>(a.rows()), false);
  for (index_t r : a.row_idx()) seen[static_cast<std::size_t>(r)] = true;
  index_t empty = 0;
  for (bool s : seen) empty += s ? 0 : 1;
  return empty;
}

template <typename T>
index_t count_empty_cols(const CscMatrix<T>& a) {
  index_t empty = 0;
  for (index_t j = 0; j < a.cols(); ++j) {
    if (a.col_nnz(j) == 0) ++empty;
  }
  return empty;
}

template <typename T>
CscMatrix<T> drop_empty_cols(const CscMatrix<T>& a) {
  std::vector<index_t> col_ptr{0};
  for (index_t j = 0; j < a.cols(); ++j) {
    if (a.col_nnz(j) > 0) {
      col_ptr.push_back(a.col_ptr()[static_cast<std::size_t>(j) + 1]);
    }
  }
  // row_idx/values are untouched: removing empty columns only collapses
  // duplicate col_ptr entries.
  const index_t ncols = static_cast<index_t>(col_ptr.size()) - 1;
  return CscMatrix<T>(a.rows(), ncols, std::move(col_ptr), a.row_idx(),
                      a.values());
}

template <typename T>
CscMatrix<T> drop_empty_rows(const CscMatrix<T>& a) {
  std::vector<index_t> remap(static_cast<std::size_t>(a.rows()), -1);
  for (index_t r : a.row_idx()) remap[static_cast<std::size_t>(r)] = 0;
  index_t next = 0;
  for (auto& r : remap) {
    if (r == 0) r = next++;
  }
  std::vector<index_t> row_idx(a.row_idx().size());
  for (std::size_t p = 0; p < row_idx.size(); ++p) {
    row_idx[p] = remap[static_cast<std::size_t>(a.row_idx()[p])];
  }
  return CscMatrix<T>(next, a.cols(), a.col_ptr(), std::move(row_idx),
                      a.values());
}

#define RSKETCH_INSTANTIATE(T)                                          \
  template void spmv<T>(const CscMatrix<T>&, const T*, T*, T, T);       \
  template void spmv_transpose<T>(const CscMatrix<T>&, const T*, T*, T, \
                                  T);                                   \
  template std::vector<T> column_norms<T>(const CscMatrix<T>&);         \
  template T frobenius_norm<T>(const CscMatrix<T>&);                    \
  template index_t count_empty_rows<T>(const CscMatrix<T>&);            \
  template index_t count_empty_cols<T>(const CscMatrix<T>&);            \
  template CscMatrix<T> drop_empty_cols<T>(const CscMatrix<T>&);        \
  template CscMatrix<T> drop_empty_rows<T>(const CscMatrix<T>&);

RSKETCH_INSTANTIATE(float)
RSKETCH_INSTANTIATE(double)
#undef RSKETCH_INSTANTIATE

}  // namespace rsketch
