// Sparse BLAS-2 style operations used by the least-squares solvers
// (LSQR needs y += A·x and x += Aᵀ·y) plus norm/structure queries.
#pragma once

#include <vector>

#include "sparse/csc.hpp"

namespace rsketch {

/// spmv() splits the rows of y across the OpenMP team only when A has
/// kSpmvParallelNnz nonzeros, enough to pay for the parallel region, and its
/// columns hold kSpmvParallelColumnNnz of them on average: every thread walks
/// all n columns (two binary searches each) to find its rows, so on short
/// columns the walk costs more than the split saves. Per-call timings on both
/// sides of each constant: bench/ablation_spmv_split and EXPERIMENTS.md.
inline constexpr index_t kSpmvParallelNnz = index_t{1} << 14;
inline constexpr index_t kSpmvParallelColumnNnz = 128;

template <typename T>
bool spmv_splits_rows(const CscMatrix<T>& a) {
  return a.nnz() >= kSpmvParallelNnz &&
         a.nnz() >= kSpmvParallelColumnNnz * a.cols();
}

/// y := beta*y + alpha*A*x, A in CSC. x has length A.cols(), y A.rows().
/// When spmv_splits_rows(a), each thread owns a contiguous range of rows of
/// y and scatters only into it, in column order, so y is bitwise identical
/// to the sequential scatter at every team size and no per-thread partial
/// vectors are allocated.
template <typename T>
void spmv(const CscMatrix<T>& a, const T* x, T* y, T alpha = T{1},
          T beta = T{0});

/// y := beta*y + alpha*Aᵀ*x, A in CSC (gather per column — parallel-safe).
template <typename T>
void spmv_transpose(const CscMatrix<T>& a, const T* x, T* y, T alpha = T{1},
                    T beta = T{0});

/// Euclidean norm of each column of A.
template <typename T>
std::vector<T> column_norms(const CscMatrix<T>& a);

/// Frobenius norm of A.
template <typename T>
T frobenius_norm(const CscMatrix<T>& a);

/// Number of rows with no nonzero entries.
template <typename T>
index_t count_empty_rows(const CscMatrix<T>& a);

/// Number of columns with no nonzero entries.
template <typename T>
index_t count_empty_cols(const CscMatrix<T>& a);

/// Remove empty columns (paper removed 158 empty columns from "specular").
template <typename T>
CscMatrix<T> drop_empty_cols(const CscMatrix<T>& a);

/// Remove empty rows (paper removed 54 empty rows from "connectus").
template <typename T>
CscMatrix<T> drop_empty_rows(const CscMatrix<T>& a);

}  // namespace rsketch
