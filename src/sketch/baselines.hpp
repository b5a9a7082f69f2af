// Library-style SpMM baselines with a pre-generated S — stand-ins for the
// Eigen, Julia SparseArrays, and Intel MKL comparisons in paper Tables II/IV.
// Each reproduces the defining property of its library: S is fully
// materialized in memory and the product uses that library's storage and
// traversal order. Also the pylspack-style streaming scheme the paper
// contrasts Algorithm 1 with (§II-A). Timing is the caller's job (the paper
// excludes the cost of generating S for the pre-generated baselines).
#pragma once

#include <cstdint>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"

namespace rsketch {

/// Eigen-style dense×sparse: for each output column, accumulate the sparse
/// column's updates into a stack panel and write it back once (Eigen
/// evaluates products into a temporary before assignment).
template <typename T>
void baseline_eigen_style(const DenseMatrix<T>& s, const CscMatrix<T>& a,
                          DenseMatrix<T>& out);

/// Julia-style dense×sparse (SparseArrays mul!): in-place axpy accumulation
/// directly into the output, one sparse entry at a time.
template <typename T>
void baseline_julia_style(const DenseMatrix<T>& s, const CscMatrix<T>& a,
                          DenseMatrix<T>& out);

/// MKL-style: MKL sparse only supports sparse-times-dense, so the paper runs
/// the transposed operation Âᵀ = Aᵀ·Sᵀ with Aᵀ in CSR (whose arrays equal
/// A's CSC arrays) and Sᵀ in row-major layout.
///   `s_t_rowmajor`: m×d row-major (element (j,i) = S[i,j])
///   `out_t_rowmajor`: n×d row-major result Âᵀ (resized by the callee)
template <typename T>
void baseline_mkl_style(const std::vector<T>& s_t_rowmajor,
                        const CscMatrix<T>& a, index_t d,
                        std::vector<T>& out_t_rowmajor);

/// Pack S (column-major d×m) into the m×d row-major transposed layout the
/// MKL-style baseline consumes.
template <typename T>
std::vector<T> pack_transposed_rowmajor(const DenseMatrix<T>& s);

/// Pylspack-style (1, m, 1)-blocking (Sobczyk & Gallopoulos, 2022): S is
/// generated on the fly one column at a time, once per nonempty row of A,
/// and applied as a rank-1 update to the whole d×n output — memory-optimal
/// in samples, but every update touches all of Â. Honours cfg.d, seed,
/// dist, backend, block_d and normalize; it runs on one thread. S[:, j] is
/// drawn in b_d-sized checkpointed chunks, so `out` (resized to d × n) is
/// bitwise the blocked kernels' Â, post-scale included. Returns the samples
/// generated.
template <typename T>
std::uint64_t baseline_streaming(const SketchConfig& cfg, const CsrMatrix<T>& a,
                                 DenseMatrix<T>& out);

}  // namespace rsketch
