// Randomized low-rank SVD of a sparse matrix (Halko–Martinsson–Tropp range
// finder) built on the fast right-sketch primitive — one of the
// applications the paper's introduction motivates ("low-rank approximation,
// matrix decomposition, eigenvalue computation").
//
//   Y = A·Sᵀ            (m×l range sample: sketch_right_into writes Yᵀ = S·Aᵀ,
//                        Alg. 4 over A's CSC read as Aᵀ, S never stored)
//   optional power iterations  Y ← A(AᵀY)
//   Y = QR               →  Q (m×l orthonormal)
//   B = QᵀA              (l×n, via l sparse transpose-products)
//   Bᵀ = W Σ Zᵀ          (small dense Jacobi SVD)
//   A ≈ (Q·Z) Σ Wᵀ       →  U = Q·Z, V = W, truncated to `rank`.
#pragma once

#include <cstdint>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

template <typename T>
struct RandomizedSvdResult {
  DenseMatrix<T> u;       ///< m×rank, orthonormal columns
  std::vector<T> sigma;   ///< rank singular value estimates, descending
  DenseMatrix<T> v;       ///< n×rank, orthonormal columns
  double sketch_seconds = 0.0;
  double total_seconds = 0.0;
};

struct RandomizedSvdOptions {
  index_t oversample = 8;     ///< l = rank + oversample sketch columns
  int power_iterations = 1;   ///< subspace iterations for spectral decay
  std::uint64_t seed = 0xDECAF;
  Dist dist = Dist::Uniform;
  RngBackend backend = RngBackend::XoshiroBatch;
};

/// Rank-`rank` randomized SVD of A. Requires 1 ≤ rank and
/// rank + oversample ≤ min(m, n).
template <typename T>
RandomizedSvdResult<T> randomized_svd(const CscMatrix<T>& a, index_t rank,
                                      const RandomizedSvdOptions& options = {});

extern template RandomizedSvdResult<float> randomized_svd<float>(
    const CscMatrix<float>&, index_t, const RandomizedSvdOptions&);
extern template RandomizedSvdResult<double> randomized_svd<double>(
    const CscMatrix<double>&, index_t, const RandomizedSvdOptions&);

}  // namespace rsketch
