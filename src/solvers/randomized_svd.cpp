#include "solvers/randomized_svd.hpp"

#include <algorithm>

#include "dense/blas1.hpp"
#include "dense/gemm.hpp"
#include "sketch/sketch_right.hpp"
#include "solvers/qr.hpp"
#include "solvers/svd.hpp"
#include "sparse/ops.hpp"
#include "support/timer.hpp"

namespace rsketch {

namespace {

/// Orthonormalize the columns of y in place via Householder QR (y ← Q).
template <typename T>
void orthonormalize(DenseMatrix<T>& y) {
  const index_t m = y.rows();
  const index_t l = y.cols();
  QrFactor<T> f = qr_factorize(std::move(y));
  y.reset(m, l);
  for (index_t c = 0; c < l; ++c) {
    std::vector<T> e(static_cast<std::size_t>(m), T{0});
    e[static_cast<std::size_t>(c)] = T{1};
    apply_q(f, e.data());
    for (index_t i = 0; i < m; ++i) y(i, c) = e[static_cast<std::size_t>(i)];
  }
}

}  // namespace

template <typename T>
RandomizedSvdResult<T> randomized_svd(const CscMatrix<T>& a, index_t rank,
                                      const RandomizedSvdOptions& options) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  require(rank >= 1, "randomized_svd: rank must be >= 1");
  const index_t l = rank + options.oversample;
  require(l <= std::min(m, n),
          "randomized_svd: rank + oversample exceeds min(m, n)");

  RandomizedSvdResult<T> out;
  Timer total;

  // --- 1. Range sample Y = A·Sᵀ with the on-the-fly right-sketch.
  Timer phase;
  SketchConfig cfg;
  cfg.d = l;
  cfg.seed = options.seed;
  cfg.dist = options.dist;
  cfg.backend = options.backend;
  cfg.normalize = true;
  DenseMatrix<T> yt;  // Yᵀ, l×m
  sketch_right_into(cfg, a, yt);
  out.sketch_seconds = phase.seconds();

  DenseMatrix<T> y(m, l);
  for (index_t i = 0; i < m; ++i) {
    for (index_t c = 0; c < l; ++c) y(i, c) = yt(c, i);
  }

  // --- 2. Power iterations with re-orthonormalization for stability.
  std::vector<T> tmp_n(static_cast<std::size_t>(n));
  for (int it = 0; it < options.power_iterations; ++it) {
    orthonormalize(y);
    for (index_t c = 0; c < l; ++c) {
      spmv_transpose(a, y.col(c), tmp_n.data());
      spmv(a, tmp_n.data(), y.col(c));
    }
  }
  orthonormalize(y);  // y is now Q (m×l, orthonormal)

  // --- 3. Project: Bᵀ = AᵀQ (n×l).
  DenseMatrix<T> bt(n, l);
  for (index_t c = 0; c < l; ++c) {
    spmv_transpose(a, y.col(c), bt.col(c));
  }

  // --- 4. Small dense SVD: Bᵀ = W Σ Zᵀ → A ≈ (Q·Z) Σ Wᵀ.
  DenseMatrix<T> bt_copy(n, l);
  for (index_t c = 0; c < l; ++c) {
    for (index_t i = 0; i < n; ++i) bt_copy(i, c) = bt(i, c);
  }
  SvdResult<T> svd = jacobi_svd(std::move(bt_copy), /*want_u=*/true);

  out.sigma.assign(svd.sigma.begin(),
                   svd.sigma.begin() + static_cast<std::ptrdiff_t>(rank));
  // V = leading `rank` columns of W (the left vectors of Bᵀ).
  out.v.reset(n, rank);
  for (index_t c = 0; c < rank; ++c) {
    for (index_t i = 0; i < n; ++i) out.v(i, c) = svd.u(i, c);
  }
  // U = Q · Z_rank.
  DenseMatrix<T> z(l, rank);
  for (index_t c = 0; c < rank; ++c) {
    for (index_t i = 0; i < l; ++i) z(i, c) = svd.v(i, c);
  }
  out.u.reset(m, rank);
  gemm(false, false, T{1}, y, z, T{0}, out.u);

  out.total_seconds = total.seconds();
  return out;
}

template RandomizedSvdResult<float> randomized_svd<float>(
    const CscMatrix<float>&, index_t, const RandomizedSvdOptions&);
template RandomizedSvdResult<double> randomized_svd<double>(
    const CscMatrix<double>&, index_t, const RandomizedSvdOptions&);

}  // namespace rsketch
