#include "sketch/baselines.hpp"

#include <algorithm>

#include "dense/blas1.hpp"
#include "dense/microkernel.hpp"
#include "sketch/sketch.hpp"
#include "support/aligned_buffer.hpp"

namespace rsketch {

template <typename T>
void baseline_eigen_style(const DenseMatrix<T>& s, const CscMatrix<T>& a,
                          DenseMatrix<T>& out) {
  require(s.cols() == a.rows(), "baseline_eigen_style: S.cols != A.rows");
  if (out.rows() != s.rows() || out.cols() != a.cols()) {
    out.reset(s.rows(), a.cols());
  } else {
    out.set_zero();
  }
  const index_t d = s.rows();
  for (index_t k = 0; k < a.cols(); ++k) {
    // Eigen evaluates into the destination column after accumulating the
    // whole sparse column — same arithmetic as Julia-style but the write of
    // the destination happens once per column.
    T* ok = out.col(k);
    for (index_t p = a.col_ptr()[static_cast<std::size_t>(k)];
         p < a.col_ptr()[static_cast<std::size_t>(k) + 1]; ++p) {
      const index_t j = a.row_idx()[static_cast<std::size_t>(p)];
      axpy(d, a.values()[static_cast<std::size_t>(p)], s.col(j), ok);
    }
  }
}

template <typename T>
void baseline_julia_style(const DenseMatrix<T>& s, const CscMatrix<T>& a,
                          DenseMatrix<T>& out) {
  require(s.cols() == a.rows(), "baseline_julia_style: S.cols != A.rows");
  if (out.rows() != s.rows() || out.cols() != a.cols()) {
    out.reset(s.rows(), a.cols());
  } else {
    out.set_zero();
  }
  const index_t d = s.rows();
  // SparseArrays.jl mul!(C, X, A): nested loops col-of-A → nonzero → axpy.
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  const auto& vv = a.values();
  for (index_t k = 0; k < a.cols(); ++k) {
    for (index_t p = cp[static_cast<std::size_t>(k)];
         p < cp[static_cast<std::size_t>(k) + 1]; ++p) {
      axpy(d, vv[static_cast<std::size_t>(p)],
           s.col(ri[static_cast<std::size_t>(p)]), out.col(k));
    }
  }
}

template <typename T>
void baseline_mkl_style(const std::vector<T>& s_t_rowmajor,
                        const CscMatrix<T>& a, index_t d,
                        std::vector<T>& out_t_rowmajor) {
  require(static_cast<index_t>(s_t_rowmajor.size()) == a.rows() * d,
          "baseline_mkl_style: S^T buffer must be m*d");
  out_t_rowmajor.assign(static_cast<std::size_t>(a.cols() * d), T{0});
  // Aᵀ in CSR has row k = column k of A; row-major output Âᵀ row k is the
  // contiguous d-vector Â[:, k]ᵀ. Standard inspector-executor CSR×dense.
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  const auto& vv = a.values();
  for (index_t k = 0; k < a.cols(); ++k) {
    T* __restrict ok = out_t_rowmajor.data() + k * d;
    for (index_t p = cp[static_cast<std::size_t>(k)];
         p < cp[static_cast<std::size_t>(k) + 1]; ++p) {
      const index_t j = ri[static_cast<std::size_t>(p)];
      axpy(d, vv[static_cast<std::size_t>(p)], s_t_rowmajor.data() + j * d,
           ok);
    }
  }
}

template <typename T>
std::vector<T> pack_transposed_rowmajor(const DenseMatrix<T>& s) {
  std::vector<T> out(static_cast<std::size_t>(s.rows() * s.cols()));
  for (index_t j = 0; j < s.cols(); ++j) {
    const T* c = s.col(j);
    for (index_t i = 0; i < s.rows(); ++i) {
      out[static_cast<std::size_t>(j * s.rows() + i)] = c[i];
    }
  }
  return out;
}

template <typename T>
std::uint64_t baseline_streaming(const SketchConfig& cfg, const CsrMatrix<T>& a,
                                 DenseMatrix<T>& out) {
  cfg.validate();
  if (out.rows() != cfg.d || out.cols() != a.cols()) {
    out.reset(cfg.d, a.cols());
  } else {
    out.set_zero();
  }
  const index_t d = cfg.d;
  const index_t bd = cfg.row_block();
  SketchSampler<T> sampler(cfg.seed, cfg.dist, cfg.backend);
  // The blocked kernels' micro-kernel axpy (FP contraction off), so the
  // rank-1 updates round exactly as theirs do.
  const microkernel::Ops<T>& mk = sampler.mk();
  AlignedBuffer<T> v(d);
  for (index_t j = 0; j < a.rows(); ++j) {
    const index_t lo = a.row_ptr()[static_cast<std::size_t>(j)];
    const index_t hi = a.row_ptr()[static_cast<std::size_t>(j) + 1];
    if (lo == hi) continue;
    for (index_t i0 = 0; i0 < d; i0 += bd) {
      sampler.fill(i0, j, v.data() + i0, std::min(bd, d - i0));
    }
    for (index_t p = lo; p < hi; ++p) {
      mk.axpy(d, a.values()[static_cast<std::size_t>(p)], v.data(),
              out.col(a.col_idx()[static_cast<std::size_t>(p)]));
    }
  }
  const T s = sketch_post_scale<T>(cfg);
  if (s != T{1}) {
    for (index_t k = 0; k < out.cols(); ++k) scal(out.rows(), s, out.col(k));
  }
  return sampler.samples_generated();
}

#define RSKETCH_INSTANTIATE(T)                                            \
  template void baseline_eigen_style<T>(const DenseMatrix<T>&,           \
                                        const CscMatrix<T>&,             \
                                        DenseMatrix<T>&);                \
  template void baseline_julia_style<T>(const DenseMatrix<T>&,           \
                                        const CscMatrix<T>&,             \
                                        DenseMatrix<T>&);                \
  template void baseline_mkl_style<T>(const std::vector<T>&,             \
                                      const CscMatrix<T>&, index_t,      \
                                      std::vector<T>&);                  \
  template std::vector<T> pack_transposed_rowmajor<T>(const DenseMatrix<T>&); \
  template std::uint64_t baseline_streaming<T>(                          \
      const SketchConfig&, const CsrMatrix<T>&, DenseMatrix<T>&);

RSKETCH_INSTANTIATE(float)
RSKETCH_INSTANTIATE(double)
#undef RSKETCH_INSTANTIATE

}  // namespace rsketch
