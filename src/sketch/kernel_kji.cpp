#include "sketch/kernel_kji.hpp"

#include "dense/microkernel.hpp"
#include "perf/trace.hpp"

namespace rsketch {

template <typename T>
void kernel_kji(DenseMatrix<T>& a_hat, index_t i0, index_t d1, index_t j0,
                index_t n1, const CscMatrix<T>& a, SketchSampler<T>& sampler,
                T* v, AccumTimer* sample_timer) {
  // One trace slice per outer (i-block, j-block) pair — coarse enough that
  // tracing never intrudes on the nonzero loop below.
  static const std::uint32_t trace_id = perf::trace::intern("kernel_kji/block");
  perf::trace::Scope trace_scope(trace_id);
  const auto& col_ptr = a.col_ptr();
  const auto& row_idx = a.row_idx();
  const auto& values = a.values();
  const microkernel::Ops<T>& mk = sampler.mk();
  // Fused generate-and-axpy: batched xoshiro lanes stream straight into the
  // update, never touching the v buffer. Instrumented runs keep the buffered
  // two-phase path so sample_seconds still isolates RNG time (Table III);
  // both paths are bitwise identical by construction.
  const bool fused = sample_timer == nullptr && sampler.fused_eligible();

  for (index_t k = j0; k < j0 + n1; ++k) {
    T* __restrict out = a_hat.col(k) + i0;
    const index_t lo = col_ptr[static_cast<std::size_t>(k)];
    const index_t hi = col_ptr[static_cast<std::size_t>(k) + 1];
    for (index_t p = lo; p < hi; ++p) {
      const index_t j = row_idx[static_cast<std::size_t>(p)];
      const T ajk = values[static_cast<std::size_t>(p)];
      // v := S[i0 : i0+d1, j] — regenerated, never read from memory.
      if (fused) {
        sampler.fused_axpy(i0, j, ajk, out, d1);
      } else if (sample_timer != nullptr) {
        sample_timer->start();
        sampler.fill(i0, j, v, d1);
        sample_timer->stop();
        mk.axpy(d1, ajk, v, out);
      } else {
        sampler.fill(i0, j, v, d1);
        mk.axpy(d1, ajk, v, out);
      }
    }
  }
}

template void kernel_kji<float>(DenseMatrix<float>&, index_t, index_t, index_t,
                                index_t, const CscMatrix<float>&,
                                SketchSampler<float>&, float*, AccumTimer*);
template void kernel_kji<double>(DenseMatrix<double>&, index_t, index_t,
                                 index_t, index_t, const CscMatrix<double>&,
                                 SketchSampler<double>&, double*,
                                 AccumTimer*);

}  // namespace rsketch
