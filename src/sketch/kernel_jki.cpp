#include "sketch/kernel_jki.hpp"

#include <algorithm>

#include "dense/microkernel.hpp"
#include "perf/trace.hpp"

namespace rsketch {

template <typename T>
void kernel_jki(DenseMatrix<T>& a_hat, index_t i0, index_t d1,
                const CsrSlab<T>& slab, SketchSampler<T>& sampler, T* v,
                AccumTimer* sample_timer) {
  // One trace slice per outer (i-block, vertical-block) pair — coarse enough
  // that tracing never intrudes on the nonzero loop below.
  static const std::uint32_t trace_id = perf::trace::intern("kernel_jki/block");
  perf::trace::Scope trace_scope(trace_id);
  const index_t* const row_ptr = slab.row_ptr;
  const index_t* const col_idx = slab.col_idx;
  const T* const values = slab.values;
  const microkernel::Ops<T>& mk = sampler.mk();

  for (index_t j = 0; j < slab.rows; ++j) {
    const index_t lo = row_ptr[j];
    const index_t hi = row_ptr[j + 1];
    if (lo == hi) continue;  // empty row: column j of S is never generated
    // v := S[i0 : i0+d1, j], generated once and reused across the row.
    if (sample_timer != nullptr) {
      sample_timer->start();
      sampler.fill(i0, j, v, d1);
      sample_timer->stop();
    } else {
      sampler.fill(i0, j, v, d1);
    }
    // Unroll-and-jam: apply v to up to kMaxJam destination columns of Â per
    // sweep, so each vector load of v feeds several accumulators instead of
    // one — the row's reuse of the regenerated column carried into registers.
    index_t p = lo;
    while (p < hi) {
      const index_t jam = std::min<index_t>(microkernel::kMaxJam, hi - p);
      T alphas[microkernel::kMaxJam];
      T* ys[microkernel::kMaxJam];
      for (index_t q = 0; q < jam; ++q) {
        alphas[q] = values[p + q];
        ys[q] = a_hat.col(slab.col0 + col_idx[p + q]) + i0;
      }
      mk.axpy_multi(d1, v, alphas, ys, jam);
      p += jam;
    }
  }
}

template void kernel_jki<float>(DenseMatrix<float>&, index_t, index_t,
                                const CsrSlab<float>&, SketchSampler<float>&,
                                float*, AccumTimer*);
template void kernel_jki<double>(DenseMatrix<double>&, index_t, index_t,
                                 const CsrSlab<double>&,
                                 SketchSampler<double>&, double*,
                                 AccumTimer*);

}  // namespace rsketch
