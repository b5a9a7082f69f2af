#include "sketch/streaming.hpp"

#include <algorithm>

#include "dense/blas1.hpp"
#include "perf/perf.hpp"
#include "sketch/frame.hpp"
#include "sparse/validate.hpp"
#include "support/aligned_buffer.hpp"
#include "support/run_control.hpp"
#include "support/timer.hpp"

namespace rsketch {

template <typename T>
SketchStats streaming_sketch(const SketchConfig& cfg, const CsrMatrix<T>& a,
                             DenseMatrix<T>& a_hat) {
  return sketch_frame<DenseMatrix<T>>(
      cfg, a_hat,
      {.rows = a.rows(),
       .cols = a.cols(),
       .check = [&] { require_valid(a); },
       // The rank-1 updates accumulate into Â with no panel of their own
       // to zero, so Â is staged zeroed.
       .stage =
           [&](DenseMatrix<T>& out) {
             if (out.rows() != cfg.d || out.cols() != a.cols()) {
               out.reset(cfg.d, a.cols());
             } else {
               out.set_zero();
             }
           },
       .body = [&](const SketchConfig& c, DenseMatrix<T>& out,
                   RunControl* run) {
         perf::Span span("streaming_sketch");
         const index_t d = c.d;
         const index_t bd = c.row_block();
         SketchSampler<T> sampler(c.seed, c.dist, c.backend);
         // The d-long column scratch is charged to an armed budget on
         // allocation; if even this does not fit, the call stops with
         // BudgetExceeded.
         AlignedBuffer<T> v(d);
         Timer timer;
         std::uint64_t nonempty_rows = 0;
         for (index_t j = 0; j < a.rows(); ++j) {
           if (run != nullptr) run->poll();
           const index_t lo = a.row_ptr()[static_cast<std::size_t>(j)];
           const index_t hi = a.row_ptr()[static_cast<std::size_t>(j) + 1];
           if (lo == hi) continue;
           ++nonempty_rows;
           // Generate the full column S[:, j] in b_d-sized checkpointed
           // chunks so the values match the blocked kernels bit-for-bit.
           for (index_t i0 = 0; i0 < d; i0 += bd) {
             sampler.fill(i0, j, v.data() + i0, std::min(bd, d - i0));
           }
           for (index_t p = lo; p < hi; ++p) {
             const index_t k = a.col_idx()[static_cast<std::size_t>(p)];
             axpy(d, a.values()[static_cast<std::size_t>(p)], v.data(),
                  out.col(k));
           }
         }

         SketchStats stats;
         stats.total_seconds = timer.seconds();
         stats.samples_generated = sampler.samples_generated();
         const double flops =
             2.0 * static_cast<double>(d) * static_cast<double>(a.nnz());
         stats.gflops =
             stats.total_seconds > 0 ? flops / stats.total_seconds / 1e9 : 0.0;
         if (perf::enabled()) {
           // The jki accounting over the whole matrix as one block: one
           // full column of S per nonempty row.
           stats.counters.add_block<T>(
               nonempty_rows, static_cast<std::uint64_t>(a.nnz()),
               static_cast<std::uint64_t>(d),
               (static_cast<std::uint64_t>(a.rows()) + 1) * sizeof(index_t));
           perf::add(stats.counters);
           perf::add(perf::Counter::SketchCalls, 1);
         }
         return stats;
       }});
}

template SketchStats streaming_sketch<float>(const SketchConfig&,
                                             const CsrMatrix<float>&,
                                             DenseMatrix<float>&);
template SketchStats streaming_sketch<double>(const SketchConfig&,
                                              const CsrMatrix<double>&,
                                              DenseMatrix<double>&);

}  // namespace rsketch
