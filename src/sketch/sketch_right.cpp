#include "sketch/sketch_right.hpp"

#include <span>

#include "sketch/frame.hpp"
#include "sketch/outer_blocking.hpp"
#include "sparse/validate.hpp"

namespace rsketch {

template <typename T>
SketchStats sketch_right_into(const SketchConfig& cfg, const CscMatrix<T>& a,
                              DenseMatrix<T>& bt) {
  return sketch_frame<T>(
      cfg, bt,
      {.cols = a.rows(),
       .check = [&] { require_valid(a); },
       .body = [&](const SketchConfig& c, DenseMatrix<T>& out,
                   RunControl* run) {
         const CsrSlab<T> at = transposed_slab(a);
         return sketch_blocked_jki(c, std::span<const CsrSlab<T>>(&at, 1),
                                   out, false, run);
       }});
}

template SketchStats sketch_right_into<float>(const SketchConfig&,
                                              const CscMatrix<float>&,
                                              DenseMatrix<float>&);
template SketchStats sketch_right_into<double>(const SketchConfig&,
                                               const CscMatrix<double>&,
                                               DenseMatrix<double>&);

}  // namespace rsketch
