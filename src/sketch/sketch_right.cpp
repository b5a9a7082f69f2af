#include "sketch/sketch_right.hpp"

#include "sketch/frame.hpp"
#include "sketch/outer_blocking.hpp"
#include "sparse/validate.hpp"

namespace rsketch {

template <typename T>
SketchStats sketch_right_into(const SketchConfig& cfg, const CscMatrix<T>& a,
                              std::vector<T>& b_rowmajor) {
  return sketch_frame<std::vector<T>>(
      cfg, b_rowmajor,
      {.check = [&] { require_valid(a); },
       .stage =
           [&](std::vector<T>& b) {
             b.resize(static_cast<std::size_t>(a.rows() * cfg.d));
           },
       .body = [&](const SketchConfig& c, std::vector<T>& b,
                   RunControl* run) {
         return sketch_blocked_right(c, a, b, run);
       }});
}

template SketchStats sketch_right_into<float>(const SketchConfig&,
                                              const CscMatrix<float>&,
                                              std::vector<float>&);
template SketchStats sketch_right_into<double>(const SketchConfig&,
                                               const CscMatrix<double>&,
                                               std::vector<double>&);

}  // namespace rsketch
