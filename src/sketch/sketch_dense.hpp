// Sketch application to DENSE operands: Y = S·X for dense X ∈ R^{m×k},
// with the same virtual S (never materialized) and checkpoint contract as
// the sparse kernels. Needed when the object being sketched is already
// dense — e.g. the right-hand side b of a least-squares problem (Ŝb in
// sketch-and-solve), or the dense factors inside randomized SVD.
#pragma once

#include <vector>

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"

namespace rsketch {

/// Y := S·X (Y is d×k, resized by the callee). Every column of S is
/// regenerated once per row block and reused across X's k columns — the
/// dense analogue of Algorithm 4's reuse. Parallelizes over d-blocks. Run
/// control (cancel, deadline, budget) as for sketch_into; a stopped call
/// leaves `y` untouched.
template <typename T>
SketchStats sketch_dense_into(const SketchConfig& cfg, const DenseMatrix<T>& x,
                              DenseMatrix<T>& y);

/// Convenience: y = S·x for a single vector (length m → length d).
template <typename T>
std::vector<T> sketch_dense_vector(const SketchConfig& cfg, const T* x,
                                   index_t m);

}  // namespace rsketch
