// Right-sketching: B = A·Sᵀ with a virtual random S ∈ R^{d×n}, compressing
// the COLUMN dimension of A (row-space sketch). This is the mirror image of
// the paper's Â = S·A and the second primitive a sketching library needs
// (RandBLAS exposes both sides); it drives the randomized range finder in
// solvers/randomized_svd.
//
// CSC is the NATURAL format here: one regenerated column S[:, k] is reused
// across every nonzero of A's column k (the same reuse Algorithm 4 has to
// build blocked CSR to get), so the kernel generates only d·n samples and
// keeps all accesses contiguous when B is stored row-major.
#pragma once

#include <vector>

#include "sketch/config.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Compute B = A·Sᵀ into a row-major m×d buffer (resized by the callee;
/// element (i, c) at b_rowmajor[i·d + c]). Blocking over the d dimension
/// follows cfg.block_d with the same (seed, checkpoint) contract as the
/// left-sketch kernels: S[c0:c0+d1, k] is a pure function of (seed, c0, k).
/// Any non-sequential cfg.parallel splits the d dimension across threads.
/// Run control (cancel, deadline, budget) as for sketch_into; a stopped
/// call leaves `b_rowmajor` untouched. S is the matrix materialize_S(cfg, n)
/// returns (sketch/sketch.hpp), and B is byte for byte the transpose of the
/// kji sketch_into(cfg, Aᵀ): both add the same products in the same order
/// through the sampler's micro-kernel axpy.
template <typename T>
SketchStats sketch_right_into(const SketchConfig& cfg, const CscMatrix<T>& a,
                              std::vector<T>& b_rowmajor);

}  // namespace rsketch
