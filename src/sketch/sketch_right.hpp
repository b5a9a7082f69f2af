// Right-sketching: B = A·Sᵀ with a virtual random S ∈ R^{d×n}, compressing
// the COLUMN dimension of A (row-space sketch). This is the mirror image of
// the paper's Â = S·A and the second primitive a sketching library needs
// (RandBLAS exposes both sides); it drives the randomized range finder in
// solvers/randomized_svd.
//
// Bᵀ = S·Aᵀ is a left sketch of Aᵀ, and A's CSC arrays are the CSR of Aᵀ
// array for array. So the right sketch is Algorithm 4 over Aᵀ read in place
// as one vertical slab (transposed_slab in sparse/blocked_csr.hpp): one
// regenerated column S[:, k] serves every nonzero of A's column k, with no
// conversion and no copy, and the kernel generates only d·(nonempty columns)
// samples.
#pragma once

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Compute Bᵀ = S·Aᵀ into `bt`, fitted to d × m by the callee: bt(c, i) is
/// B's entry (i, c). Column i of Bᵀ is row i of B, so the layout is B's
/// row-major m × d with each row padded to bt.ld(). Blocking over the d
/// dimension follows cfg.block_d with the same (seed, checkpoint) contract
/// as the left-sketch kernels: S[c0:c0+d1, k] is a pure function of
/// (seed, c0, k). Aᵀ is one slab, so the schedule has ⌈d/b_d⌉ items: a
/// non-sequential cfg.parallel splits the d dimension across threads, and
/// when d ≤ b_d the sketch runs on one thread. Run control (cancel,
/// deadline, budget) as for sketch_into; a stopped call leaves `bt`
/// untouched. S is the matrix materialize_S(cfg, n) returns
/// (sketch/sketch.hpp), and bt is byte for byte sketch_into(cfg, Aᵀ) with
/// either kernel: all three add the same products in the same order.
template <typename T>
SketchStats sketch_right_into(const SketchConfig& cfg, const CscMatrix<T>& a,
                              DenseMatrix<T>& bt);

}  // namespace rsketch
