// Public entry points for computing Â = S·A with on-the-fly generation of S.
// This is the library's primary API; see README.md for a walkthrough.
#pragma once

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"
#include "sparse/blocked_csr.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Compute Â = S·A into `a_hat` (resized to cfg.d × A.cols()).
///
/// Dispatches on cfg.kernel:
///  - KernelVariant::Kji runs Algorithm 3 directly on the CSC input;
///  - KernelVariant::Jki builds the blocked-CSR auxiliary structure (timed
///    into stats.convert_seconds) and runs Algorithm 4.
/// The UniformScaled distribution's global 2^-31 factor and the optional
/// isometry normalization are folded into a single post-scale of Â.
template <typename T>
SketchStats sketch_into(const SketchConfig& cfg, const CscMatrix<T>& a,
                        DenseMatrix<T>& a_hat, bool instrument = false);

/// Convenience wrapper returning the sketch by value.
template <typename T>
DenseMatrix<T> sketch(const SketchConfig& cfg, const CscMatrix<T>& a);

/// Run Algorithm 4 against a caller-prebuilt blocked CSR (skips conversion;
/// used when the same A is sketched repeatedly). Post-scaling as above.
template <typename T>
SketchStats sketch_into_prepartitioned(const SketchConfig& cfg,
                                       const BlockedCsr<T>& ab,
                                       DenseMatrix<T>& a_hat,
                                       bool instrument = false);

/// The deterministic scale applied to Â after the kernel runs (2^-31 for the
/// scaling trick, 1/sqrt(d·E[s²]) when cfg.normalize, their product if both).
template <typename T>
T sketch_post_scale(const SketchConfig& cfg);

/// Estimated workspace bytes sketch_into(cfg, a) allocates beyond the input
/// and the output: the per-thread regenerated-column scratch (team size ×
/// cfg.row_block(), as the driver allocates it), plus the blocked-CSR
/// conversion structure when cfg.kernel is Jki. This is what the budget
/// degradation ladder compares against RunControl::remaining_bytes() and
/// what the jki path pre-charges for the conversion (support/run_control.hpp;
/// docs/ROBUSTNESS.md).
template <typename T>
std::size_t sketch_workspace_estimate(const SketchConfig& cfg, index_t rows,
                                      index_t cols, index_t nnz);

/// Materialize S explicitly as a d×m dense matrix, block-row by block-row
/// with the same (seed, b_d) checkpoints the kernels use — so
/// sketch(cfg, A) == materialize_S(cfg, m) * A exactly. Memory: d·m values;
/// intended for tests and the pre-generated baseline.
template <typename T>
DenseMatrix<T> materialize_S(const SketchConfig& cfg, index_t m);

}  // namespace rsketch
