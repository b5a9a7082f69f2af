// Sketch-and-precondition (SAP) least-squares solver — the paper's §V-C
// pipeline: Â = S·A via the fast sketching kernels, a dense QR or SVD of Â
// to build a right preconditioner, then LSQR on the preconditioned system.
//
// The pipeline itself is written once (solvers/sap_pipeline.hpp): sap_solve
// runs one attempt of it, and the guarded driver (solvers/guarded.hpp) gates
// the same attempt between its steps and re-sketches on a bad draw.
#pragma once

#include <cstdint>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"
#include "solvers/lsqr.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Which decomposition of Â supplies the preconditioner.
enum class SapFactor {
  QR,  ///< N = R⁻¹ — cheap; intended for numerically full-rank problems
  SVD  ///< N = V·Σ⁺ with σ < σ_max·sigma_drop discarded — for near-singular A
};

struct SapOptions {
  SapFactor factor = SapFactor::QR;
  double gamma = 2.0;            ///< sketch size d = ⌈γ·n⌉ (paper uses γ=2)
  std::uint64_t seed = 0xABCDEF;
  double lsqr_tol = 1e-14;
  index_t lsqr_max_iter = 0;     ///< 0 → LSQR default
  double sigma_drop = 1e-12;     ///< SVD truncation threshold (relative)
  /// Sketching engine settings. The backend, parallelism and outer blocks
  /// are SketchConfig's defaults; the kji driver narrows b_n to fill the
  /// thread team.
  Dist dist = Dist::Uniform;
  KernelVariant kernel = KernelVariant::Kji;
};

template <typename T>
struct SapResult {
  std::vector<T> x;
  index_t iterations = 0;
  bool converged = false;
  index_t rank = 0;              ///< retained rank (SVD path; n for QR)
  double sketch_seconds = 0.0;   ///< time to form Â = S·A
  double factor_seconds = 0.0;   ///< QR / SVD time
  double lsqr_seconds = 0.0;    ///< LSQR plus the recovery x = N·y
  double total_seconds = 0.0;
  std::size_t workspace_bytes = 0;  ///< Â + factor + iteration vectors
};

/// Solve min ‖Ax − b‖₂ by sketch-and-precondition. A must be tall (m ≥ n);
/// transpose underdetermined inputs first (as the paper does). Throws
/// numeric_error before LSQR when the sketch yields no usable preconditioner:
/// on the QR path a zero or non-finite diagonal of R (A is numerically
/// rank-deficient, which SapFactor::SVD or guarded_sap_solve handle), on the
/// SVD path rank 0 (the sketch is numerically zero). Timed under the
/// sap_solve span with sap/sketch, sap/factor and sap/lsqr children.
template <typename T>
SapResult<T> sap_solve(const CscMatrix<T>& a, const std::vector<T>& b,
                       const SapOptions& options);

extern template struct SapResult<float>;
extern template struct SapResult<double>;
extern template SapResult<float> sap_solve<float>(const CscMatrix<float>&,
                                                  const std::vector<float>&,
                                                  const SapOptions&);
extern template SapResult<double> sap_solve<double>(const CscMatrix<double>&,
                                                    const std::vector<double>&,
                                                    const SapOptions&);

}  // namespace rsketch
