// Sketch-and-precondition (SAP) least-squares solver — the paper's §V-C
// pipeline: Â = S·A via the fast sketching kernels, a dense QR or SVD of Â
// to build a right preconditioner, then LSQR on the preconditioned system.
//
// The pipeline stages (factor, preconditioned operator, solution recovery)
// are exposed individually so the guarded driver (solvers/guarded.hpp) can
// gate on preconditioner quality between stages and re-sketch on a bad draw.
#pragma once

#include <cmath>
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
  /// Sketching engine settings (kernel/distribution/parallelism). The
  /// outer blocks are SketchConfig's defaults; the kji driver narrows b_n
  /// to fill the thread team.
  Dist dist = Dist::Uniform;
  RngBackend backend = RngBackend::XoshiroBatch;
  KernelVariant kernel = KernelVariant::Kji;
  ParallelOver parallel = ParallelOver::DBlocks;
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

/// Right preconditioner N built from the QR or SVD of the sketch Â, plus the
/// cheap quality estimate the guarded driver gates on.
template <typename T>
struct SapPreconditioner {
  SapFactor kind = SapFactor::QR;
  DenseMatrix<T> r;      ///< QR path: n×n upper triangular R (N = R⁻¹)
  DenseMatrix<T> n_mat;  ///< SVD path: n×rank, N = V·Σ⁺
  index_t n = 0;
  index_t rank = 0;      ///< retained rank (n on the QR path)
  /// Condition estimate of Â: max|r_ii|/min|r_ii| on the QR path (a cheap
  /// lower bound on cond₂) or σ_max/σ_min-retained on the SVD path. +inf
  /// when the factor diagonal is zero or non-finite.
  double cond_estimate = 0.0;
  /// Whether the LSQR stage can run against this factor at all.
  bool usable() const { return rank > 0 && std::isfinite(cond_estimate); }
};

/// Factor Â (consumed) into a right preconditioner. Unlike sap_solve, a
/// degenerate sketch does NOT throw here — it comes back with rank 0 or an
/// infinite cond_estimate so a guarded driver can re-sketch instead.
template <typename T>
SapPreconditioner<T> sap_build_preconditioner(DenseMatrix<T>&& a_hat,
                                              SapFactor kind,
                                              double sigma_drop);

/// The preconditioned operator A·N. `a`, `p`, and `scratch` (resized to
/// length n here) must all outlive the returned operator.
template <typename T>
LinearOperator<T> sap_preconditioned_operator(const CscMatrix<T>& a,
                                              const SapPreconditioner<T>& p,
                                              std::vector<T>& scratch);

/// x (length n) := N·y (y of length p.rank) — maps LSQR's solution back.
template <typename T>
void sap_recover_solution(const SapPreconditioner<T>& p, const T* y, T* x);

extern template struct SapResult<float>;
extern template struct SapResult<double>;
extern template struct SapPreconditioner<float>;
extern template struct SapPreconditioner<double>;
extern template SapPreconditioner<float> sap_build_preconditioner<float>(
    DenseMatrix<float>&&, SapFactor, double);
extern template SapPreconditioner<double> sap_build_preconditioner<double>(
    DenseMatrix<double>&&, SapFactor, double);
extern template LinearOperator<float> sap_preconditioned_operator<float>(
    const CscMatrix<float>&, const SapPreconditioner<float>&,
    std::vector<float>&);
extern template LinearOperator<double> sap_preconditioned_operator<double>(
    const CscMatrix<double>&, const SapPreconditioner<double>&,
    std::vector<double>&);
extern template void sap_recover_solution<float>(
    const SapPreconditioner<float>&, const float*, float*);
extern template void sap_recover_solution<double>(
    const SapPreconditioner<double>&, const double*, double*);
extern template SapResult<float> sap_solve<float>(const CscMatrix<float>&,
                                                  const std::vector<float>&,
                                                  const SapOptions&);
extern template SapResult<double> sap_solve<double>(const CscMatrix<double>&,
                                                    const std::vector<double>&,
                                                    const SapOptions&);

}  // namespace rsketch
