// The one sketch-and-precondition pipeline (paper §V-C) behind every SAP
// solver: sketch Â = S·A, factor Â into a preconditioner, run LSQR on the
// preconditioned system and recover x. sap_solve runs one attempt of it,
// guarded_sap_solve a retry loop of attempts with its checks between the
// steps, and sap_solve_minimum_norm the same steps around a row-
// preconditioned operator. Internal to src/solvers.
#pragma once

#include <cmath>
#include <functional>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "solvers/guarded.hpp"
#include "solvers/lsqr.hpp"
#include "sparse/csc.hpp"
#include "support/memory_tracker.hpp"
#include "support/timer.hpp"

namespace rsketch {

/// Preconditioner built from the QR or SVD of the sketch Â, with the cheap
/// quality estimate the guarded driver gates on.
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

/// Checks a caller runs between the steps of an attempt. An empty check
/// passes; an outcome other than Success ends the attempt at that step.
template <typename T>
struct SapChecks {
  std::function<SapAttemptOutcome(DenseMatrix<T>& a_hat)> sketch;
  std::function<SapAttemptOutcome(const SapPreconditioner<T>& p)> factor;
  /// Sees LSQR's result with x already recovered; may mark it converged.
  std::function<SapAttemptOutcome(LsqrResult<T>& res)> solve;
};

/// The steps of one SAP solve. Each step runs under its sap/* span, adds its
/// seconds to the solve's phase times and its workspace to the solve's
/// memory tracker; over several attempts the seconds add up and the tracker
/// keeps the peak of them all.
template <typename T>
class SapPipeline {
 public:
  /// Resolves options.bounds once for the whole solve, however many
  /// attempts it makes. `options` is not owned.
  explicit SapPipeline(const SapOptions& options);
  /// Count a stop out of the solve (ResolvedRunControl::count_stop).
  void count_stop(StopCause cause) const { bounds_.count_stop(cause); }

  /// One sketch → factor → LSQR → recover attempt at min ‖Ax − b‖₂ for tall
  /// A, sketching with log.d rows and log.seed. Fills log.cond_estimate,
  /// log.lsqr_iterations and log.outcome (BadPreconditioner for an unusable
  /// factor). Returns the solve's result on Success, an empty one otherwise.
  /// The workspace an earlier attempt accounted is released first.
  SapResult<T> attempt(const CscMatrix<T>& a, const std::vector<T>& b,
                       const SapChecks<T>& checks, SapAttemptLog& log);

  /// d = ⌈γ·cols⌉, the sketch rows for an input with `cols` columns.
  index_t sketch_rows(index_t cols) const;
  /// Â = S·a with d rows, S drawn from `seed`, normalized to an approximate
  /// isometry.
  DenseMatrix<T> sketch(const CscMatrix<T>& a, index_t d, std::uint64_t seed);
  /// Factor Â (consumed). An unusable factor is returned, not thrown.
  SapPreconditioner<T> factor(DenseMatrix<T>&& a_hat);
  /// LSQR on op·y ≈ rhs; the result carries x = recover(y) in place of y.
  LsqrResult<T> lsqr(
      const LinearOperator<T>& op, const T* rhs,
      const std::function<std::vector<T>(std::vector<T>&&)>& recover);
  /// The solve's result with `res` as its answer; `rank` is the factor's.
  SapResult<T> finish(LsqrResult<T>&& res, index_t rank);

 private:
  const SapOptions& options_;
  ResolvedRunControl bounds_;
  SapResult<T> phases_;  ///< only the phase seconds are kept here
  MemoryTracker mem_;
  Timer total_;
};

extern template class SapPipeline<float>;
extern template class SapPipeline<double>;

}  // namespace rsketch
