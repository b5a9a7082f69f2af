// Guarded sketch-and-precondition driver — the numeric-breakdown recovery
// layer over solvers/sap.hpp.
//
// Sketching guarantees are probabilistic: a bad draw of S (or a NaN/Inf that
// slipped into the pipeline) yields an ill-conditioned or non-finite Â whose
// factor then poisons every LSQR iterate. The guarded driver detects each of
// those states — non-finite sketch entries, a degenerate or ill-conditioned
// preconditioner, LSQR breakdown or stagnation — and recovers by re-sketching
// with a fresh seed and an escalated sketch size d (capped at the paper's
// d ≤ 4n bound), with bounded retries. Every attempt is logged and timed
// into the perf span table so BENCH_* reports show the retry history.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "solvers/sap.hpp"

namespace rsketch {

/// How one guarded attempt ended.
enum class SapAttemptOutcome {
  Success,           ///< accepted: converged (or within accept_tol) and finite
  SketchNonFinite,   ///< Â contained NaN/Inf
  BadPreconditioner, ///< rank 0, non-finite factor, or cond above cond_limit
  LsqrBreakdown,     ///< NaN/Inf entered the LSQR recurrence
  NotConverged,      ///< LSQR stagnated/diverged above the acceptance bar
  Cancelled,         ///< stopped by cooperative cancellation (run control)
  DeadlineExceeded,  ///< stopped by the wall-clock deadline (run control)
  BudgetExceeded,    ///< stopped by the workspace budget (run control)
};

std::string to_string(SapAttemptOutcome outcome);

struct GuardedSapOptions {
  /// The solve's settings. base.bounds spans ALL attempts: a fired bound is
  /// checked before each attempt and polled inside the sketch and LSQR
  /// phases, and surfaces as run_stopped_error with the attempt log in the
  /// message — distinct from numeric_error, and never burning the remaining
  /// attempts.
  SapOptions base;
  int max_attempts = 3;
  /// Reject the preconditioner when its condition estimate exceeds this —
  /// LSQR on a preconditioned system this bad converges no faster than on
  /// the raw one, so the sketch draw was wasted.
  double cond_limit = 1e12;
  /// Escalate d by this factor on each retry, capped at 4n (the paper's
  /// largest useful oversampling).
  double d_growth = 1.5;
  /// Accept a non-converged LSQR run whose final relative residual estimate
  /// is at most this (tight stagnation at the rounding floor is success,
  /// not a reason to burn a retry).
  double accept_tol = 1e-10;
  /// Validate A (structure + NaN/Inf) before the first attempt, throwing
  /// validation_error on corrupt input.
  bool check_inputs = true;
  /// TEST HOOK for the fault-injection suite: deliberately write a NaN into
  /// the sketch of the first k attempts, forcing the recovery path.
  int poison_first_attempts = 0;
};

/// One row of the retry log.
struct SapAttemptLog {
  int attempt = 0;               ///< 1-based
  std::uint64_t seed = 0;
  index_t d = 0;
  double cond_estimate = 0.0;    ///< 0 when the attempt died before factoring
  SapAttemptOutcome outcome = SapAttemptOutcome::Success;
  index_t lsqr_iterations = 0;
  double seconds = 0.0;
};

template <typename T>
struct GuardedSapResult {
  SapResult<T> result;           ///< the accepted attempt's solve
  int attempts = 1;              ///< total attempts (1 = first try succeeded)
  bool recovered = false;        ///< success on a retry after ≥1 failure
  std::vector<SapAttemptLog> log;
};

/// Solve min ‖Ax − b‖₂ with breakdown detection and re-sketch recovery.
/// Throws validation_error on corrupt A (when check_inputs), and
/// numeric_error when every attempt fails.
template <typename T>
GuardedSapResult<T> guarded_sap_solve(const CscMatrix<T>& a,
                                      const std::vector<T>& b,
                                      const GuardedSapOptions& options);

extern template struct GuardedSapResult<float>;
extern template struct GuardedSapResult<double>;
extern template GuardedSapResult<float> guarded_sap_solve<float>(
    const CscMatrix<float>&, const std::vector<float>&,
    const GuardedSapOptions&);
extern template GuardedSapResult<double> guarded_sap_solve<double>(
    const CscMatrix<double>&, const std::vector<double>&,
    const GuardedSapOptions&);

}  // namespace rsketch
