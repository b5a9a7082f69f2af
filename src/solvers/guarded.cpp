#include "solvers/guarded.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "perf/perf.hpp"
#include "perf/trace.hpp"
#include "rng/splitmix64.hpp"
#include "solvers/sap_pipeline.hpp"
#include "sparse/validate.hpp"
#include "support/run_control.hpp"
#include "support/timer.hpp"

namespace rsketch {

std::string to_string(SapAttemptOutcome outcome) {
  switch (outcome) {
    case SapAttemptOutcome::Success: return "success";
    case SapAttemptOutcome::SketchNonFinite: return "sketch_non_finite";
    case SapAttemptOutcome::BadPreconditioner: return "bad_preconditioner";
    case SapAttemptOutcome::LsqrBreakdown: return "lsqr_breakdown";
    case SapAttemptOutcome::NotConverged: return "not_converged";
    case SapAttemptOutcome::Cancelled: return "cancelled";
    case SapAttemptOutcome::DeadlineExceeded: return "deadline_exceeded";
    case SapAttemptOutcome::BudgetExceeded: return "budget_exceeded";
  }
  return "?";
}

namespace {

/// NaN/Inf scan over the logical entries of Â (skips the alignment padding
/// between columns).
template <typename T>
bool dense_all_finite(const DenseMatrix<T>& a) {
  for (index_t j = 0; j < a.cols(); ++j) {
    if (count_non_finite(a.col(j), a.rows()) > 0) return false;
  }
  return true;
}

template <typename T>
bool vector_all_finite(const std::vector<T>& v) {
  return count_non_finite(v.data(), static_cast<index_t>(v.size())) == 0;
}

SapAttemptOutcome outcome_of(StopCause cause) {
  switch (cause) {
    case StopCause::Cancelled: return SapAttemptOutcome::Cancelled;
    case StopCause::DeadlineExceeded:
      return SapAttemptOutcome::DeadlineExceeded;
    case StopCause::BudgetExceeded: return SapAttemptOutcome::BudgetExceeded;
    case StopCause::None: break;
  }
  return SapAttemptOutcome::Success;
}

/// Append the attempt history to a stop or failure message, so either is
/// diagnosable from the message alone (sketch_tool prints it verbatim).
std::string with_attempt_log(const std::string& msg,
                             const std::vector<SapAttemptLog>& log) {
  std::ostringstream os;
  os << "guarded_sap_solve: " << msg << ";";
  for (const SapAttemptLog& l : log) {
    os << " [attempt " << l.attempt << ": " << to_string(l.outcome)
       << ", seed=" << l.seed << ", d=" << l.d << ", cond~" << l.cond_estimate
       << "]";
  }
  return os.str();
}

}  // namespace

template <typename T>
GuardedSapResult<T> guarded_sap_solve(const CscMatrix<T>& a,
                                      const std::vector<T>& b,
                                      const GuardedSapOptions& options) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const SapOptions& base = options.base;
  require(m >= n, "guarded_sap_solve: A must be tall (m >= n)");
  require(static_cast<index_t>(b.size()) == m,
          "guarded_sap_solve: rhs length mismatch");
  require(base.gamma > 1.0, "guarded_sap_solve: gamma must exceed 1");
  require(options.max_attempts >= 1,
          "guarded_sap_solve: max_attempts must be >= 1");
  require(options.d_growth >= 1.0,
          "guarded_sap_solve: d_growth must be >= 1");

  perf::Span root("guarded_sap_solve");
  if (options.check_inputs) {
    perf::Span span("validate_inputs");
    require_valid(a);
    if (!vector_all_finite(b)) {
      throw numeric_error("guarded_sap_solve: rhs contains NaN/Inf");
    }
  }

  ResolvedRunControl rrc(options.control, options.deadline_ms,
                         options.workspace_budget_bytes);
  RunControl* const run = rrc.get();
  SapPipeline<T> pipe(base, run);
  const index_t d0 = pipe.sketch_rows(n);
  const index_t d_cap = std::max(d0, 4 * n);  // paper's d ≤ 4n escalation bound

  GuardedSapResult<T> out;
  int attempt = 0;
  // The guards between the pipeline's steps.
  SapChecks<T> checks;
  // A non-finite Â means A or the pipeline is numerically broken, and the
  // factor stage would only launder the NaNs.
  checks.sketch = [&](DenseMatrix<T>& a_hat) {
    if (attempt < options.poison_first_attempts && a_hat.rows() > 0 && n > 0) {
      a_hat(0, 0) = std::numeric_limits<T>::quiet_NaN();
    }
    return dense_all_finite(a_hat) ? SapAttemptOutcome::Success
                                   : SapAttemptOutcome::SketchNonFinite;
  };
  checks.factor = [&](const SapPreconditioner<T>& p) {
    return p.cond_estimate > options.cond_limit
               ? SapAttemptOutcome::BadPreconditioner
               : SapAttemptOutcome::Success;
  };
  // Breakdown, stagnation above accept_tol, or a non-finite x; a run within
  // accept_tol counts as converged.
  checks.solve = [&](LsqrResult<T>& res) {
    if (res.breakdown) return SapAttemptOutcome::LsqrBreakdown;
    if (!res.converged && res.arnorm_rel > options.accept_tol) {
      return SapAttemptOutcome::NotConverged;
    }
    if (!vector_all_finite(res.x)) return SapAttemptOutcome::LsqrBreakdown;
    res.converged = res.converged || res.arnorm_rel <= options.accept_tol;
    return SapAttemptOutcome::Success;
  };

  // The current attempt's log and clock, which a stop inside it reports.
  SapAttemptLog log;
  Timer attempt_timer;
  try {
    for (; attempt < options.max_attempts; ++attempt) {
      log = SapAttemptLog{};
      log.attempt = attempt + 1;
      attempt_timer.reset();
      // A fired bound stops the solve exactly once, BEFORE the attempt starts —
      // a dead clock or exhausted budget must not burn the remaining attempts
      // one timeout at a time. The poll's throw lands in the catch below,
      // which logs the stop as its own outcome and re-raises with the log.
      if (run != nullptr) run->poll();
      // Timeline marker per attempt (value = 1-based attempt number) so retries
      // and d-escalations are visible between the sketch/factor/lsqr slices.
      if (perf::trace::armed()) {
        static const std::uint32_t attempt_id =
            perf::trace::intern("guarded_sap/attempt");
        perf::trace::instant(attempt_id, static_cast<double>(log.attempt));
      }

      // Fresh seed per retry (SplitMix-derived so nearby attempts are
      // uncorrelated), escalated d toward the 4n cap.
      log.seed = attempt == 0
                     ? base.seed
                     : mix3(base.seed, static_cast<std::uint64_t>(attempt),
                            0x9E3779B97F4A7C15ULL);
      log.d = std::min(
          d_cap, static_cast<index_t>(std::ceil(
                     static_cast<double>(d0) *
                     std::pow(options.d_growth, static_cast<double>(attempt)))));

      SapResult<T> result = pipe.attempt(a, b, checks, log);
      log.seconds = attempt_timer.seconds();
      out.log.push_back(log);
      if (log.outcome != SapAttemptOutcome::Success) {
        perf::add_span("guarded_sap/retry", log.seconds);
        continue;
      }
      perf::add_span("guarded_sap/attempt_ok", log.seconds);
      out.attempts = attempt + 1;
      out.recovered = attempt > 0;
      out.result = std::move(result);
      return out;
    }
  } catch (const run_stopped_error& e) {
    // Log the stopped attempt, with the d, seed and condition estimate it
    // reached, under the stop as its outcome, and re-raise with the attempt
    // history attached, so a stopped solve is as diagnosable as a failed one.
    log.outcome = outcome_of(e.cause());
    log.seconds = attempt_timer.seconds();
    out.log.push_back(log);
    count_stop(e.cause());
    throw run_stopped_error(e.cause(), with_attempt_log(e.what(), out.log));
  }

  throw numeric_error(with_attempt_log(
      "no usable solve in " + std::to_string(options.max_attempts) +
          " attempt(s)",
      out.log));
}

template struct GuardedSapResult<float>;
template struct GuardedSapResult<double>;
template GuardedSapResult<float> guarded_sap_solve<float>(
    const CscMatrix<float>&, const std::vector<float>&,
    const GuardedSapOptions&);
template GuardedSapResult<double> guarded_sap_solve<double>(
    const CscMatrix<double>&, const std::vector<double>&,
    const GuardedSapOptions&);

}  // namespace rsketch
