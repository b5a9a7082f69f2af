#include "solvers/guarded.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "perf/perf.hpp"
#include "perf/trace.hpp"
#include "rng/splitmix64.hpp"
#include "sketch/sketch.hpp"
#include "sparse/validate.hpp"
#include "support/memory_tracker.hpp"
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

/// Append the attempt history to a stop message so the failure is as
/// diagnosable as the numeric_error path (sketch_tool prints this verbatim).
std::string with_attempt_log(const std::string& msg,
                             const std::vector<SapAttemptLog>& log) {
  std::ostringstream os;
  os << "guarded_sap_solve: " << msg << ";";
  for (const SapAttemptLog& l : log) {
    os << " [attempt " << l.attempt << ": " << to_string(l.outcome)
       << ", d=" << l.d << ", cond~" << l.cond_estimate << "]";
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
  if (options.check_inputs) {
    perf::Span span("validate_inputs");
    require_valid(a);
    if (!vector_all_finite(b)) {
      throw numeric_error("guarded_sap_solve: rhs contains NaN/Inf");
    }
  }

  const index_t d0 =
      static_cast<index_t>(std::ceil(base.gamma * static_cast<double>(n)));
  const index_t d_cap = std::max(d0, 4 * n);  // paper's d ≤ 4n escalation bound

  ResolvedRunControl rrc(options.control, options.deadline_ms,
                         options.workspace_budget_bytes);
  RunControl* const run = rrc.get();

  GuardedSapResult<T> out;
  MemoryTracker mem;
  mem.attach(run);
  Timer total;
  double sketch_s = 0.0, factor_s = 0.0, lsqr_s = 0.0;

  int attempt_no = 0;
  try {
    for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
      attempt_no = attempt + 1;
      // A fired bound stops the solve exactly once, BEFORE the attempt starts —
      // a dead clock or exhausted budget must not burn the remaining attempts
      // one timeout at a time. The poll's throw lands in the catch below,
      // which logs the stop as its own outcome and re-raises with the log.
      if (run != nullptr) run->poll();
      Timer attempt_timer;
      SapAttemptLog log;
      log.attempt = attempt + 1;
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

      const auto fail = [&](SapAttemptOutcome outcome) {
        log.outcome = outcome;
        log.seconds = attempt_timer.seconds();
        perf::add_span("guarded_sap/retry", log.seconds);
        out.log.push_back(log);
      };

      SketchConfig cfg;
      cfg.d = log.d;
      cfg.seed = log.seed;
      cfg.dist = base.dist;
      cfg.backend = base.backend;
      cfg.kernel = base.kernel;
      cfg.block_d = base.block_d;
      cfg.block_n = base.block_n;
      cfg.parallel = base.parallel;
      cfg.normalize = true;
      // The sketch polls the same control between outer blocks and routes its
      // workspace through the same budget (deadline/budget fields stay zero —
      // they are already armed on `run`, re-arming would reset the clock).
      cfg.control = run;

      // --- Sketch, then scan it: a non-finite Â means A or the pipeline is
      // numerically broken and the factor stage would only launder the NaNs.
      Timer phase;
      DenseMatrix<T> a_hat(cfg.d, n);
      {
        perf::Span span("guarded_sap/sketch");
        sketch_into(cfg, a, a_hat);
      }
      if (attempt < options.poison_first_attempts && cfg.d > 0 && n > 0) {
        a_hat(0, 0) = std::numeric_limits<T>::quiet_NaN();
      }
      sketch_s += phase.seconds();
      mem.add("sketch A_hat", a_hat.memory_bytes());
      if (!dense_all_finite(a_hat)) {
        mem.release("sketch A_hat");
        fail(SapAttemptOutcome::SketchNonFinite);
        continue;
      }

      // --- Factor and gate on the condition estimate.
      phase.reset();
      SapPreconditioner<T> precond;
      {
        perf::Span span("guarded_sap/factor");
        precond = sap_build_preconditioner(std::move(a_hat), base.factor,
                                           base.sigma_drop);
      }
      factor_s += phase.seconds();
      log.cond_estimate = precond.cond_estimate;
      mem.release("sketch A_hat");  // consumed by the factorization
      if (!precond.usable() || precond.cond_estimate > options.cond_limit) {
        fail(SapAttemptOutcome::BadPreconditioner);
        continue;
      }
      mem.add("factor", precond.kind == SapFactor::QR
                            ? precond.r.memory_bytes()
                            : precond.n_mat.memory_bytes());

      // --- LSQR with breakdown detection.
      phase.reset();
      std::vector<T> scratch_n;
      LinearOperator<T> op = sap_preconditioned_operator(a, precond, scratch_n);
      mem.add("LSQR workspace",
              static_cast<std::size_t>(2 * m + 4 * n) * sizeof(T));
      LsqrOptions lo;
      lo.tol = base.lsqr_tol;
      lo.max_iter = base.lsqr_max_iter;
      lo.control = run;
      LsqrResult<T> res;
      {
        perf::Span span("guarded_sap/lsqr");
        res = lsqr(op, b.data(), lo);
      }
      lsqr_s += phase.seconds();
      log.lsqr_iterations = res.iterations;
      mem.release("LSQR workspace");
      if (res.breakdown) {
        mem.release("factor");
        fail(SapAttemptOutcome::LsqrBreakdown);
        continue;
      }
      if (!res.converged && res.arnorm_rel > options.accept_tol) {
        mem.release("factor");
        fail(SapAttemptOutcome::NotConverged);
        continue;
      }

      // --- Accept: recover x = N·y and double-check it is finite.
      std::vector<T> x(static_cast<std::size_t>(n), T{0});
      sap_recover_solution(precond, res.x.data(), x.data());
      if (!vector_all_finite(x)) {
        mem.release("factor");
        fail(SapAttemptOutcome::LsqrBreakdown);
        continue;
      }

      log.outcome = SapAttemptOutcome::Success;
      log.seconds = attempt_timer.seconds();
      perf::add_span("guarded_sap/attempt_ok", log.seconds);
      out.log.push_back(log);
      out.attempts = attempt + 1;
      out.recovered = attempt > 0;
      out.result.x = std::move(x);
      out.result.iterations = res.iterations;
      out.result.converged = res.converged || res.arnorm_rel <= options.accept_tol;
      out.result.rank = precond.rank;
      out.result.sketch_seconds = sketch_s;
      out.result.factor_seconds = factor_s;
      out.result.lsqr_seconds = lsqr_s;
      out.result.total_seconds = total.seconds();
      out.result.workspace_bytes = mem.peak_bytes();
      return out;
    }
  } catch (const run_stopped_error& e) {
    // Log the stop as its own outcome and re-raise with the attempt history
    // attached, so a stopped solve is as diagnosable as a failed one.
    SapAttemptLog stopped;
    stopped.attempt = attempt_no;
    stopped.outcome = outcome_of(e.cause());
    out.log.push_back(stopped);
    count_stop(e.cause());
    throw run_stopped_error(e.cause(), with_attempt_log(e.what(), out.log));
  }

  std::ostringstream os;
  os << "guarded_sap_solve: no usable solve in " << options.max_attempts
     << " attempt(s);";
  for (const SapAttemptLog& log : out.log) {
    os << " [attempt " << log.attempt << ": " << to_string(log.outcome)
       << ", d=" << log.d << ", cond~" << log.cond_estimate << "]";
  }
  throw numeric_error(os.str());
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
