#include "solvers/sap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "dense/blas1.hpp"
#include "perf/perf.hpp"
#include "sketch/sketch.hpp"
#include "solvers/qr.hpp"
#include "solvers/sap_pipeline.hpp"
#include "solvers/svd.hpp"
#include "solvers/triangular.hpp"
#include "sparse/ops.hpp"
#include "support/run_control.hpp"
#include "support/timer.hpp"

namespace rsketch {

namespace {

/// y := M·x for a dense n×k matrix (column-major), x length k.
template <typename T>
void dense_matvec(const DenseMatrix<T>& m_mat, const T* x, T* y) {
  for (index_t i = 0; i < m_mat.rows(); ++i) y[i] = T{0};
  for (index_t j = 0; j < m_mat.cols(); ++j) {
    axpy(m_mat.rows(), x[j], m_mat.col(j), y);
  }
}

/// y := Mᵀ·x, x length n.
template <typename T>
void dense_matvec_t(const DenseMatrix<T>& m_mat, const T* x, T* y) {
  for (index_t j = 0; j < m_mat.cols(); ++j) {
    y[j] = dot(m_mat.rows(), m_mat.col(j), x);
  }
}

/// Factor Â (consumed) into a right preconditioner. A degenerate sketch does
/// not throw here: it comes back with rank 0 or an infinite cond_estimate.
template <typename T>
SapPreconditioner<T> sap_build_preconditioner(DenseMatrix<T>&& a_hat,
                                              SapFactor kind,
                                              double sigma_drop) {
  SapPreconditioner<T> p;
  p.kind = kind;
  p.n = a_hat.cols();
  if (kind == SapFactor::QR) {
    QrFactor<T> f = qr_factorize(std::move(a_hat));
    p.r = extract_r(f);
    p.rank = p.n;
    // Diagonal-ratio condition estimate: max|r_ii|/min|r_ii| lower-bounds
    // cond₂(Â); zero or non-finite diagonal ⇒ the triangular solve would
    // break down, reported as +inf rather than a throw.
    double dmin = 1e300, dmax = 0.0;
    bool bad = false;
    for (index_t i = 0; i < p.n; ++i) {
      const double d = std::fabs(static_cast<double>(p.r(i, i)));
      if (!std::isfinite(d) || d == 0.0) bad = true;
      dmin = std::min(dmin, d);
      dmax = std::max(dmax, d);
    }
    p.cond_estimate = (bad || p.n == 0)
                          ? (p.n == 0 ? 0.0 : std::numeric_limits<double>::infinity())
                          : dmax / dmin;
  } else {
    SvdResult<T> svd = jacobi_svd(std::move(a_hat));
    const double smax =
        svd.sigma.empty() ? 0.0 : static_cast<double>(svd.sigma.front());
    if (!std::isfinite(smax)) {
      p.cond_estimate = std::numeric_limits<double>::infinity();
      return p;  // rank 0: a non-finite sketch has no usable factor
    }
    index_t rank = 0;
    for (T s : svd.sigma) {
      if (static_cast<double>(s) > smax * sigma_drop) ++rank;
    }
    p.rank = rank;
    if (rank == 0) {
      p.cond_estimate = std::numeric_limits<double>::infinity();
      return p;
    }
    p.cond_estimate =
        smax / static_cast<double>(svd.sigma[static_cast<std::size_t>(rank - 1)]);
    p.n_mat.reset(p.n, rank);
    for (index_t j = 0; j < rank; ++j) {
      const T inv = static_cast<T>(
          1.0 / static_cast<double>(svd.sigma[static_cast<std::size_t>(j)]));
      const T* vj = svd.v.col(j);
      T* nj = p.n_mat.col(j);
      for (index_t i = 0; i < p.n; ++i) nj[i] = vj[i] * inv;
    }
  }
  return p;
}

/// The preconditioned operator A·N. `a`, `p`, and `scratch` (resized to
/// length n here) must all outlive the returned operator.
template <typename T>
LinearOperator<T> sap_preconditioned_operator(const CscMatrix<T>& a,
                                              const SapPreconditioner<T>& p,
                                              std::vector<T>& scratch) {
  const index_t n = p.n;
  scratch.assign(static_cast<std::size_t>(n), T{0});
  LinearOperator<T> op;
  op.rows = a.rows();
  op.cols = p.rank;
  if (p.kind == SapFactor::QR) {
    op.apply = [&a, &p, &scratch, n](const T* y, T* z) {
      for (index_t i = 0; i < n; ++i) scratch[static_cast<std::size_t>(i)] = y[i];
      solve_upper(p.r, scratch.data());
      spmv(a, scratch.data(), z);
    };
    op.apply_adjoint = [&a, &p, &scratch, n](const T* z, T* y) {
      spmv_transpose(a, z, scratch.data());
      solve_upper_transpose(p.r, scratch.data());
      for (index_t i = 0; i < n; ++i) y[i] = scratch[static_cast<std::size_t>(i)];
    };
  } else {
    op.apply = [&a, &p, &scratch](const T* y, T* z) {
      dense_matvec(p.n_mat, y, scratch.data());
      spmv(a, scratch.data(), z);
    };
    op.apply_adjoint = [&a, &p, &scratch](const T* z, T* y) {
      spmv_transpose(a, z, scratch.data());
      dense_matvec_t(p.n_mat, scratch.data(), y);
    };
  }
  return op;
}

/// x (length n) := N·y (y of length p.rank) — maps LSQR's solution back.
template <typename T>
void sap_recover_solution(const SapPreconditioner<T>& p, const T* y, T* x) {
  if (p.kind == SapFactor::QR) {
    for (index_t i = 0; i < p.n; ++i) x[i] = y[i];
    solve_upper(p.r, x);
  } else {
    dense_matvec(p.n_mat, y, x);
  }
}

}  // namespace

template <typename T>
SapPipeline<T>::SapPipeline(const SapOptions& options, RunControl* control)
    : options_(options), control_(control) {
  mem_.attach(control);
}

template <typename T>
index_t SapPipeline<T>::sketch_rows(index_t cols) const {
  return static_cast<index_t>(
      std::ceil(options_.gamma * static_cast<double>(cols)));
}

template <typename T>
DenseMatrix<T> SapPipeline<T>::sketch(const CscMatrix<T>& a, index_t d,
                                      std::uint64_t seed) {
  SketchConfig cfg;
  cfg.d = d;
  cfg.seed = seed;
  cfg.dist = options_.dist;
  cfg.kernel = options_.kernel;
  cfg.normalize = true;
  // The sketch polls the same control between outer blocks and routes its
  // workspace through the same budget (deadline/budget fields stay zero —
  // they are already armed on the control, re-arming would reset the clock).
  cfg.control = control_;
  Timer phase;
  DenseMatrix<T> a_hat;  // sized d×n by sketch_into
  {
    perf::Span span("sap/sketch");
    sketch_into(cfg, a, a_hat);
  }
  phases_.sketch_seconds += phase.seconds();
  mem_.add("sketch A_hat", a_hat.memory_bytes());
  return a_hat;
}

template <typename T>
SapPreconditioner<T> SapPipeline<T>::factor(DenseMatrix<T>&& a_hat) {
  Timer phase;
  SapPreconditioner<T> p;
  {
    perf::Span span("sap/factor");
    p = sap_build_preconditioner(std::move(a_hat), options_.factor,
                                 options_.sigma_drop);
  }
  if (p.usable()) {
    mem_.add("factor", p.kind == SapFactor::QR ? p.r.memory_bytes()
                                               : p.n_mat.memory_bytes());
  }
  // Â's storage was consumed by the factorization (moved in, freed with the
  // factor object); the peak above already accounted for the overlap.
  mem_.release("sketch A_hat");
  phases_.factor_seconds += phase.seconds();
  return p;
}

template <typename T>
LsqrResult<T> SapPipeline<T>::lsqr(
    const LinearOperator<T>& op, const T* rhs,
    const std::function<std::vector<T>(std::vector<T>&&)>& recover) {
  Timer phase;
  LsqrResult<T> res;
  {
    perf::Span span("sap/lsqr");
    mem_.add("LSQR workspace",
             static_cast<std::size_t>(2 * op.rows + 4 * op.cols) * sizeof(T));
    LsqrOptions lo;
    lo.tol = options_.lsqr_tol;
    lo.max_iter = options_.lsqr_max_iter;
    lo.control = control_;
    res = rsketch::lsqr(op, rhs, lo);
    res.x = recover(std::move(res.x));
  }
  phases_.lsqr_seconds += phase.seconds();
  return res;
}

template <typename T>
SapResult<T> SapPipeline<T>::finish(LsqrResult<T>&& res, index_t rank) {
  SapResult<T> out = phases_;
  out.x = std::move(res.x);
  out.iterations = res.iterations;
  out.converged = res.converged;
  out.rank = rank;
  out.total_seconds = total_.seconds();
  out.workspace_bytes = mem_.peak_bytes();
  return out;
}

template <typename T>
SapResult<T> SapPipeline<T>::attempt(const CscMatrix<T>& a,
                                     const std::vector<T>& b,
                                     const SapChecks<T>& checks,
                                     SapAttemptLog& log) {
  // Whatever an earlier attempt still holds is freed by now; the tracker
  // keeps its peak.
  for (const char* label : {"sketch A_hat", "factor", "LSQR workspace"}) {
    mem_.release(label);
  }
  const auto passes = [&log](SapAttemptOutcome outcome) {
    log.outcome = outcome;
    return outcome == SapAttemptOutcome::Success;
  };
  const auto check = [](const auto& fn, auto& arg) {
    return fn ? fn(arg) : SapAttemptOutcome::Success;
  };

  DenseMatrix<T> a_hat = sketch(a, log.d, log.seed);
  if (!passes(check(checks.sketch, a_hat))) return {};

  const SapPreconditioner<T> p = factor(std::move(a_hat));
  log.cond_estimate = p.cond_estimate;
  if (!passes(p.usable() ? check(checks.factor, p)
                         : SapAttemptOutcome::BadPreconditioner)) {
    return {};
  }

  // LSQR on the preconditioned operator A·N, then x = N·y.
  std::vector<T> scratch_n;
  LsqrResult<T> res = lsqr(sap_preconditioned_operator(a, p, scratch_n),
                           b.data(), [&p](std::vector<T>&& y) {
                             std::vector<T> x(static_cast<std::size_t>(p.n));
                             sap_recover_solution(p, y.data(), x.data());
                             return x;
                           });
  log.lsqr_iterations = res.iterations;
  if (!passes(check(checks.solve, res))) return {};
  return finish(std::move(res), p.rank);
}

template <typename T>
SapResult<T> sap_solve(const CscMatrix<T>& a, const std::vector<T>& b,
                       const SapOptions& options) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  require(m >= n, "sap_solve: A must be tall (m >= n); transpose first");
  require(static_cast<index_t>(b.size()) == m,
          "sap_solve: rhs length mismatch");
  require(options.gamma > 1.0, "sap_solve: gamma must exceed 1");

  perf::Span root("sap_solve");
  // RSKETCH_DEADLINE_MS / RSKETCH_BUDGET_MB bound the whole solve, as they do
  // the guarded one; with neither set the control stays null.
  ResolvedRunControl rrc(nullptr, 0.0, 0);
  SapPipeline<T> pipe(options, rrc.get());
  SapAttemptLog log;
  log.d = pipe.sketch_rows(n);
  log.seed = options.seed;
  SapResult<T> out = pipe.attempt(a, b, {}, log);
  if (log.outcome != SapAttemptOutcome::Success) {
    // Fail here, as a numeric failure, rather than at the first zero pivot
    // inside LSQR's triangular solve.
    std::ostringstream os;
    if (options.factor == SapFactor::QR) {
      os << "sap_solve: R of the sketch is singular (cond~"
         << log.cond_estimate
         << "); A is numerically rank-deficient: use SapFactor::SVD (--svd) "
            "or guarded_sap_solve (--guarded)";
    } else {
      os << "sap_solve: the sketch is numerically zero (SVD rank 0)";
    }
    throw numeric_error(os.str());
  }
  return out;
}

#define RSKETCH_INSTANTIATE(T)                                               \
  template struct SapResult<T>;                                              \
  template class SapPipeline<T>;                                             \
  template SapResult<T> sap_solve<T>(const CscMatrix<T>&,                    \
                                     const std::vector<T>&,                  \
                                     const SapOptions&);

RSKETCH_INSTANTIATE(float)
RSKETCH_INSTANTIATE(double)
#undef RSKETCH_INSTANTIATE

}  // namespace rsketch
