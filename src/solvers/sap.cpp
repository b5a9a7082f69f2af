#include "solvers/sap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "dense/blas1.hpp"
#include "perf/perf.hpp"
#include "sketch/sketch.hpp"
#include "solvers/qr.hpp"
#include "solvers/svd.hpp"
#include "solvers/triangular.hpp"
#include "sparse/ops.hpp"
#include "support/memory_tracker.hpp"
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

}  // namespace

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

template <typename T>
void sap_recover_solution(const SapPreconditioner<T>& p, const T* y, T* x) {
  if (p.kind == SapFactor::QR) {
    for (index_t i = 0; i < p.n; ++i) x[i] = y[i];
    solve_upper(p.r, x);
  } else {
    dense_matvec(p.n_mat, y, x);
  }
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
  SapResult<T> out;
  MemoryTracker mem;
  Timer total;

  // --- 1. Sketch: Â = S·A, d = ⌈γn⌉, normalized to an approximate isometry.
  SketchConfig cfg;
  cfg.d = static_cast<index_t>(std::ceil(options.gamma * static_cast<double>(n)));
  cfg.seed = options.seed;
  cfg.dist = options.dist;
  cfg.backend = options.backend;
  cfg.kernel = options.kernel;
  cfg.parallel = options.parallel;
  cfg.normalize = true;

  Timer phase;
  DenseMatrix<T> a_hat;  // sized d×n by sketch_into
  {
    perf::Span span("sap/sketch");
    sketch_into(cfg, a, a_hat);
  }
  out.sketch_seconds = phase.seconds();
  mem.add("sketch A_hat", a_hat.memory_bytes());

  // --- 2. Factor Â into a right preconditioner N.
  phase.reset();
  SapPreconditioner<T> precond;
  {
    perf::Span span("sap/factor");
    precond = sap_build_preconditioner(std::move(a_hat), options.factor,
                                       options.sigma_drop);
  }
  if (!precond.usable()) {
    // Fail here, as a numeric failure, rather than at the first zero pivot
    // inside LSQR's triangular solve.
    std::ostringstream os;
    if (options.factor == SapFactor::QR) {
      os << "sap_solve: R of the sketch is singular (cond~"
         << precond.cond_estimate
         << "); A is numerically rank-deficient: use SapFactor::SVD (--svd) "
            "or guarded_sap_solve (--guarded)";
    } else {
      os << "sap_solve: the sketch is numerically zero (SVD rank 0)";
    }
    throw numeric_error(os.str());
  }
  mem.add(options.factor == SapFactor::QR ? "R factor" : "V*Sigma^+ factor",
          options.factor == SapFactor::QR ? precond.r.memory_bytes()
                                          : precond.n_mat.memory_bytes());
  out.factor_seconds = phase.seconds();
  out.rank = precond.rank;
  // Â's storage was consumed by the factorization (moved in, freed with the
  // factor object); the peak above already accounted for the overlap.
  mem.release("sketch A_hat");

  // --- 3. LSQR on the preconditioned operator A·N, then recover x = N·y.
  phase.reset();
  {
    perf::Span span("sap/lsqr");
    std::vector<T> scratch_n;
    LinearOperator<T> op = sap_preconditioned_operator(a, precond, scratch_n);
    mem.add("LSQR workspace",
            static_cast<std::size_t>(2 * m + 4 * n) * sizeof(T));

    LsqrOptions lo;
    lo.tol = options.lsqr_tol;
    lo.max_iter = options.lsqr_max_iter;
    LsqrResult<T> res = lsqr(op, b.data(), lo);
    out.iterations = res.iterations;
    out.converged = res.converged;
    out.x.assign(static_cast<std::size_t>(n), T{0});
    sap_recover_solution(precond, res.x.data(), out.x.data());
  }
  out.lsqr_seconds = phase.seconds();

  out.total_seconds = total.seconds();
  out.workspace_bytes = mem.peak_bytes();
  return out;
}

#define RSKETCH_INSTANTIATE(T)                                               \
  template struct SapResult<T>;                                              \
  template struct SapPreconditioner<T>;                                      \
  template SapResult<T> sap_solve<T>(const CscMatrix<T>&,                    \
                                     const std::vector<T>&,                  \
                                     const SapOptions&);                     \
  template SapPreconditioner<T> sap_build_preconditioner<T>(                 \
      DenseMatrix<T>&&, SapFactor, double);                                  \
  template LinearOperator<T> sap_preconditioned_operator<T>(                 \
      const CscMatrix<T>&, const SapPreconditioner<T>&, std::vector<T>&);    \
  template void sap_recover_solution<T>(const SapPreconditioner<T>&,         \
                                        const T*, T*);

RSKETCH_INSTANTIATE(float)
RSKETCH_INSTANTIATE(double)
#undef RSKETCH_INSTANTIATE

}  // namespace rsketch
