#include "solvers/minimum_norm.hpp"

#include <cmath>
#include <sstream>

#include "perf/perf.hpp"
#include "sketch/sketch.hpp"
#include "solvers/lsqr.hpp"
#include "solvers/triangular.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "support/memory_tracker.hpp"
#include "support/timer.hpp"

namespace rsketch {

template <typename T>
SapResult<T> sap_solve_minimum_norm(const CscMatrix<T>& a,
                                    const std::vector<T>& b,
                                    const SapOptions& options) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  require(m <= n, "sap_solve_minimum_norm: A must be wide (m <= n)");
  require(static_cast<index_t>(b.size()) == m,
          "sap_solve_minimum_norm: rhs length mismatch");
  require(options.gamma > 1.0, "sap_solve_minimum_norm: gamma must exceed 1");
  require(options.factor == SapFactor::QR,
          "sap_solve_minimum_norm: only the QR factor is supported");

  perf::Span root("sap_solve_minimum_norm");
  SapResult<T> out;
  MemoryTracker mem;
  Timer total;

  // --- 1. Sketch the tall transpose: Â = S·Aᵀ, d = ⌈γm⌉.
  Timer phase;
  SketchConfig cfg;
  cfg.d = static_cast<index_t>(std::ceil(options.gamma * static_cast<double>(m)));
  cfg.seed = options.seed;
  cfg.dist = options.dist;
  cfg.backend = options.backend;
  cfg.kernel = options.kernel;
  cfg.parallel = options.parallel;
  cfg.normalize = true;
  DenseMatrix<T> a_hat;  // sized d×m by sketch_into
  {
    perf::Span span("sap/sketch");
    const CscMatrix<T> at = transpose(a);
    sketch_into(cfg, at, a_hat);
  }
  out.sketch_seconds = phase.seconds();
  mem.add("sketch of A^T", a_hat.memory_bytes());

  // --- 2. QR of the sketch: R preconditions the ROW space of A.
  phase.reset();
  SapPreconditioner<T> precond;
  {
    perf::Span span("sap/factor");
    precond = sap_build_preconditioner(std::move(a_hat), SapFactor::QR,
                                       options.sigma_drop);
  }
  if (!precond.usable()) {
    std::ostringstream os;
    os << "sap_solve_minimum_norm: R of the sketch of A^T is singular "
          "(cond~"
       << precond.cond_estimate
       << "); the rows of A are numerically dependent";
    throw numeric_error(os.str());
  }
  const DenseMatrix<T>& r_mat = precond.r;
  out.factor_seconds = phase.seconds();
  out.rank = m;
  mem.add("R factor", r_mat.memory_bytes());

  // --- 3. LSQR on M = R⁻ᵀA with rhs R⁻ᵀb. For a compatible system LSQR
  //        converges to the minimum-norm solution of Mx = R⁻ᵀb, which is
  //        the minimum-norm solution of Ax = b (row scaling by an
  //        invertible R⁻ᵀ preserves the solution set and the norm being
  //        minimized is still ‖x‖).
  phase.reset();
  {
    perf::Span span("sap/lsqr");
    LinearOperator<T> op;
    op.rows = m;
    op.cols = n;
    std::vector<T> scratch(static_cast<std::size_t>(m));
    op.apply = [&a, &r_mat, &scratch, m](const T* x, T* z) {
      spmv(a, x, scratch.data());
      for (index_t i = 0; i < m; ++i) z[i] = scratch[static_cast<std::size_t>(i)];
      solve_upper_transpose(r_mat, z);
    };
    op.apply_adjoint = [&a, &r_mat, &scratch, m](const T* z, T* x) {
      for (index_t i = 0; i < m; ++i) scratch[static_cast<std::size_t>(i)] = z[i];
      solve_upper(r_mat, scratch.data());
      spmv_transpose(a, scratch.data(), x);
    };

    std::vector<T> rhs(b);
    solve_upper_transpose(r_mat, rhs.data());
    mem.add("LSQR workspace",
            static_cast<std::size_t>(2 * n + 4 * m) * sizeof(T));

    LsqrOptions lo;
    lo.tol = options.lsqr_tol;
    lo.max_iter = options.lsqr_max_iter;
    LsqrResult<T> res = lsqr(op, rhs.data(), lo);
    out.iterations = res.iterations;
    out.converged = res.converged;
    out.x = std::move(res.x);
  }
  out.lsqr_seconds = phase.seconds();

  out.total_seconds = total.seconds();
  out.workspace_bytes = mem.peak_bytes();
  return out;
}

template SapResult<float> sap_solve_minimum_norm<float>(
    const CscMatrix<float>&, const std::vector<float>&, const SapOptions&);
template SapResult<double> sap_solve_minimum_norm<double>(
    const CscMatrix<double>&, const std::vector<double>&, const SapOptions&);

}  // namespace rsketch
