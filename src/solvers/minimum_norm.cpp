#include "solvers/minimum_norm.hpp"

#include <sstream>

#include "perf/perf.hpp"
#include "solvers/sap_pipeline.hpp"
#include "solvers/triangular.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"

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
  SapPipeline<T> pipe(options);
  try {
    // --- Sketch the tall transpose, Â = S·Aᵀ with d = ⌈γm⌉, and factor it:
    //     R preconditions the ROW space of A.
    const SapPreconditioner<T> precond = pipe.factor(
        pipe.sketch(transpose(a), pipe.sketch_rows(m), options.seed));
    if (!precond.usable()) {
      std::ostringstream os;
      os << "sap_solve_minimum_norm: R of the sketch of A^T is singular "
            "(cond~"
         << precond.cond_estimate
         << "); the rows of A are numerically dependent";
      throw numeric_error(os.str());
    }
    const DenseMatrix<T>& r_mat = precond.r;

    // --- LSQR on M = R⁻ᵀA with rhs R⁻ᵀb. For a compatible system LSQR
    //     converges to the minimum-norm solution of Mx = R⁻ᵀb, which is
    //     the minimum-norm solution of Ax = b (row scaling by an
    //     invertible R⁻ᵀ preserves the solution set and the norm being
    //     minimized is still ‖x‖), so x is LSQR's own solution.
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
    return pipe.finish(
        pipe.lsqr(op, rhs.data(), [](std::vector<T>&& y) { return std::move(y); }),
        precond.rank);
  } catch (const run_stopped_error& e) {
    pipe.count_stop(e.cause());
    throw;
  }
}

template SapResult<float> sap_solve_minimum_norm<float>(
    const CscMatrix<float>&, const std::vector<float>&, const SapOptions&);
template SapResult<double> sap_solve_minimum_norm<double>(
    const CscMatrix<double>&, const std::vector<double>&, const SapOptions&);

}  // namespace rsketch
