#include "sketch/sketch_dense.hpp"

#include <vector>

#include "sketch/frame.hpp"
#include "sketch/outer_blocking.hpp"
#include "sparse/validate.hpp"

namespace rsketch {

namespace {

/// check_inputs scan for the dense path: a NaN/Inf in X is reported through
/// the same validation_error channel as the sparse validators, with a
/// column-attributed report instead of a bare message.
template <typename T>
void require_finite_dense(const DenseMatrix<T>& x) {
  ValidationReport report;
  report.structure = "dense";
  report.rows = x.rows();
  report.cols = x.cols();
  report.nnz = x.rows() * x.cols();
  for (index_t j = 0; j < x.cols(); ++j) {
    const index_t bad = count_non_finite(x.col(j), x.rows());
    if (bad == 0) continue;
    if (report.findings_total == 0) {
      report.findings.push_back(
          {ValidationIssue::NonFiniteValue, j,
           "column " + std::to_string(j) + " contains " +
               std::to_string(bad) + " non-finite value(s)"});
    }
    report.findings_total += bad;
    report.non_finite_values += bad;
  }
  if (!report.ok()) throw validation_error(std::move(report));
}

}  // namespace

template <typename T>
SketchStats sketch_dense_into(const SketchConfig& cfg, const DenseMatrix<T>& x,
                              DenseMatrix<T>& y) {
  return sketch_frame<DenseMatrix<T>>(
      cfg, y,
      {.rows = x.rows(),
       .cols = x.cols(),
       .check = [&] { require_finite_dense(x); },
       .stage = [&](DenseMatrix<T>& out) { fit(out, cfg.d, x.cols()); },
       .body = [&](const SketchConfig& c, DenseMatrix<T>& out,
                   RunControl* run) {
         return sketch_blocked_dense(c, x, out, run);
       }});
}

template <typename T>
std::vector<T> sketch_dense_vector(const SketchConfig& cfg, const T* x,
                                   index_t m) {
  DenseMatrix<T> xm(m, 1);
  for (index_t i = 0; i < m; ++i) xm(i, 0) = x[i];
  DenseMatrix<T> y;
  sketch_dense_into(cfg, xm, y);
  std::vector<T> out(static_cast<std::size_t>(cfg.d));
  for (index_t i = 0; i < cfg.d; ++i) out[static_cast<std::size_t>(i)] = y(i, 0);
  return out;
}

template SketchStats sketch_dense_into<float>(const SketchConfig&,
                                              const DenseMatrix<float>&,
                                              DenseMatrix<float>&);
template SketchStats sketch_dense_into<double>(const SketchConfig&,
                                               const DenseMatrix<double>&,
                                               DenseMatrix<double>&);
template std::vector<float> sketch_dense_vector<float>(const SketchConfig&,
                                                       const float*, index_t);
template std::vector<double> sketch_dense_vector<double>(const SketchConfig&,
                                                         const double*,
                                                         index_t);

}  // namespace rsketch
