// The rule behind spmv()'s two paths: per-call time of the sequential column
// scatter against the row split on the whole team, over nonzero counts on
// both sides of kSpmvParallelNnz and average column lengths on both sides of
// kSpmvParallelColumnNnz (sparse/ops.hpp). The row split walks every column
// in every thread, so it wins only on long columns; wide operands with short
// columns (minimum-norm's A) stay on the scatter.
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sparse/generate.hpp"
#include "sparse/ops.hpp"

using namespace rsketch;

namespace {

/// y[r0, r1) := A·x restricted to those rows, adding in column order; the
/// whole range is the sequential scatter. Mirrors spmv()'s row split, which
/// the library runs only where spmv_splits_rows() says so.
void scatter_rows(const CscMatrix<double>& a, const double* x, double* y,
                  index_t r0, index_t r1) {
  std::fill(y + r0, y + r1, 0.0);
  const bool all_rows = r0 == 0 && r1 == a.rows();
  const index_t* const ri = a.row_idx().data();
  for (index_t j = 0; j < a.cols(); ++j) {
    const index_t* lo = ri + a.col_ptr()[j];
    const index_t* hi = ri + a.col_ptr()[j + 1];
    if (!all_rows) {
      lo = std::lower_bound(lo, hi, r0);
      hi = std::lower_bound(lo, hi, r1);
    }
    for (const index_t* p = lo; p < hi; ++p) {
      y[*p] += x[j] * a.values()[p - ri];
    }
  }
}

void row_split(const CscMatrix<double>& a, const double* x, double* y) {
  const index_t m = a.rows();
#pragma omp parallel
  {
    const index_t t = omp_get_thread_num();
    const index_t team = omp_get_num_threads();
    scatter_rows(a, x, y, m * t / team, m * (t + 1) / team);
  }
}

/// Best-of-reps microseconds per call, each rep a batch of calls long
/// enough to dwarf the timer.
double us_per_call(const CscMatrix<double>& a, int reps,
                   const std::function<void()>& call) {
  const int batch = static_cast<int>(
      std::max<index_t>(4, 20'000'000 / (a.nnz() + a.rows() + a.cols())));
  call();  // warm caches and the thread team
  return bench::time_best(reps, [&] {
           for (int i = 0; i < batch; ++i) call();
         }) / batch * 1e6;
}

}  // namespace

int main() {
  bench::print_banner(
      "ABLATION — spmv: sequential scatter vs row split on the team",
      "not in the paper; LSQR's A·v inside the SAP solve (§V-C)");
  const int reps = std::max(5, bench_reps());
  const int threads = omp_get_max_threads();

  struct Shape {
    const char* label;
    index_t m, n;
    double density;
  };
  const Shape shapes[] = {
      {"2000 x 50, 4k nnz", 2000, 50, 0.04},
      {"2000 x 50, 8k nnz", 2000, 50, 0.08},
      {"2000 x 50, 16k nnz", 2000, 50, 0.16},
      {"2000 x 50, 32k nnz", 2000, 50, 0.32},
      {"2000 x 50, 64k nnz", 2000, 50, 0.64},
      {"60000 x 12000, 25/col", 60000, 12000, 25.0 / 60000},
      {"60000 x 6000, 50/col", 60000, 6000, 50.0 / 60000},
      {"60000 x 3000, 100/col", 60000, 3000, 100.0 / 60000},
      {"60000 x 2000, 150/col", 60000, 2000, 150.0 / 60000},
      {"60000 x 1500, 200/col", 60000, 1500, 200.0 / 60000},
      {"60000 x 500 (sap_solve A)", 60000, 500, 0.01},
      {"500 x 60000, wide", 500, 60000, 0.01},
      {"1000 x 100000, wide", 1000, 100000, 0.003},
  };

  Table t("Per-call microseconds, " + std::to_string(threads) + " threads:");
  t.set_header({"A", "nnz", "nnz/col", "scatter", "row split", "split/scatter",
                "spmv picks", "spmv"});
  for (const Shape& s : shapes) {
    const auto a = random_sparse<double>(s.m, s.n, s.density, 7);
    std::vector<double> x(static_cast<std::size_t>(s.n));
    std::vector<double> y(static_cast<std::size_t>(s.m));
    for (index_t j = 0; j < s.n; ++j) x[j] = 1.0 / static_cast<double>(3 + j);
    const double seq = us_per_call(
        a, reps, [&] { scatter_rows(a, x.data(), y.data(), 0, s.m); });
    const double split =
        us_per_call(a, reps, [&] { row_split(a, x.data(), y.data()); });
    const double lib =
        us_per_call(a, reps, [&] { spmv(a, x.data(), y.data()); });
    t.add_row({s.label, std::to_string(a.nnz()),
               fmt_fixed(static_cast<double>(a.nnz()) /
                             static_cast<double>(s.n), 1),
               fmt_fixed(seq, 1), fmt_fixed(split, 1),
               fmt_fixed(split / seq, 2),
               spmv_splits_rows(a) ? "row split" : "scatter", fmt_fixed(lib, 1)});
  }
  t.set_footnote(
      "spmv() splits rows from " + std::to_string(kSpmvParallelNnz) +
      " nonzeros and " + std::to_string(kSpmvParallelColumnNnz) +
      " per column on average. Shape check: the row split loses on short "
      "columns and wide operands and wins on long columns; both cut-offs "
      "sit on the scatter side of the crossover, so a shape just below one "
      "can leave a small win unused.");
  std::printf("%s\n", t.render().c_str());
  return 0;
}
