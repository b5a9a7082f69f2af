// Cross-scheme ablation: every way this library can apply a random matrix —
// Algorithm 3 (kji), Algorithm 4 (jki), pylspack-style streaming, and the
// right-sketch A·Sᵀ — compared on time and, crucially, on SAMPLES GENERATED,
// the resource the paper's whole design space trades against memory traffic.
#include <cstdio>

#include "bench_common.hpp"
#include "sketch/baselines.hpp"
#include "sketch/sketch.hpp"
#include "sketch/sketch_right.hpp"
#include "sparse/convert.hpp"
#include "testdata/replicas.hpp"

using namespace rsketch;

int main() {
  bench::print_banner(
      "ABLATION — sample economy across sketching schemes (shar_te2-b2)",
      "left sketches use d=3n; the right sketch compresses columns with "
      "l=n/2; (-1,1) entries");
  const index_t scale = bench_scale();
  const int reps = bench_reps();

  const auto a = make_spmm_replica<float>("shar_te2-b2", scale);
  const index_t d = spmm_replica_d("shar_te2-b2", scale);

  Table t("Scheme comparison:");
  t.set_header({"scheme", "output", "time (s)", "samples", "samples / d*nnz"});
  const double dnnz = static_cast<double>(d) * static_cast<double>(a.nnz());

  {
    SketchConfig cfg;
    cfg.d = d;
    cfg.block_d = 3000;
    cfg.block_n = 500;
    cfg.parallel = ParallelOver::Sequential;
    DenseMatrix<float> out(d, a.cols());
    SketchStats best;
    best.total_seconds = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto s = sketch_into(cfg, a, out);
      if (s.total_seconds < best.total_seconds) best = s;
    }
    t.add_row({"Alg 3 (kji, d-blocked)", "S*A", fmt_time(best.total_seconds),
               fmt_int(static_cast<long long>(best.samples_generated)),
               fmt_fixed(static_cast<double>(best.samples_generated) / dnnz,
                         3)});
  }
  {
    SketchConfig cfg;
    cfg.d = d;
    cfg.kernel = KernelVariant::Jki;
    cfg.block_d = 3000;
    cfg.block_n = 1200;
    cfg.parallel = ParallelOver::Sequential;
    DenseMatrix<float> out(d, a.cols());
    SketchStats best;
    best.total_seconds = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto s = sketch_into(cfg, a, out);
      if (s.total_seconds < best.total_seconds) best = s;
    }
    t.add_row({"Alg 4 (jki, blocked CSR)", "S*A",
               fmt_time(best.total_seconds),
               fmt_int(static_cast<long long>(best.samples_generated)),
               fmt_fixed(static_cast<double>(best.samples_generated) / dnnz,
                         3)});
  }
  {
    SketchConfig cfg;
    cfg.d = d;
    cfg.block_d = 3000;
    const auto a_csr = csc_to_csr(a);
    DenseMatrix<float> out;
    std::uint64_t samples = 0;
    const double secs = bench::time_best(
        reps, [&] { samples = baseline_streaming(cfg, a_csr, out); });
    t.add_row({"streaming (1,m,1)", "S*A", fmt_time(secs),
               fmt_int(static_cast<long long>(samples)),
               fmt_fixed(static_cast<double>(samples) / dnnz, 3)});
  }
  {
    SketchConfig cfg;
    cfg.d = a.cols() / 2;  // row-space sketch: compresses the n dimension
    cfg.block_d = 3000;
    cfg.parallel = ParallelOver::Sequential;
    std::vector<float> out;
    SketchStats best;
    best.total_seconds = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto s = sketch_right_into(cfg, a, out);
      if (s.total_seconds < best.total_seconds) best = s;
    }
    const double lnnz =
        static_cast<double>(cfg.d) * static_cast<double>(a.nnz());
    t.add_row({"right sketch A*S^T (l=n/2)", "A*S'",
               fmt_time(best.total_seconds),
               fmt_int(static_cast<long long>(best.samples_generated)),
               fmt_fixed(static_cast<double>(best.samples_generated) / lnnz,
                         3)});
  }
  t.set_footnote(
      "Samples/(d*nnz)=1 is Alg 3's pattern-oblivious worst case; Alg 4 and "
      "streaming trade access regularity for fewer samples; the right sketch "
      "gets Alg-4-style reuse directly from CSC (one generated column per "
      "matrix column) without the blocked-CSR conversion.");
  std::printf("%s\n", t.render().c_str());
  return 0;
}
