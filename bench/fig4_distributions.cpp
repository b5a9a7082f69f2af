// Figure 4: percent of peak vs nonzero density for Algorithm 4 under five
// strategies for the entries of S: Gaussian on the fly, pre-generated S in
// memory (generation time excluded), (-1,1) on the fly, (-1,1) with the
// scaling trick, and ±1 on the fly.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "dense/blas1.hpp"
#include "sketch/baselines.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"

using namespace rsketch;

namespace {

/// Achievable-peak calibration: sustained FMA throughput of the axpy kernel
/// on L1-resident data — the realistic ceiling for these kernels.
double estimate_peak_gflops() {
  constexpr index_t n = 2048;
  std::vector<float> x(n, 1.0f), y(n, 0.5f);
  const int iters = 40000;
  Timer t;
  for (int i = 0; i < iters; ++i) {
    axpy<float>(n, 1.000001f, x.data(), y.data());
  }
  const double secs = t.seconds();
  volatile float sink = y[0];
  (void)sink;
  return 2.0 * n * iters / secs / 1e9;
}

}  // namespace

int main() {
  bench::print_banner(
      "FIGURE 4 — percent of peak vs density, five RNG strategies (Alg. 4)",
      "Perlmutter CPU node; uniformly sparse A; 32-bit samples (8-bit +-1)");
  const index_t scale = bench_scale();
  const int reps = bench_reps();

  const index_t m = 120000 / scale;
  const index_t n = 12000 / scale;
  const index_t d = 3 * n;
  const double peak = estimate_peak_gflops();
  std::printf("Calibrated achievable peak (L1 axpy): %.2f GFlop/s\n\n", peak);

  auto report = bench::make_report("fig4_distributions");
  report.config("m", static_cast<long long>(m));
  report.config("n", static_cast<long long>(n));
  report.config("d", static_cast<long long>(d));
  report.config("kernel", "jki");
  report.derived("calibrated_peak_gflops", peak);

  const double densities[] = {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2};

  Table t("Percent of calibrated peak (this repo; paper Fig. 4 shape):");
  t.set_header({"density", "Gaussian fly", "pregen S", "(-1,1) fly",
                "scaling trick", "+-1 fly"});
  for (const double rho : densities) {
    const auto a = random_sparse<float>(m, n, rho, 42);
    SketchConfig cfg;
    cfg.d = d;
    cfg.kernel = KernelVariant::Jki;
    cfg.block_d = 3000;
    cfg.block_n = 1200;
    cfg.parallel = ParallelOver::Sequential;
    const double flops = 2.0 * static_cast<double>(d) * a.nnz();

    auto run_fly = [&](Dist dist) {
      cfg.dist = dist;
      DenseMatrix<float> a_hat(d, n);
      SketchStats last;
      const double secs =
          bench::time_best(reps, [&] { last = sketch_into(cfg, a, a_hat); });
      report.timing("rho=" + fmt_sci(rho) + "/" + to_string(dist) + "_fly",
                    secs, last);
      return flops / secs / 1e9 / peak * 100.0;
    };

    const double p_gauss = run_fly(Dist::Gaussian);
    const double p_uniform = run_fly(Dist::Uniform);
    const double p_trick = run_fly(Dist::UniformScaled);
    const double p_pm1 = run_fly(Dist::PmOne);

    // Pre-generated S: generation excluded (as in the paper).
    cfg.dist = Dist::Uniform;
    const DenseMatrix<float> s = materialize_S<float>(cfg, m);
    DenseMatrix<float> out;
    const double secs_pre =
        bench::time_best(reps, [&] { baseline_eigen_style(s, a, out); });
    report.timing("rho=" + fmt_sci(rho) + "/pregen", secs_pre);
    const double p_pre = flops / secs_pre / 1e9 / peak * 100.0;

    t.add_row({fmt_sci(rho), fmt_fixed(p_gauss, 1), fmt_fixed(p_pre, 1),
               fmt_fixed(p_uniform, 1), fmt_fixed(p_trick, 1),
               fmt_fixed(p_pm1, 1)});
  }
  t.set_footnote(
      "Shape check (paper Fig. 4): Gaussian-on-the-fly is far below the "
      "rest; the three cheap on-the-fly strategies beat pre-generated S; "
      "+-1 is the fastest.");
  std::printf("%s\n", t.render().c_str());
  report.write();
  return 0;
}
