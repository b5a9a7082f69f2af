// Table II: serial timing of Algorithm 3 against library-style SpMM
// baselines that use a pre-generated S (MKL-style transposed CSR×dense,
// Eigen-style and Julia-style CSC dense×sparse). b_n = 500, b_d = 3000.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sketch/baselines.hpp"
#include "sketch/sketch.hpp"
#include "testdata/replicas.hpp"

using namespace rsketch;

namespace {

struct PaperRow {
  const char* name;
  double mkl, eigen, julia, alg3_u, alg3_pm;
};

// Paper Table II (Frontera, seconds).
constexpr PaperRow kPaper[] = {
    {"mk-12", 0.137, 0.145, 0.118, 0.070, 0.0501},
    {"ch7-9-b3", 16.43, 16.58, 14.86, 7.74, 5.89},
    {"shar_te2-b2", 21.93, 22.05, 27.59, 10.20, 7.63},
    {"mesh_deform", 15.82, 16.08, 14.99, 8.65, 5.74},
    {"cis-n4c6-b4", 1.351, 1.36, 1.18, 0.74, 0.531},
};

}  // namespace

int main() {
  bench::print_banner(
      "TABLE II — Algorithm 3 vs library SpMM baselines (serial)",
      "Frontera (Intel Cascade Lake), b_n=500, b_d=3000, 32-bit values");
  const index_t scale = bench_scale();
  const int reps = bench_reps();

  Table paper("Paper (Frontera, seconds):");
  paper.set_header(
      {"Matrices", "MKL", "Eigen", "Julia", "Alg3 (-1,1)", "Alg3 (+-1)"});
  for (const auto& r : kPaper) {
    paper.add_row({r.name, fmt_time(r.mkl), fmt_time(r.eigen),
                   fmt_time(r.julia), fmt_time(r.alg3_u),
                   fmt_time(r.alg3_pm)});
  }
  std::printf("%s\n", paper.render().c_str());

  auto report = bench::make_report("table2_serial_baselines");

  Table ours("This repo (seconds; S generation excluded for baselines):");
  ours.set_header({"Matrices", "MKL-style", "Eigen-style", "Julia-style",
                   "Alg3 (-1,1)", "Alg3 (+-1)", "Alg3 speedup vs best lib"});
  for (const auto& info : spmm_replica_infos()) {
    const auto a = make_spmm_replica<float>(info.name, scale);
    SketchConfig cfg;
    cfg.d = spmm_replica_d(info.name, scale);
    cfg.dist = Dist::Uniform;
    cfg.block_d = 3000;
    cfg.block_n = 500;
    cfg.parallel = ParallelOver::Sequential;

    // Pre-generated S shared by the three library baselines.
    const DenseMatrix<float> s = materialize_S<float>(cfg, a.rows());
    DenseMatrix<float> out;
    const double t_eigen =
        bench::time_best(reps, [&] { baseline_eigen_style(s, a, out); });
    const double t_julia =
        bench::time_best(reps, [&] { baseline_julia_style(s, a, out); });
    const auto st = pack_transposed_rowmajor(s);
    std::vector<float> out_t;
    const double t_mkl = bench::time_best(
        reps, [&] { baseline_mkl_style(st, a, cfg.d, out_t); });

    DenseMatrix<float> a_hat(cfg.d, a.cols());
    SketchStats last;
    const double t_alg3_u =
        bench::time_best(reps, [&] { last = sketch_into(cfg, a, a_hat); });
    report.timing(std::string(info.name) + "/alg3_uniform", t_alg3_u, last);
    cfg.dist = Dist::PmOne;
    const double t_alg3_pm =
        bench::time_best(reps, [&] { last = sketch_into(cfg, a, a_hat); });
    report.timing(std::string(info.name) + "/alg3_pm1", t_alg3_pm, last);
    report.timing(std::string(info.name) + "/mkl_style", t_mkl);
    report.timing(std::string(info.name) + "/eigen_style", t_eigen);
    report.timing(std::string(info.name) + "/julia_style", t_julia);

    const double best_lib = std::min({t_mkl, t_eigen, t_julia});
    ours.add_row({info.name, fmt_time(t_mkl), fmt_time(t_eigen),
                  fmt_time(t_julia), fmt_time(t_alg3_u), fmt_time(t_alg3_pm),
                  fmt_fixed(best_lib / t_alg3_pm, 2) + "x"});
  }
  ours.set_footnote(
      "Shape check: Alg3 beats every pre-generated-S baseline, and +-1 beats "
      "(-1,1) (paper sees 2-3x).");
  std::printf("%s\n", ours.render().c_str());
  report.write();
  return 0;
}
