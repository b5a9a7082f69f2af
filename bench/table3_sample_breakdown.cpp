// Table III: sample time (RNG) vs total SpMM time for Algorithms 3 and 4
// with (-1,1) entries, Frontera blocking (b_n=500, b_d=3000).
#include <cstdio>

#include "bench_common.hpp"
#include "sketch/sketch.hpp"
#include "testdata/replicas.hpp"

using namespace rsketch;

namespace {

struct PaperRow {
  const char* name;
  double total3, sample3, total4, sample4;
};

// Paper Table III (Frontera, seconds).
constexpr PaperRow kPaper[] = {
    {"mk-12", 0.076, 0.036, 0.085, 0.02},
    {"ch7-9-b3", 8.34, 4.07, 11.06, 2.42},
    {"shar_te2-b2", 11.03, 5.63, 14.43, 3.84},
    {"mesh_deform", 9.26, 4.40, 8.14, 2.47},
    {"cis-n4c6-b4", 0.786, 0.325, 0.924, 0.157},
};

}  // namespace

int main() {
  bench::print_banner(
      "TABLE III — sample time vs total SpMM time, Algorithms 3 & 4",
      "Frontera, (-1,1) entries, b_n=500, b_d=3000 (timer adds overhead)");
  const index_t scale = bench_scale();
  const int reps = bench_reps();

  Table paper("Paper (Frontera, seconds):");
  paper.set_header({"Matrices", "Algorithm", "total time", "sample time"});
  for (const auto& r : kPaper) {
    paper.add_row({r.name, "Algorithm 3", fmt_time(r.total3),
                   fmt_time(r.sample3)});
  }
  paper.add_separator();
  for (const auto& r : kPaper) {
    paper.add_row({r.name, "Algorithm 4", fmt_time(r.total4),
                   fmt_time(r.sample4)});
  }
  std::printf("%s\n", paper.render().c_str());

  auto report = bench::make_report("table3_sample_breakdown");

  Table ours("This repo (seconds, instrumented runs):");
  ours.set_header({"Matrices", "Algorithm", "total time", "sample time",
                   "samples generated"});
  for (const KernelVariant kernel : {KernelVariant::Kji, KernelVariant::Jki}) {
    for (const auto& info : spmm_replica_infos()) {
      const auto a = make_spmm_replica<float>(info.name, scale);
      SketchConfig cfg;
      cfg.d = spmm_replica_d(info.name, scale);
      cfg.dist = Dist::Uniform;
      cfg.kernel = kernel;
      cfg.block_d = 3000;
      cfg.block_n = 500;
      cfg.parallel = ParallelOver::Sequential;
      DenseMatrix<float> a_hat(cfg.d, a.cols());

      SketchStats best;
      best.total_seconds = 1e300;
      for (int r = 0; r < reps; ++r) {
        const auto stats = sketch_into(cfg, a, a_hat, /*instrument=*/true);
        if (stats.total_seconds < best.total_seconds) best = stats;
      }
      report.timing(std::string(info.name) +
                        (kernel == KernelVariant::Kji ? "/alg3" : "/alg4"),
                    best.total_seconds, best);
      ours.add_row({info.name,
                    kernel == KernelVariant::Kji ? "Algorithm 3"
                                                 : "Algorithm 4",
                    fmt_time(best.total_seconds),
                    fmt_time(best.sample_seconds),
                    fmt_int(static_cast<long long>(best.samples_generated))});
    }
    if (kernel == KernelVariant::Kji) ours.add_separator();
  }
  ours.set_footnote(
      "Shape check: Alg4's sample time is a small fraction of Alg3's "
      "(paper: ~2x fewer seconds, far fewer samples).");
  std::printf("%s\n", ours.render().c_str());
  report.write();
  return 0;
}
