// Table VII: parallel scalability of Algorithms 3 and 4 on shar_te2-b2 with
// two blocking setups. Setup 2 uses the paper's heuristic (§V-B): larger
// b_d / smaller b_n offloads memory traffic onto the regenerated S and
// scales better.
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"
#include "support/parallel.hpp"
#include "testdata/replicas.hpp"

using namespace rsketch;

namespace {

struct PaperRow {
  int threads;
  double t4_s1, g4_s1, t3_s1, g3_s1, t4_s2, g4_s2, t3_s2, g3_s2;
};

// Paper Table VII (shar_te2-b2, seconds and GFlop/s).
constexpr PaperRow kPaper[] = {
    {1, 8.66, 7.14, 9.00, 6.87, 8.42, 7.35, 8.88, 6.96},
    {2, 5.06, 12.23, 5.16, 11.98, 4.88, 12.68, 4.52, 13.68},
    {4, 2.72, 22.70, 2.63, 23.47, 2.51, 24.59, 2.50, 24.75},
    {8, 2.07, 29.89, 1.98, 31.22, 1.55, 39.88, 1.35, 45.80},
    {16, 2.34, 26.42, 1.14, 54.08, 1.37, 45.05, 0.83, 74.76},
    {32, 2.01, 30.74, 0.92, 67.33, 0.80, 77.22, 0.62, 100.29},
};

}  // namespace

int main() {
  bench::print_banner(
      "TABLE VII — parallel scaling, two blocking setups (shar_te2-b2)",
      "threads 1..32; setup1 = (b_d=3000, b_n=1200), setup2 = (b_d=12000, "
      "b_n=300); (-1,1) entries");
  const index_t scale = bench_scale();
  const int reps = bench_reps();
  const int max_threads = bench_max_threads();

  Table paper("Paper:");
  paper.set_header({"threads", "Alg4 s1 (s)", "Alg4 s1 GF", "Alg3 s1 (s)",
                    "Alg3 s1 GF", "Alg4 s2 (s)", "Alg4 s2 GF", "Alg3 s2 (s)",
                    "Alg3 s2 GF"});
  for (const auto& r : kPaper) {
    paper.add_row({fmt_int(r.threads), fmt_time(r.t4_s1), fmt_fixed(r.g4_s1, 2),
                   fmt_time(r.t3_s1), fmt_fixed(r.g3_s1, 2),
                   fmt_time(r.t4_s2), fmt_fixed(r.g4_s2, 2),
                   fmt_time(r.t3_s2), fmt_fixed(r.g3_s2, 2)});
  }
  std::printf("%s\n", paper.render().c_str());

  const auto a = make_spmm_replica<float>("shar_te2-b2", scale);
  const index_t d = spmm_replica_d("shar_te2-b2", scale);

  auto report = bench::make_report("table7_parallel_scaling");
  report.config("matrix", "shar_te2-b2");
  report.config("d", static_cast<long long>(d));
  report.config("max_threads", static_cast<long long>(max_threads));

  struct Setup {
    index_t bd, bn;
  };
  const Setup setups[] = {{3000, 1200}, {12000, 300}};

  Table ours("This repo:");
  ours.set_header({"threads", "Alg4 s1 (s)", "Alg4 s1 GF", "Alg3 s1 (s)",
                   "Alg3 s1 GF", "Alg4 s2 (s)", "Alg4 s2 GF", "Alg3 s2 (s)",
                   "Alg3 s2 GF"});
  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  for (int threads : thread_counts) {
    ThreadCountGuard guard(threads);
    std::vector<std::string> row{fmt_int(threads)};
    for (const auto& setup : setups) {
      for (const KernelVariant kernel :
           {KernelVariant::Jki, KernelVariant::Kji}) {
        SketchConfig cfg;
        cfg.d = d;
        cfg.dist = Dist::Uniform;
        cfg.kernel = kernel;
        cfg.block_d = setup.bd;
        cfg.block_n = setup.bn;
        cfg.parallel = ParallelOver::DBlocks;
        DenseMatrix<float> a_hat(d, a.cols());
        SketchStats best;
        best.total_seconds = 1e300;
        for (int r = 0; r < reps; ++r) {
          const auto st = sketch_into(cfg, a, a_hat);
          if (st.total_seconds < best.total_seconds) best = st;
        }
        report.timing("threads=" + std::to_string(threads) + "/bd=" +
                          std::to_string(setup.bd) + ",bn=" +
                          std::to_string(setup.bn) +
                          (kernel == KernelVariant::Jki ? "/alg4" : "/alg3"),
                      best.total_seconds, best);
        row.push_back(fmt_time(best.total_seconds));
        row.push_back(fmt_fixed(best.gflops, 2));
      }
    }
    ours.add_row(row);
  }
  char note[256];
  std::snprintf(note, sizeof note,
                "Host exposes %d hardware thread(s); counts beyond that run "
                "oversubscribed and show flat or degraded scaling. Shape "
                "check (multi-core hosts): setup2 scales further than "
                "setup1, Alg3 scales best.",
                omp_get_num_procs());
  ours.set_footnote(note);
  std::printf("%s\n", ours.render().c_str());

  // Skewed-nnz companion point: Abnormal_B concentrates 90% of the nonzeros
  // in the middle-third vertical block, so per-jb work is wildly uneven —
  // exactly the case the cost-model scheduler (sketch/schedule.hpp) exists
  // for: the LPT schedule spreads the dense block's (i,j) pairs across the
  // team instead of parking every thread behind the dense block's owner.
  {
    const index_t sm = std::max<index_t>(20000 / scale, 64);
    const index_t sn = std::max<index_t>(3000 / scale, 16);
    const auto skew = abnormal_b<float>(sm, sn, 2e-3, 0.9, 77);
    const index_t sd = sn;
    Table skewt(
        "Skewed nnz (Abnormal_B, 90% in middle third), Alg4 DBlocks, "
        "LPT schedule:");
    skewt.set_header({"threads", "time (s)", "imbalance", "est"});
    for (int threads : thread_counts) {
      ThreadCountGuard guard(threads);
      SketchConfig cfg;
      cfg.d = sd;
      cfg.dist = Dist::Uniform;
      cfg.kernel = KernelVariant::Jki;
      // Several i-blocks per vertical block, so the partitioner has real
      // work units to place: LPT splits the dense middle block across the
      // team — visible in the imbalance column and in the trace timeline.
      cfg.block_d = std::max<index_t>(sd / 8, 16);
      cfg.block_n = 300;
      cfg.parallel = ParallelOver::DBlocks;
      DenseMatrix<float> a_hat(sd, skew.cols());
      SketchStats best;
      best.total_seconds = 1e300;
      for (int r = 0; r < reps; ++r) {
        const auto st = sketch_into(cfg, skew, a_hat);
        if (st.total_seconds < best.total_seconds) best = st;
      }
      report.timing("skewed/threads=" + std::to_string(threads) + "/alg4",
                    best.total_seconds, best);
      skewt.add_row(
          {fmt_int(threads), fmt_time(best.total_seconds),
           best.thread_imbalance > 0.0 ? fmt_fixed(best.thread_imbalance, 2)
                                       : "-",
           best.schedule_imbalance_est > 0.0
               ? fmt_fixed(best.schedule_imbalance_est, 2)
               : "-"});
    }
    skewt.set_footnote(
        "Shape check (multi-core hosts): the time column should track the "
        "setup2 scaling above, not collapse to the dense block's serial "
        "time. Measured imbalance (max/mean thread busy; needs "
        "RSKETCH_PERF=1 or RSKETCH_TRACE) stays near 1; 'est' is the cost "
        "model's predicted max/mean for the LPT partition.");
    std::printf("%s\n", skewt.render().c_str());
  }

  report.write();
  return 0;
}
