// Block-size tuning walkthrough: probe the machine (STREAM bandwidth, RNG
// cost h, cache size), ask the §III-A model for (b_d, b_n), and verify the
// suggestion against a small empirical sweep.
//
//   ./blocking_autotune [--m 120000] [--n 6000] [--density 1e-3]
#include <cstdio>
#include <vector>

#include "analysis/machine.hpp"
#include "sketch/autotune.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"
#include "support/cli.hpp"

using namespace rsketch;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const index_t m = args.get_int("m", 120000);
  const index_t n = args.get_int("n", 6000);
  const double density = args.get_double("density", 1e-3);

  const auto a = random_sparse<float>(m, n, density, 5);
  const index_t d = 3 * n;

  // 1. Machine probes.
  const auto stream = stream_benchmark(1 << 22, 3);
  const double h = measure_h(Dist::Uniform, RngBackend::XoshiroBatch, stream);
  const std::size_t cache = detect_cache_bytes();
  std::printf("machine: copy bandwidth %.1f GB/s, cache %.0f KiB, "
              "measured h = %.3f (table h = %.3f)\n",
              stream.copy_gbps, static_cast<double>(cache) / 1024.0, h,
              model_rng_cost(Dist::Uniform, RngBackend::XoshiroBatch));
  std::printf("(h < 1: generating a sample is cheaper than a DRAM access — "
              "on-the-fly regeneration pays off)\n\n");

  // 2. Model suggestion.
  const auto sug =
      suggest_blocks(m, n, d, density, cache, h, sizeof(float));
  std::printf("model suggestion: b_d = %lld, b_n = %lld (predicted CI %.1f)\n\n",
              static_cast<long long>(sug.block_d),
              static_cast<long long>(sug.block_n), sug.model_ci);

  // 3. Empirical check around the suggestion.
  std::printf("empirical sweep (Algorithm 3, GFlop/s):\n");
  std::printf("%10s %10s %10s\n", "b_d", "b_n", "GFlop/s");
  double best_gf = 0.0;
  index_t best_bd = 0, best_bn = 0;
  const std::vector<index_t> bds = {sug.block_d / 4, sug.block_d,
                                    std::min(d, sug.block_d * 4)};
  const std::vector<index_t> bns = {std::max<index_t>(1, sug.block_n / 4),
                                    sug.block_n,
                                    std::min(n, sug.block_n * 4)};
  for (index_t bd : bds) {
    for (index_t bn : bns) {
      SketchConfig cfg;
      cfg.d = d;
      cfg.dist = Dist::Uniform;
      cfg.block_d = std::max<index_t>(1, bd);
      cfg.block_n = bn;
      cfg.parallel = ParallelOver::Sequential;
      DenseMatrix<float> a_hat(d, n);
      const auto stats = sketch_into(cfg, a, a_hat);
      std::printf("%10lld %10lld %10.2f\n",
                  static_cast<long long>(cfg.block_d),
                  static_cast<long long>(cfg.block_n), stats.gflops);
      if (stats.gflops > best_gf) {
        best_gf = stats.gflops;
        best_bd = cfg.block_d;
        best_bn = cfg.block_n;
      }
    }
  }
  std::printf("\nempirical best: b_d = %lld, b_n = %lld (%.2f GFlop/s)\n",
              static_cast<long long>(best_bd),
              static_cast<long long>(best_bn), best_gf);

  // 4. One-call convenience API: no probe, h from the model_rng_cost table.
  SketchConfig cfg;
  cfg.d = d;
  autotune_blocks(cfg, a);
  std::printf("autotune_blocks() picked: b_d = %lld, b_n = %lld\n",
              static_cast<long long>(cfg.block_d),
              static_cast<long long>(cfg.block_n));
  return 0;
}
