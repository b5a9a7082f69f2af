// §V-A STREAM note: memory bandwidth (copy/scale/add/triad) and short-vector
// RNG rates, plus the measured h (RNG cost relative to a memory access) for
// every (dist, backend) cell next to the static table the §III-A model tuner
// uses in its place (model_rng_cost). Recalibrate that table from this
// output's medians over a few runs.
#include <cstdio>

#include "analysis/machine.hpp"
#include "bench_common.hpp"
#include "sketch/autotune.hpp"

using namespace rsketch;

int main() {
  bench::print_banner(
      "ABLATION — STREAM bandwidth & measured h",
      "STREAMBenchmark.jl-style probe + length-10000 RNG fills (paper §V-A)");
  const int reps = std::max(3, bench_reps());

  const auto stream = stream_benchmark(1 << 23, reps);
  Table st("STREAM bandwidth (this machine, GB/s):");
  st.set_header({"kernel", "GB/s"});
  st.add_row({"copy", fmt_fixed(stream.copy_gbps, 2)});
  st.add_row({"scale", fmt_fixed(stream.scale_gbps, 2)});
  st.add_row({"add", fmt_fixed(stream.add_gbps, 2)});
  st.add_row({"triad", fmt_fixed(stream.triad_gbps, 2)});
  std::printf("%s\n", st.render().c_str());

  Table rt(
      "Short-vector RNG throughput (length 10000, checkpointed fills), "
      "measured h and the model's table h (model_rng_cost):");
  rt.set_header(
      {"dist", "backend", "Gsamples/s", "measured h", "table h", "ratio"});
  for (const Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled,
                          Dist::Gaussian, Dist::Junk}) {
    for (const RngBackend backend : {RngBackend::XoshiroBatch,
                                     RngBackend::Xoshiro, RngBackend::Philox}) {
      const double rate = rng_throughput(dist, backend, 10000, 300);
      const double h = measure_h(dist, backend, stream);
      const double table_h = model_rng_cost(dist, backend);
      rt.add_row({to_string(dist), to_string(backend),
                  fmt_fixed(rate / 1e9, 3), fmt_fixed(h, 3),
                  fmt_fixed(table_h, 3), fmt_fixed(h / table_h, 2)});
    }
  }
  rt.set_footnote(
      "h < 1 means generating a sample is cheaper than moving one from "
      "DRAM — the regime where on-the-fly regeneration wins (§III-A). "
      "Philox's h is several times Xoshiro's (paper §IV-B1: ~5x). A ratio "
      "far from 1 means this host has drifted from the table the model "
      "tuner uses; EXPERIMENTS.md says how to recalibrate it.");
  std::printf("%s\n", rt.render().c_str());

  std::printf("Detected cache: %.1f KiB\n",
              static_cast<double>(detect_cache_bytes()) / 1024.0);
  return 0;
}
