// §IV-B ablation (google-benchmark): generation throughput of the three
// RNG backends across distributions, in the short-vector checkpointed
// regime the blocked kernels use. Verifies the paper's claims that
// counter-based generators (Philox/Random123) are several times slower than
// Xoshiro, and that Gaussian transformation dominates generation cost.
//
// The fused/* cases time Algorithm 3's inner step as the kji kernel runs
// it: one SketchSampler::fused_axpy per nonzero, a new (r, j) checkpoint
// each call, the column of S generated straight into the update. Short d
// exposes the per-nonzero fixed cost (seek + dispatch), d = 4000 the
// steady-state ns/sample.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "rng/distributions.hpp"

using namespace rsketch;

namespace {

void BM_Fill(benchmark::State& state, Dist dist, RngBackend backend) {
  const index_t n = state.range(0);
  SketchSampler<float> sampler(1234, dist, backend);
  std::vector<float> v(static_cast<std::size_t>(n));
  index_t col = 0;
  for (auto _ : state) {
    sampler.fill(0, col++, v.data(), n);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_Fused(benchmark::State& state, Dist dist) {
  const index_t n = state.range(0);
  SketchSampler<double> sampler(1234, dist, RngBackend::XoshiroBatch);
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  index_t col = 0;
  for (auto _ : state) {
    sampler.fused_axpy(0, col++, 1e-9, out.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void Register() {
  struct Combo {
    const char* name;
    Dist dist;
    RngBackend backend;
  };
  const Combo combos[] = {
      {"pm1/xoshiro", Dist::PmOne, RngBackend::Xoshiro},
      {"pm1/xoshiro_x8", Dist::PmOne, RngBackend::XoshiroBatch},
      {"pm1/philox", Dist::PmOne, RngBackend::Philox},
      {"uniform/xoshiro", Dist::Uniform, RngBackend::Xoshiro},
      {"uniform/xoshiro_x8", Dist::Uniform, RngBackend::XoshiroBatch},
      {"uniform/philox", Dist::Uniform, RngBackend::Philox},
      {"scaled/xoshiro_x8", Dist::UniformScaled, RngBackend::XoshiroBatch},
      {"gaussian/xoshiro_x8", Dist::Gaussian, RngBackend::XoshiroBatch},
      {"gaussian/philox", Dist::Gaussian, RngBackend::Philox},
      {"junk/-", Dist::Junk, RngBackend::XoshiroBatch},
  };
  for (const Combo& c : combos) {
    benchmark::RegisterBenchmark(c.name, BM_Fill, c.dist, c.backend)
        ->Arg(3000)      // the b_d-sized fills of the blocked kernels
        ->Arg(10000);    // the paper's STREAM-comparison vector length
  }
  const std::pair<const char*, Dist> fused[] = {
      {"fused/pm1/xoshiro_x8", Dist::PmOne},
      {"fused/uniform/xoshiro_x8", Dist::Uniform}};
  for (const auto& [name, dist] : fused) {
    benchmark::RegisterBenchmark(name, BM_Fused, dist)
        ->Arg(64)
        ->Arg(96)
        ->Arg(128)
        ->Arg(1000)
        ->Arg(4000);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Register();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
