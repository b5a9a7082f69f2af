// Cross-ISA bitwise reproducibility of the micro-kernel layer
// (dense/microkernel.hpp): every compiled tier (scalar / AVX2 / AVX-512)
// must produce a bit-for-bit identical sketch Â. The tiers share one
// templated implementation compiled with -ffp-contract=off, so each entry
// is the same sequence of individually rounded mul+add operations at any
// vector width — equality here is exact, not tolerance-based.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dense/microkernel.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro_batch.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"

namespace rsketch {
namespace {

/// Scalar plus every SIMD tier this build + CPU can actually run.
std::vector<microkernel::Isa> supported_isas() {
  std::vector<microkernel::Isa> out = {microkernel::Isa::Scalar};
  if (microkernel::supported(microkernel::Isa::Avx2)) {
    out.push_back(microkernel::Isa::Avx2);
  }
  if (microkernel::supported(microkernel::Isa::Avx512)) {
    out.push_back(microkernel::Isa::Avx512);
  }
  return out;
}

/// Bitwise equality over the logical entries (padded tail rows excluded —
/// they are zero-initialized but not part of the contract).
template <typename T>
void expect_bitwise_equal(const DenseMatrix<T>& a, const DenseMatrix<T>& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    ASSERT_EQ(0, std::memcmp(a.col(j), b.col(j),
                             static_cast<std::size_t>(a.rows()) * sizeof(T)))
        << what << ": column " << j << " differs";
  }
}

template <typename T>
SketchConfig isa_config(KernelVariant kernel, Dist dist) {
  SketchConfig cfg;
  cfg.d = 96;
  cfg.seed = 777;
  cfg.dist = dist;
  cfg.backend = RngBackend::XoshiroBatch;
  cfg.kernel = kernel;
  // Small odd-ish blocks so row/column block boundaries, jam tails (hi-lo
  // not a multiple of 4), and chunk tails (d1 % 16 != 0) all occur.
  cfg.block_d = 40;
  cfg.block_n = 17;
  cfg.parallel = ParallelOver::Sequential;
  return cfg;
}

template <typename T>
void check_all_isas(KernelVariant kernel, Dist dist) {
  const auto a = random_sparse<T>(150, 60, 0.08, 31);
  const std::vector<microkernel::Isa> isas = supported_isas();

  SketchConfig cfg = isa_config<T>(kernel, dist);
  cfg.isa = isas.front();  // Scalar reference
  DenseMatrix<T> ref(cfg.d, a.cols());
  const SketchStats ref_stats = sketch_into(cfg, a, ref);
  EXPECT_EQ(ref_stats.isa, microkernel::Isa::Scalar);

  for (std::size_t t = 1; t < isas.size(); ++t) {
    SketchConfig tier_cfg = isa_config<T>(kernel, dist);
    tier_cfg.isa = isas[t];
    DenseMatrix<T> got(tier_cfg.d, a.cols());
    const SketchStats stats = sketch_into(tier_cfg, a, got);
    EXPECT_EQ(stats.isa, isas[t]);
    EXPECT_EQ(stats.samples_generated, ref_stats.samples_generated)
        << "ISA tier must not change the RNG stream consumption";
    expect_bitwise_equal(ref, got,
                         std::string("isa=") +
                             microkernel::to_string(isas[t]) + " dist=" +
                             to_string(dist) + " kernel=" + to_string(kernel));
  }
}

TEST(SimdEquivalence, KjiAllDistsDouble) {
  for (Dist dist :
       {Dist::PmOne, Dist::Uniform, Dist::UniformScaled, Dist::Gaussian}) {
    check_all_isas<double>(KernelVariant::Kji, dist);
  }
}

TEST(SimdEquivalence, JkiAllDistsDouble) {
  for (Dist dist :
       {Dist::PmOne, Dist::Uniform, Dist::UniformScaled, Dist::Gaussian}) {
    check_all_isas<double>(KernelVariant::Jki, dist);
  }
}

TEST(SimdEquivalence, KjiAllDistsFloat) {
  for (Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled}) {
    check_all_isas<float>(KernelVariant::Kji, dist);
  }
}

TEST(SimdEquivalence, JkiAllDistsFloat) {
  for (Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled}) {
    check_all_isas<float>(KernelVariant::Jki, dist);
  }
}

// The kji fused generate-and-axpy path (taken when the run is not
// instrumented) must be bitwise identical to the buffered fill-then-axpy
// path (taken when sample timing is requested) and must consume the RNG
// stream in exactly the same order — samples_generated included.
TEST(SimdEquivalence, FusedMatchesBufferedKji) {
  const auto a = random_sparse<double>(120, 45, 0.1, 97);
  for (Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled}) {
    for (microkernel::Isa isa : supported_isas()) {
      SketchConfig cfg = isa_config<double>(KernelVariant::Kji, dist);
      cfg.isa = isa;

      DenseMatrix<double> fused(cfg.d, a.cols());
      const SketchStats fused_stats =
          sketch_into(cfg, a, fused, /*instrument=*/false);

      DenseMatrix<double> buffered(cfg.d, a.cols());
      const SketchStats buffered_stats =
          sketch_into(cfg, a, buffered, /*instrument=*/true);

      EXPECT_EQ(fused_stats.samples_generated,
                buffered_stats.samples_generated);
      expect_bitwise_equal(fused, buffered,
                           std::string("fused-vs-buffered isa=") +
                               microkernel::to_string(isa) + " dist=" +
                               to_string(dist));
    }
  }
}

// Direct sampler check, per (r, j) checkpoint: fill() output is the same bit
// pattern on every tier, including non-chunked distributions that fall back
// to the shared generic path; fused_axpy() is the same on every tier and
// equals fill() followed by the tier's axpy. Lengths cover every tail shape
// of the 16- and 64-sample chunks and of 8- and 16-lane groups.
constexpr index_t kTailLengths[] = {1,  7,  8,   15,  16,  17,  53,  63,
                                    64, 65, 96, 127, 128, 129, 1000};
constexpr index_t kCheckpoints[][2] = {
    {3, 7}, {0, 0}, {4096, 1}, {index_t{1} << 40, (index_t{1} << 35) + 5}};

/// Equal bit for bit, except that a NaN only has to meet a NaN: for +-1,
/// the fused update flips a's sign bit where the buffered one multiplies by
/// -1.0, and the two differ only in the sign of a NaN.
template <typename T>
void expect_same_values(const std::vector<T>& want, const std::vector<T>& got,
                        const std::string& what) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i]) || std::isnan(got[i])) {
      EXPECT_TRUE(std::isnan(want[i]) && std::isnan(got[i]))
          << what << " entry " << i << ": " << want[i] << " vs " << got[i];
    } else {
      EXPECT_EQ(0, std::memcmp(&want[i], &got[i], sizeof(T)))
          << what << " entry " << i << ": " << want[i] << " vs " << got[i];
    }
  }
}

/// The column fused_axpy starts from: finite, signed, not a multiple of a.
template <typename T>
std::vector<T> start_column(index_t n) {
  std::vector<T> out(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<T>(0.375 * (i % 11) - 1.5);
  }
  return out;
}

template <typename T>
void check_sampler_across_isas() {
  const std::vector<microkernel::Isa> isas = supported_isas();
  for (Dist dist :
       {Dist::PmOne, Dist::Uniform, Dist::UniformScaled, Dist::Gaussian}) {
    const bool chunked = dist != Dist::Gaussian;
    const index_t chunk = dist == Dist::PmOne ? 64 : 16;
    SketchSampler<T> ref(99, dist, RngBackend::XoshiroBatch,
                         microkernel::Isa::Scalar);
    for (const auto& rj : kCheckpoints) {
      for (index_t n : kTailLengths) {
        const auto r = rj[0], j = rj[1];
        const auto sz = static_cast<std::size_t>(n);
        const T a = static_cast<T>(-0.8125);
        std::vector<T> vref(sz);
        ref.fill(r, j, vref.data(), n);
        std::vector<T> fref = start_column<T>(n);
        if (chunked) ref.fused_axpy(r, j, a, fref.data(), n);
        for (microkernel::Isa isa : isas) {
          const std::string what = "dist=" + to_string(dist) + " isa=" +
                                   microkernel::to_string(isa) + " n=" +
                                   std::to_string(n) + " r=" +
                                   std::to_string(r) + " j=" +
                                   std::to_string(j);
          SketchSampler<T> s(99, dist, RngBackend::XoshiroBatch, isa);
          std::vector<T> v(sz);
          s.fill(r, j, v.data(), n);
          EXPECT_EQ(0, std::memcmp(vref.data(), v.data(), sz * sizeof(T)))
              << "fill " << what;
          if (!chunked) continue;
          std::vector<T> fused = start_column<T>(n);
          s.fused_axpy(r, j, a, fused.data(), n);
          EXPECT_EQ(0, std::memcmp(fref.data(), fused.data(), sz * sizeof(T)))
              << "fused vs scalar tier " << what;
          std::vector<T> buffered = start_column<T>(n);
          s.mk().axpy(n, a, v.data(), buffered.data());
          EXPECT_EQ(0,
                    std::memcmp(buffered.data(), fused.data(), sz * sizeof(T)))
              << "fused vs fill-then-axpy " << what;
          // The XoshiroBatch entries run the same stream from a positioned
          // generator and leave it ceil(n / chunk) batches further on.
          XoshiroBatch g(99), moved(99);
          g.set_state(static_cast<std::uint64_t>(r),
                      static_cast<std::uint64_t>(j));
          std::vector<T> gv(sz), gf = start_column<T>(n);
          s.mk().fill(g, dist, gv.data(), n);
          EXPECT_EQ(0, std::memcmp(vref.data(), gv.data(), sz * sizeof(T)))
              << "fill(g) " << what;
          g.set_state(static_cast<std::uint64_t>(r),
                      static_cast<std::uint64_t>(j));
          s.mk().fused_axpy(g, dist, a, gf.data(), n);
          EXPECT_EQ(0, std::memcmp(fref.data(), gf.data(), sz * sizeof(T)))
              << "fused_axpy(g) " << what;
          moved.set_state(static_cast<std::uint64_t>(r),
                          static_cast<std::uint64_t>(j));
          std::vector<std::uint64_t> skip(
              static_cast<std::size_t>(8 * ceil_div(n, chunk)));
          moved.fill_lanes(skip.data(), ceil_div(n, chunk));
          std::uint64_t next_g[8], next_moved[8];
          g.next8(next_g);
          moved.next8(next_moved);
          EXPECT_EQ(0, std::memcmp(next_g, next_moved, sizeof next_g))
              << "state after fused_axpy(g) " << what;
        }
      }
    }
  }
}

// A non-finite coefficient (A holding a NaN or an infinity) must leave its
// non-finite entries in the same positions on every tier and in the
// buffered path. The start column holds infinities of both signs, so
// Inf - Inf = NaN positions depend on each sample's sign.
template <typename T>
void check_non_finite_coefficients() {
  constexpr index_t kN = 133;
  const T inf = std::numeric_limits<T>::infinity();
  for (Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled}) {
    for (const T a : {std::numeric_limits<T>::quiet_NaN(), inf, -inf}) {
      std::vector<T> start = start_column<T>(kN);
      start[5] = inf;
      start[70] = -inf;
      std::vector<T> want;
      for (microkernel::Isa isa : supported_isas()) {
        const std::string what = "dist=" + to_string(dist) + " isa=" +
                                 microkernel::to_string(isa) + " a=" +
                                 std::to_string(a);
        SketchSampler<T> s(5, dist, RngBackend::XoshiroBatch, isa);
        std::vector<T> fused = start;
        s.fused_axpy(17, 42, a, fused.data(), kN);
        std::vector<T> v(kN), buffered = start;
        s.fill(17, 42, v.data(), kN);
        s.mk().axpy(kN, a, v.data(), buffered.data());
        expect_same_values(buffered, fused, "fused vs buffered " + what);
        if (want.empty()) want = fused;
        expect_same_values(want, fused, "tier vs scalar " + what);
      }
    }
  }
}

TEST(SimdEquivalence, SamplerFillMatchesAcrossIsas) {
  check_sampler_across_isas<double>();
  check_sampler_across_isas<float>();
  check_non_finite_coefficients<double>();
  check_non_finite_coefficients<float>();
}

// Dispatch plumbing: resolve() honors explicit tiers, best_supported() is
// itself supported, and every supported tier has a populated ops table.
TEST(SimdEquivalence, DispatchInvariants) {
  EXPECT_TRUE(microkernel::supported(microkernel::Isa::Scalar));
  const microkernel::Isa best = microkernel::best_supported();
  EXPECT_TRUE(microkernel::supported(best));
  EXPECT_NE(best, microkernel::Isa::Auto);
  for (microkernel::Isa isa : supported_isas()) {
    EXPECT_EQ(microkernel::resolve(isa), isa);
    const auto& ops = microkernel::ops<double>(isa);
    EXPECT_NE(ops.axpy, nullptr);
    EXPECT_NE(ops.axpy_multi, nullptr);
    EXPECT_NE(ops.fill, nullptr);
    EXPECT_NE(ops.fused_axpy, nullptr);
    EXPECT_NE(ops.fill_at, nullptr);
    EXPECT_NE(ops.fused_axpy_at, nullptr);
    const auto& fops = microkernel::ops<float>(isa);
    EXPECT_NE(fops.axpy, nullptr);
    EXPECT_NE(fops.fused_axpy, nullptr);
  }
  microkernel::Isa parsed = microkernel::Isa::Auto;
  EXPECT_TRUE(microkernel::parse_isa("avx2", &parsed));
  EXPECT_EQ(parsed, microkernel::Isa::Avx2);
  EXPECT_TRUE(microkernel::parse_isa("auto", &parsed));
  EXPECT_EQ(parsed, microkernel::Isa::Auto);
  EXPECT_FALSE(microkernel::parse_isa("sse9", &parsed));
}

}  // namespace
}  // namespace rsketch
