// Known-answer digests of the random stream S and of two small sketches.
//
// Every other stream test compares one ISA tier with another, or the fused
// path with the buffered one. A change to the shared template body of the
// micro-kernel tiers (sketch/kernel_simd_impl.hpp) moves every tier at once
// and passes all of those. The digests below are pinned, so any change to
// which random bits land where, or to how a sample is rounded into Â, fails
// here on every tier (CI also runs this suite with RSKETCH_ISA=scalar).
//
// A digest is 64-bit FNV-1a over the output bytes. When a change is meant to
// move the stream, the failure message prints the new value to pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "rng/distributions.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"

namespace rsketch {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* p, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
};

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Checkpoints include large r and j; lengths cover a lone sample, partial
// and whole 16- and 64-sample chunks, and a long column.
constexpr std::uint64_t kSeed = 20240607;
constexpr index_t kCheckpoints[][2] = {
    {0, 0}, {40, 7}, {3000, 123456}, {index_t{1} << 40, index_t{1} << 33}};
constexpr index_t kLengths[] = {1, 7, 16, 53, 64, 100, 1000};

template <typename T>
std::uint64_t fill_digest(Dist dist, RngBackend backend) {
  SketchSampler<T> s(kSeed, dist, backend);
  Fnv f;
  for (const auto& rj : kCheckpoints) {
    for (index_t n : kLengths) {
      std::vector<T> v(static_cast<std::size_t>(n));
      s.fill(rj[0], rj[1], v.data(), n);
      f.add(v.data(), v.size() * sizeof(T));
    }
  }
  return f.h;
}

template <typename T>
std::uint64_t fused_digest(Dist dist) {
  SketchSampler<T> s(kSeed, dist, RngBackend::XoshiroBatch);
  Fnv f;
  for (const auto& rj : kCheckpoints) {
    for (index_t n : kLengths) {
      std::vector<T> out(static_cast<std::size_t>(n));
      for (index_t i = 0; i < n; ++i) {
        out[static_cast<std::size_t>(i)] = static_cast<T>(0.25 * i - 3.0);
      }
      s.fused_axpy(rj[0], rj[1], static_cast<T>(-0.6875), out.data(), n);
      f.add(out.data(), out.size() * sizeof(T));
    }
  }
  return f.h;
}

struct Pinned {
  const char* what;
  std::uint64_t got;
  std::uint64_t want;
};

void expect_pinned(const std::vector<Pinned>& rows) {
  for (const Pinned& p : rows) {
    EXPECT_EQ(p.got, p.want) << p.what << ": digest " << hex(p.got)
                             << ", pinned " << hex(p.want);
  }
}

TEST(StreamKnownAnswer, FillDigests) {
  constexpr auto kX8 = RngBackend::XoshiroBatch;
  constexpr auto kScalar = RngBackend::Xoshiro;
  constexpr auto kPm1 = Dist::PmOne;
  constexpr auto kUniform = Dist::Uniform;
  constexpr auto kScaled = Dist::UniformScaled;
  expect_pinned({
      {"pm1 double x8", fill_digest<double>(kPm1, kX8), 0x2dbd1c5207dd3765ULL},
      {"pm1 float x8", fill_digest<float>(kPm1, kX8), 0xda007354d5eca8c5ULL},
      {"uniform double x8", fill_digest<double>(kUniform, kX8),
       0x3cf4d122b28729b6ULL},
      {"uniform float x8", fill_digest<float>(kUniform, kX8),
       0xead8537a569550aeULL},
      {"scaled double x8", fill_digest<double>(kScaled, kX8),
       0x17c0beee3b720202ULL},
      {"scaled float x8", fill_digest<float>(kScaled, kX8),
       0xfd0336390d1c33a2ULL},
      {"pm1 double scalar", fill_digest<double>(kPm1, kScalar),
       0xf035d4e5bdf161e5ULL},
      {"pm1 float scalar", fill_digest<float>(kPm1, kScalar),
       0x66b233c6dd7a0f45ULL},
      {"uniform double scalar", fill_digest<double>(kUniform, kScalar),
       0x028b613a3c1b194fULL},
      {"uniform float scalar", fill_digest<float>(kUniform, kScalar),
       0x29c45d90bbc7f444ULL},
      {"scaled double scalar", fill_digest<double>(kScaled, kScalar),
       0xc470131e43ac4083ULL},
      {"scaled float scalar", fill_digest<float>(kScaled, kScalar),
       0x8cd37c2753ec262fULL},
  });
}

// fused_axpy exists on the batched backend only (fused_eligible()).
TEST(StreamKnownAnswer, FusedDigests) {
  expect_pinned({
      {"pm1 double", fused_digest<double>(Dist::PmOne),
       0xa418e6fd9ad04d84ULL},
      {"pm1 float", fused_digest<float>(Dist::PmOne),
       0xc96057a46089778cULL},
      {"uniform double", fused_digest<double>(Dist::Uniform),
       0x4979e2494fb0b131ULL},
      {"uniform float", fused_digest<float>(Dist::Uniform),
       0xa208914c2a0a0e5bULL},
      {"scaled double", fused_digest<double>(Dist::UniformScaled),
       0x775ffee1a577244eULL},
      {"scaled float", fused_digest<float>(Dist::UniformScaled),
       0x5dc4262acfbd0c6dULL},
  });
}

std::uint64_t sketch_digest(KernelVariant kernel, Dist dist) {
  const auto a = random_sparse<double>(300, 40, 0.05, 11);
  SketchConfig cfg;
  cfg.d = 70;
  cfg.seed = kSeed;
  cfg.dist = dist;
  cfg.backend = RngBackend::XoshiroBatch;
  cfg.kernel = kernel;
  cfg.block_d = 48;
  cfg.block_n = 9;
  cfg.parallel = ParallelOver::Sequential;
  DenseMatrix<double> out(cfg.d, a.cols());
  sketch_into(cfg, a, out);
  Fnv f;
  for (index_t j = 0; j < out.cols(); ++j) {
    f.add(out.col(j), static_cast<std::size_t>(out.rows()) * sizeof(double));
  }
  return f.h;
}

TEST(StreamKnownAnswer, SketchDigests) {
  expect_pinned({
      {"kji pm1", sketch_digest(KernelVariant::Kji, Dist::PmOne),
       0xd55671f7ce6b1df1ULL},
      {"jki uniform", sketch_digest(KernelVariant::Jki, Dist::Uniform),
       0xc0e09658c8850329ULL},
  });
}

}  // namespace
}  // namespace rsketch
