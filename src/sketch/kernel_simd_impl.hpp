// Shared template body of the micro-kernel ISA tiers (dense/microkernel.hpp).
//
// This header is compiled once per tier: kernel_simd_{scalar,avx2,avx512}.cpp
// each define RSKETCH_SIMD_NS and include it, and CMake gives each TU its own
// -m flags plus -ffp-contract=off. The loops are written so the compiler
// auto-vectorizes them at whatever width the flags allow, and the generator
// core uses vector types of the tier's native width; because contraction is
// pinned off, every tier performs the identical elementwise mul + add
// sequence and therefore produces bitwise-identical results — the dispatch
// contract tests/test_simd_equivalence.cpp enforces.
//
// The batched-xoshiro fill and fused generate-and-axpy entries share one
// generator core (Lanes) that seeks, steps and transforms in vector
// registers. Both consume the stream in the same chunk layout (one 8x64-bit
// batch -> 64 +-1 samples or 16 uniforms), so fusing never changes which
// random bits land where.
//
// Tracing granularity: nothing in this header emits perf::trace events. The
// loops here run per chunk / per nonzero — millions of times per sketch — so
// even one armed-flag branch per call would be measurable. The trace
// instrumentation floor is the kernel outer block (kernel_{jki,kji}.cpp),
// one Scope per (i-block, j-block) pair; keep it there.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>

#include "dense/microkernel.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro_batch.hpp"

#ifndef RSKETCH_SIMD_NS
#error "kernel_simd_impl.hpp must be included with RSKETCH_SIMD_NS defined"
#endif

namespace rsketch::microkernel {
namespace RSKETCH_SIMD_NS {
namespace {

constexpr float kInv31f = 1.0f / 2147483648.0f;  // 2^-31

// ---- register-blocked dense updates ---------------------------------------

template <typename T>
void axpy_one(index_t n, T a, const T* __restrict x, T* __restrict y) {
#pragma omp simd
  for (index_t i = 0; i < n; ++i) y[i] += a * x[i];
}

// The jam bodies keep one vector load of v per iteration feeding R
// independent accumulator columns — R-fold reuse of the regenerated column
// straight out of registers (Algorithm 4's reuse argument applied one level
// down the memory hierarchy).

template <typename T>
void jam2(index_t n, const T* __restrict v, T a0, T a1, T* __restrict y0,
          T* __restrict y1) {
#pragma omp simd
  for (index_t i = 0; i < n; ++i) {
    const T vi = v[i];
    y0[i] += a0 * vi;
    y1[i] += a1 * vi;
  }
}

template <typename T>
void jam3(index_t n, const T* __restrict v, T a0, T a1, T a2,
          T* __restrict y0, T* __restrict y1, T* __restrict y2) {
#pragma omp simd
  for (index_t i = 0; i < n; ++i) {
    const T vi = v[i];
    y0[i] += a0 * vi;
    y1[i] += a1 * vi;
    y2[i] += a2 * vi;
  }
}

template <typename T>
void jam4(index_t n, const T* __restrict v, T a0, T a1, T a2, T a3,
          T* __restrict y0, T* __restrict y1, T* __restrict y2,
          T* __restrict y3) {
#pragma omp simd
  for (index_t i = 0; i < n; ++i) {
    const T vi = v[i];
    y0[i] += a0 * vi;
    y1[i] += a1 * vi;
    y2[i] += a2 * vi;
    y3[i] += a3 * vi;
  }
}

template <typename T>
void axpy_multi(index_t n, const T* v, const T* alphas, T* const* ys,
                index_t ncols) {
  switch (ncols) {
    case 1:
      axpy_one(n, alphas[0], v, ys[0]);
      return;
    case 2:
      jam2(n, v, alphas[0], alphas[1], ys[0], ys[1]);
      return;
    case 3:
      jam3(n, v, alphas[0], alphas[1], alphas[2], ys[0], ys[1], ys[2]);
      return;
    case 4:
      jam4(n, v, alphas[0], alphas[1], alphas[2], alphas[3], ys[0], ys[1],
           ys[2], ys[3]);
      return;
    default:
      // Callers group by kMaxJam; anything wider degrades gracefully.
      for (index_t c = 0; c < ncols; ++c) axpy_one(n, alphas[c], v, ys[c]);
      return;
  }
}

// ---- register-resident batched xoshiro core --------------------------------
// The 8-lane generator of rng/xoshiro_batch.hpp held in vector registers of
// the tier's native width: each state word is kParts vectors of kLanesPer
// lanes (one zmm on AVX-512, two ymm on AVX2, four xmm on the baseline
// tier). Native width matters: gcc lowers a vector wider than the target's
// registers through the stack. Vectors cross function boundaries by
// reference only, and the core lives in this per-tier anonymous namespace,
// never in a shared header, so the linker cannot hand one tier's copy to
// another.

#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
#elif defined(__AVX2__)
constexpr int kVecBytes = 32;
#else
constexpr int kVecBytes = 16;
#endif
typedef std::uint64_t u64v __attribute__((vector_size(kVecBytes)));
constexpr int kLanesPer = kVecBytes / 8;
constexpr int kParts = XoshiroBatch::kLanes / kLanesPer;
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// One batch: 8 words, lane l in part l / kLanesPer.
using Batch = u64v[kParts];

class Lanes {
 public:
  /// Seek to a checkpoint word (XoshiroBatch::checkpoint): lane l runs
  /// splitmix64 from base + kGolden * (l + 1), exactly as XoshiroBatch
  /// derives its state lane by lane, but vector-wide and in registers.
  explicit Lanes(std::uint64_t base) {
    for (int p = 0; p < kParts; ++p) {
      u64v sm = {};
      for (int i = 0; i < kLanesPer; ++i) {
        const auto lane = static_cast<std::uint64_t>(p * kLanesPer + i);
        sm[i] = base + kGolden * (lane + 1);
      }
      splitmix(sm, s0_[p]);
      splitmix(sm, s1_[p]);
      splitmix(sm, s2_[p]);
      splitmix(sm, s3_[p]);
    }
  }

  explicit Lanes(const XoshiroBatch& g) {
    std::memcpy(s0_, g.state()[0], sizeof s0_);
    std::memcpy(s1_, g.state()[1], sizeof s1_);
    std::memcpy(s2_, g.state()[2], sizeof s2_);
    std::memcpy(s3_, g.state()[3], sizeof s3_);
  }

  void store(XoshiroBatch& g) const {
    std::memcpy(g.state()[0], s0_, sizeof s0_);
    std::memcpy(g.state()[1], s1_, sizeof s1_);
    std::memcpy(g.state()[2], s2_, sizeof s2_);
    std::memcpy(g.state()[3], s3_, sizeof s3_);
  }

  /// w := the next batch (one xoshiro256++ output per lane), then step.
  void next(Batch& w) {
    for (int p = 0; p < kParts; ++p) {
      u64v& s0 = s0_[p];
      u64v& s1 = s1_[p];
      u64v& s2 = s2_[p];
      u64v& s3 = s3_[p];
      const u64v sum = s0 + s3;
      w[p] = ((sum << 23) | (sum >> 41)) + s0;
      const u64v t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
    }
  }

 private:
  static void splitmix(u64v& sm, u64v& out) {
    sm += kGolden;
    u64v z = (sm ^ (sm >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    out = z ^ (z >> 31);
  }

  Batch s0_, s1_, s2_, s3_;
};

// ---- batch -> samples ------------------------------------------------------
// A chunk is what one batch (64 random bytes) becomes: 64 +-1 samples or 16
// uniforms. Word order is fixed: sample k of a +-1 chunk is bit 0 of byte k
// of the batch (byte k%8 of lane k/8), set meaning -1; sample k of a uniform
// chunk is int32 k of the batch (the low half of lane k/2 first). Fill and
// fused entries and every tier read the stream this way. Each transform
// applies the first m samples of its chunk in place, so the last partial
// chunk needs no scratch.

/// Vectors of T at the tier's native width and the unsigned integers of the
/// same lanes.
template <typename T>
struct Native;

template <>
struct Native<double> {
  typedef double V __attribute__((vector_size(kVecBytes)));
  typedef std::uint64_t Bits __attribute__((vector_size(kVecBytes)));
  typedef std::uint64_t Word;
};

template <>
struct Native<float> {
  typedef float V __attribute__((vector_size(kVecBytes)));
  typedef std::uint32_t Bits __attribute__((vector_size(kVecBytes)));
  typedef std::uint32_t Word;
};

/// +-1: the fill writes 1.0 with the sample's sign; the fused update adds a
/// with its sign bit XOR-ed by the sample's. a * (+-1) is exact, so
/// out + (+-a) rounds exactly as out + a * s does: the bits are those of
/// fill-then-axpy. (Only a NaN a can tell the two apart, by the NaN's sign.)
template <typename T>
struct SignChunk {
  using V = typename Native<T>::V;
  using Bits = typename Native<T>::Bits;
  using Word = typename Native<T>::Word;
  static constexpr int kWidth = kVecBytes / sizeof(T);
  static constexpr int kGroups = 64 / kWidth;
  static constexpr int kBytesPerWord = sizeof(Word);

  /// Sign bits of samples G*kWidth + i, i < kWidth: sample k is bit 0 of
  /// byte k of the batch, so lane i takes the Word holding that byte and
  /// shifts the bit to the top.
  template <int G, int... I>
  [[gnu::always_inline]] static void signs(const Batch& w, Bits& s,
                                           std::integer_sequence<int, I...>) {
    constexpr int k0 = G * kWidth;
    const Bits words = (Bits)w[k0 / kVecBytes];
    const Bits lane = {words[((k0 + I) / kBytesPerWord) % kWidth]...};
    const Bits shift = {static_cast<Word>(8 * kBytesPerWord - 1 -
                                          8 * ((k0 + I) % kBytesPerWord))...};
    s = (lane << shift) & (Word{1} << (8 * kBytesPerWord - 1));
  }

  /// Group G of the chunk into out[G*kWidth ..), r of its lanes: all of
  /// them, or the last partial group of the last chunk.
  template <bool kFused, int G>
  [[gnu::always_inline]] static void group(const Batch& w, const Bits& abits,
                                           T* __restrict out, int r) {
    constexpr Word kOne = std::bit_cast<Word>(T{1});
    Bits s = {};
    signs<G>(w, s, std::make_integer_sequence<int, kWidth>{});
    const V x = (V)(kFused ? abits ^ s : s | kOne);
    out += G * kWidth;
    if (r == kWidth && kFused) {
      V y = {};
      std::memcpy(&y, out, sizeof y);
      y += x;
      std::memcpy(out, &y, sizeof y);
    } else if (r == kWidth) {
      std::memcpy(out, &x, sizeof x);
    } else {
      for (int i = 0; i < r; ++i) out[i] = kFused ? out[i] + x[i] : x[i];
    }
  }

  /// The first m samples of the chunk, group by group.
  template <bool kFused>
  [[gnu::always_inline]] static void apply(const Batch& w, T a,
                                           T* __restrict out, index_t m) {
    groups<kFused>(w, Bits{} + std::bit_cast<Word>(a), out, m,
                   std::make_integer_sequence<int, kGroups>{});
  }

  template <bool kFused, int... G>
  [[gnu::always_inline]] static void groups(const Batch& w, const Bits& abits,
                                            T* __restrict out, index_t m,
                                            std::integer_sequence<int, G...>) {
    ((G * kWidth < m ? group<kFused, G>(w, abits, out,
                                        static_cast<int>(std::min<index_t>(
                                            kWidth, m - G * kWidth)))
                     : void()),
     ...);
  }
};

/// Uniform (int32 * 2^-31) and the scaling trick (raw int32): the same int32
/// stream, so trick * 2^-31 == uniform holds exactly. The fused update
/// rounds a * s first and the add second, never contracted. A plain loop:
/// the int32 -> T conversion vectorizes well at every width as written.
template <typename T, bool kScale>
struct IntChunk {
  template <bool kFused>
  [[gnu::always_inline]] static void apply(const Batch& w, T a,
                                           T* __restrict out, index_t m) {
    alignas(64) std::int32_t ints[16];
    std::memcpy(ints, w, sizeof ints);
#pragma omp simd aligned(ints : 64)
    for (index_t k = 0; k < m; ++k) {
      T s = static_cast<T>(ints[k]);
      if constexpr (kScale) s = s * static_cast<T>(kInv31f);
      if constexpr (kFused) {
        out[k] += a * s;
      } else {
        out[k] = s;
      }
    }
  }
};

// ---- fill and fused sweeps -------------------------------------------------

/// n samples of g's stream into out, chunk by chunk; the last partial chunk
/// is applied in place. Consumes ceil(n / kChunk) batches, so a prefix of a
/// longer call is the same stream.
template <index_t kChunk, typename Chunk, bool kFused, typename T>
[[gnu::always_inline]] inline void sweep(Lanes& g, T a, T* __restrict out,
                                         index_t n) {
  Batch w = {};
  for (index_t c = n / kChunk; c > 0; --c, out += kChunk) {
    g.next(w);
    Chunk::template apply<kFused>(w, a, out, kChunk);
  }
  const index_t rem = n % kChunk;
  if (rem <= 0) return;
  g.next(w);
  Chunk::template apply<kFused>(w, a, out, rem);
}

template <typename T, bool kFused>
[[gnu::always_inline]] inline void sweep(Lanes& g, Dist dist, T a, T* out,
                                         index_t n) {
  switch (dist) {
    case Dist::PmOne:
      sweep<64, SignChunk<T>, kFused>(g, a, out, n);
      return;
    case Dist::Uniform:
      sweep<16, IntChunk<T, true>, kFused>(g, a, out, n);
      return;
    case Dist::UniformScaled:
      sweep<16, IntChunk<T, false>, kFused>(g, a, out, n);
      return;
    default:
      // Gaussian/Junk never dispatch here (the sampler routes them through
      // its generic paths); a misuse is a library bug, not user error.
      require(false, "microkernel: distribution is not chunk-capable");
  }
}

// The table entries: seek from a checkpoint word in registers, or run on a
// caller's XoshiroBatch and write its advanced state back.

template <typename T>
void fill_at(std::uint64_t checkpoint, Dist dist, T* v, index_t n) {
  Lanes g(checkpoint);
  sweep<T, false>(g, dist, T{}, v, n);
}

template <typename T>
void fused_axpy_at(std::uint64_t checkpoint, Dist dist, T a, T* out,
                   index_t n) {
  Lanes g(checkpoint);
  sweep<T, true>(g, dist, a, out, n);
}

template <typename T>
void fill(XoshiroBatch& gen, Dist dist, T* v, index_t n) {
  Lanes g(gen);
  sweep<T, false>(g, dist, T{}, v, n);
  g.store(gen);
}

template <typename T>
void fused_axpy(XoshiroBatch& gen, Dist dist, T a, T* out, index_t n) {
  Lanes g(gen);
  sweep<T, true>(g, dist, a, out, n);
  g.store(gen);
}

}  // namespace

template <typename T>
Ops<T> make_ops() {
  Ops<T> t;
  t.axpy = &axpy_one<T>;
  t.axpy_multi = &axpy_multi<T>;
  t.fill = &fill<T>;
  t.fused_axpy = &fused_axpy<T>;
  t.fill_at = &fill_at<T>;
  t.fused_axpy_at = &fused_axpy_at<T>;
  return t;
}

template Ops<float> make_ops<float>();
template Ops<double> make_ops<double>();

}  // namespace RSKETCH_SIMD_NS
}  // namespace rsketch::microkernel
