// Batched ("SIMD") Xoshiro256++: eight independent lanes stepped in lockstep
// (AVX2: 4×64-bit per vector; AVX-512: 8). This mirrors the SIMD Xoshiro the
// paper uses via RandomNumbers.jl / SIMDxorshift. This class defines the
// stream; the hot path that fills or updates the regenerated column v of S
// runs the same lanes in the micro-kernel tiers' registers
// (sketch/kernel_simd_impl.hpp), seeded from checkpoint().
#pragma once

#include <cstdint>

#include "rng/splitmix64.hpp"
#include "support/common.hpp"

namespace rsketch {

/// Eight-lane Xoshiro256++ with structure-of-arrays state.
///
/// Lane l of the batch is an independent Xoshiro stream derived from
/// (seed, r, j, l); a bulk fill interleaves lane outputs, so the produced
/// stream is a pure function of (seed, r, j) — exactly the block-checkpoint
/// reproducibility contract of the scalar generator.
class XoshiroBatch {
 public:
  static constexpr int kLanes = 8;

  explicit XoshiroBatch(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) {
    seed_ = seed;
    set_state(0, 0);
  }

  /// O(1) checkpoint seek; see Xoshiro256pp::set_state.
  void set_state(std::uint64_t r, std::uint64_t j) {
    derive_state(checkpoint(r, j));
  }

  /// The word a (r, j) checkpoint seeds from: lane l's state is four
  /// splitmix64 outputs started at checkpoint + golden * (l + 1). The
  /// micro-kernels (dense/microkernel.hpp) seek from this word directly.
  std::uint64_t checkpoint(std::uint64_t r, std::uint64_t j) const {
    return mix3(seed_, r, j);
  }

  /// Word-major lane state: state()[k][l] is state word k of lane l. The
  /// micro-kernels load it into registers and write it back.
  using State = std::uint64_t[4][kLanes];
  State& state() { return s_; }
  const State& state() const { return s_; }

  /// Produce one 64-bit output per lane into out[0..kLanes).
  inline void next8(std::uint64_t* out) {
    // Plain elementwise loops over the 8 lanes; with -O2 -march=native GCC
    // vectorizes each into a couple of AVX instructions.
    auto& [s0, s1, s2, s3] = s_;
    for (int l = 0; l < kLanes; ++l) {
      out[l] = rotl(s0[l] + s3[l], 23) + s0[l];
    }
    for (int l = 0; l < kLanes; ++l) {
      const std::uint64_t t = s1[l] << 17;
      s2[l] ^= s0[l];
      s3[l] ^= s1[l];
      s1[l] ^= s2[l];
      s0[l] ^= s3[l];
      s2[l] ^= t;
      s3[l] = rotl(s3[l], 45);
    }
  }

  /// `nbatches` consecutive next8() batches, written raw (lane-interleaved,
  /// untransformed) into out[0 .. nbatches*kLanes) — the words the
  /// micro-kernels' chunk transforms consume, for tests that pin the
  /// stream-consumption order.
  void fill_lanes(std::uint64_t* out, index_t nbatches) {
    for (index_t c = 0; c < nbatches; ++c) next8(out + c * kLanes);
  }

  /// Fill out[0..n) with 64-bit outputs (lane-interleaved); the tail of the
  /// final batch of 8 is discarded, keeping the stream a function of the
  /// checkpoint only (not of n's residue history).
  void fill_u64(std::uint64_t* out, index_t n) {
    const index_t full = n / kLanes;
    fill_lanes(out, full);
    if (full * kLanes < n) {
      std::uint64_t tail[kLanes];
      next8(tail);
      for (index_t i = full * kLanes, l = 0; i < n; ++i, ++l) {
        out[i] = tail[l];
      }
    }
  }

 private:
  void derive_state(std::uint64_t base) {
    for (int l = 0; l < kLanes; ++l) {
      std::uint64_t sm = base + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(l + 1);
      for (auto& word : s_) word[l] = splitmix64_next(sm);
    }
  }

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t seed_ = 0;
  alignas(64) State s_ = {};
};

}  // namespace rsketch
