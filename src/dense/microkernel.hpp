// Runtime-dispatched SIMD micro-kernel layer (DESIGN.md "SIMD micro-kernels").
//
// The sketching kernels' inner loops — the axpy against a regenerated column
// of S, the unroll-and-jam rank-1 update of Algorithm 4, and the fused
// generate-and-axpy of Algorithm 3 — are compiled once per ISA tier
// (portable scalar, AVX2+FMA, AVX-512) in dedicated translation units
// (sketch/kernel_simd_*.cpp) and selected at startup through a cpuid-based
// dispatch table, overridable with RSKETCH_ISA for testing.
//
// Every tier is built with floating-point contraction pinned OFF: the
// elementwise mul + add sequence rounds identically at any vector width, so
// scalar, AVX2, and AVX-512 dispatch produce bitwise-identical Â
// (tests/test_simd_equivalence.cpp asserts this). The speedup comes from
// vector width and register blocking, not from FMA fusion.
#pragma once

#include <cstdint>
#include <string>

#include "support/common.hpp"

namespace rsketch {

class XoshiroBatch;  // rng/xoshiro_batch.hpp
enum class Dist;     // rng/distributions.hpp

namespace microkernel {

/// Instruction-set tier of the micro-kernel translation units.
enum class Isa {
  Auto,    ///< resolve at runtime: RSKETCH_ISA override, else best supported
  Scalar,  ///< portable baseline (compiled at the base architecture)
  Avx2,    ///< AVX2 + FMA hardware, 256-bit vectors
  Avx512   ///< AVX-512 F/VL/DQ/BW hardware, 512-bit vectors
};

/// Register-blocking factor of the jki unroll-and-jam: one regenerated
/// column v of S is applied to up to kMaxJam destination columns of Â per
/// sweep, so v is loaded once per kMaxJam nonzeros instead of once per
/// nonzero. 4 accumulator columns × 2 vectors each stays comfortably inside
/// 16 ymm / 32 zmm architectural registers.
inline constexpr index_t kMaxJam = 4;

/// Dispatch table of one ISA tier. All entries implement plain mul + add
/// (no contraction) so the produced bits are tier-independent.
template <typename T>
struct Ops {
  /// y[i] += a * x[i]; x and y must not alias.
  void (*axpy)(index_t n, T a, const T* x, T* y) = nullptr;
  /// ys[c][i] += alphas[c] * v[i] for c in [0, ncols), ncols <= kMaxJam.
  /// The ys must be mutually distinct and must not alias v.
  void (*axpy_multi)(index_t n, const T* v, const T* alphas, T* const* ys,
                     index_t ncols) = nullptr;
  /// v[0..n) := the chunked distribution transform of the batched xoshiro
  /// stream at `checkpoint` (XoshiroBatch::checkpoint(r, j)), for the
  /// batch-chunked distributions (PmOne, Uniform, UniformScaled) only. The
  /// lane states are derived in registers; no XoshiroBatch is touched.
  void (*fill_at)(std::uint64_t checkpoint, Dist dist, T* v,
                  index_t n) = nullptr;
  /// Fused generate-and-axpy: out[i] += a * s_i where s_i is the same stream
  /// fill_at() would have produced — the column of S goes straight from the
  /// generator lanes into the update without a scratch buffer. Same
  /// distribution restriction and bitwise contract as fill_at(); for +-1 the
  /// update adds +-a, which equals a * s_i exactly.
  void (*fused_axpy_at)(std::uint64_t checkpoint, Dist dist, T a, T* out,
                        index_t n) = nullptr;
  /// fill_at() and fused_axpy_at() from g's current state instead of a
  /// checkpoint, advancing g by the batches consumed (ceil(n / chunk)); the
  /// caller positions g with set_state() first.
  void (*fill)(XoshiroBatch& g, Dist dist, T* v, index_t n) = nullptr;
  void (*fused_axpy)(XoshiroBatch& g, Dist dist, T a, T* out,
                     index_t n) = nullptr;
};

/// True when the translation unit for `isa` was compiled into this binary
/// (the build gates the AVX TUs on compiler flag support and x86 targets).
bool compiled(Isa isa);

/// compiled(isa) && the host CPU advertises the required features.
/// Scalar and Auto are always supported.
bool supported(Isa isa);

/// Highest supported tier on this host (never Auto; Scalar at worst).
Isa best_supported();

/// Concrete tier for a requested one. Auto resolves through the RSKETCH_ISA
/// environment override (parsed once per process, invalid or unsupported
/// values warn once and fall back) and then to best_supported(). An explicit
/// unsupported request warns once and degrades to best_supported() rather
/// than crashing on illegal instructions.
Isa resolve(Isa requested);

/// "auto" | "scalar" | "avx2" | "avx512".
const char* to_string(Isa isa);

/// Parse the to_string() tokens; false (and *out untouched) on anything else.
bool parse_isa(const std::string& s, Isa* out);

/// Dispatch table for a concrete tier; call resolve() first. Requesting a
/// tier that is not compiled in returns the scalar table.
template <typename T>
const Ops<T>& ops(Isa resolved);

extern template const Ops<float>& ops<float>(Isa);
extern template const Ops<double>& ops<double>(Isa);

}  // namespace microkernel
}  // namespace rsketch
