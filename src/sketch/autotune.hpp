// Model-driven block-size selection (paper §III-A, §V-B).
//
// The heuristic: pick n₁ (= b_n) by minimizing the §III-A reciprocal
// computational intensity, then take b_d as large as the cache constraint
// allows — the paper's observation that "setting b_d to larger values and
// decreasing b_n" offloads memory traffic onto the regenerated S.
#pragma once

#include "analysis/pattern.hpp"
#include "sketch/config.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Suggested outer blocking for Algorithm 1.
struct BlockSuggestion {
  index_t block_d = 0;
  index_t block_n = 0;
  double model_ci = 0.0;  ///< predicted computational intensity at optimum
};

/// Suggest (b_d, b_n) for a d×m·m×n sketch over a matrix of the given
/// density, a cache of `cache_bytes`, element size `elem_bytes`, and RNG
/// cost h (relative to a memory access; see model_rng_cost()).
BlockSuggestion suggest_blocks(index_t m, index_t n, index_t d, double density,
                               std::size_t cache_bytes, double rng_cost_h,
                               std::size_t elem_bytes);

/// The §III-A model's h for one (distribution, backend) pair: seconds per
/// short-vector sample over seconds per 4-byte memory access, the quantity
/// measure_h() times. A fixed table, not a probe: the values are medians of
/// bench/ablation_stream_bandwidth (EXPERIMENTS.md has the runs and how to
/// recalibrate), so the model's blocks depend on the input alone and no
/// tuning path times the machine. Junk ignores the backend.
constexpr double model_rng_cost(Dist dist, RngBackend backend) {
  const auto pick = [backend](double batch, double scalar, double philox) {
    switch (backend) {
      case RngBackend::XoshiroBatch: return batch;
      case RngBackend::Xoshiro: return scalar;
      case RngBackend::Philox: return philox;
    }
    return philox;
  };
  switch (dist) {
    case Dist::PmOne: return pick(1.1, 42.0, 32.0);
    case Dist::Uniform: return pick(1.6, 9.1, 34.0);
    case Dist::UniformScaled: return pick(1.5, 9.3, 45.0);
    case Dist::Gaussian: return pick(200.0, 180.0, 290.0);
    case Dist::Junk: return 1.4;
  }
  return pick(1.6, 9.1, 34.0);
}

/// Max-over-mean row degree above which a pattern counts as heavily skewed
/// and bias_blocks_for_skew() intervenes.
inline constexpr double kSkewBiasRatio = 8.0;

/// Skew guard for the block scheduler (DESIGN.md §5b): when the densest row
/// carries >= kSkewBiasRatio × the mean nnz-per-row, the §III-A suggestion
/// can hand back so few j-blocks that the LPT partitioner has nothing to
/// move — one dense slab pins one thread. Cap b_n so at least ~4 blocks
/// exist per thread (floor 8 total). No-op for balanced patterns or
/// sequential runs (nthreads < 2).
BlockSuggestion bias_blocks_for_skew(BlockSuggestion s,
                                     const RowDegreeStats& stats, index_t n,
                                     int nthreads);

/// Fill cfg.block_d / cfg.block_n for matrix `a` from the detected cache
/// size and model_rng_cost(cfg.dist, cfg.backend) — no timing, so the blocks
/// are a function of (A, d, dist, backend, sizeof(T), cache, team size).
/// Leaves cfg's blocks alone when there is nothing to block (d < 1 or A has
/// no columns), the same shapes resolve_tuning() dispatches verbatim.
template <typename T>
void autotune_blocks(SketchConfig& cfg, const CscMatrix<T>& a);

extern template void autotune_blocks<float>(SketchConfig&,
                                            const CscMatrix<float>&);
extern template void autotune_blocks<double>(SketchConfig&,
                                             const CscMatrix<double>&);

}  // namespace rsketch
