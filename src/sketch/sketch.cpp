#include "sketch/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dense/blas1.hpp"
#include "perf/perf.hpp"
#include "support/aligned_buffer.hpp"
#include "support/arena.hpp"
#include "sketch/frame.hpp"
#include "sketch/outer_blocking.hpp"
#include "sketch/tuner.hpp"
#include "sparse/validate.hpp"
#include "support/run_control.hpp"
#include "support/timer.hpp"

namespace rsketch {

std::string to_string(KernelVariant k) {
  switch (k) {
    case KernelVariant::Kji: return "kji (Alg 3)";
    case KernelVariant::Jki: return "jki (Alg 4)";
  }
  return "?";
}

std::string to_string(ParallelOver p) {
  switch (p) {
    case ParallelOver::Sequential: return "sequential";
    case ParallelOver::DBlocks: return "parallel-d";
    case ParallelOver::NBlocks: return "parallel-n";
  }
  return "?";
}

std::string to_string(TuneMode t) {
  switch (t) {
    case TuneMode::Off: return "off";
    case TuneMode::Model: return "model";
    case TuneMode::Empirical: return "empirical";
    case TuneMode::Cached: return "cached";
  }
  return "?";
}

std::string to_string(OnPressure p) {
  switch (p) {
    case OnPressure::Fail: return "fail";
    case OnPressure::Degrade: return "degrade";
  }
  return "?";
}

template <typename T>
T sketch_post_scale(const SketchConfig& cfg) {
  double s = 1.0;
  if (cfg.dist == Dist::UniformScaled) s *= kScalingTrickFactor;
  if (cfg.normalize) {
    // After the trick's factor, entries are effectively uniform(-1,1), whose
    // second moment is 1/3 — not the raw int32 moment.
    const double m2 = cfg.dist == Dist::UniformScaled
                          ? 1.0 / 3.0
                          : static_cast<double>(dist_second_moment<T>(cfg.dist));
    s /= std::sqrt(static_cast<double>(cfg.d) * m2);
  }
  return static_cast<T>(s);
}

/// Bytes of the blocked-CSR auxiliary structure for an m×n, nnz-nonzero
/// matrix split into vertical blocks of width bn: values + column indices
/// per nonzero, plus one (m+1)-long row-pointer array per block.
std::size_t jki_convert_bytes(index_t rows, index_t cols, index_t block_n,
                              index_t nnz, std::size_t elem_bytes) {
  if (cols <= 0) return 0;
  const index_t bn = std::min(block_n, std::max<index_t>(cols, 1));
  const auto nblocks = static_cast<std::size_t>(ceil_div(cols, bn));
  return static_cast<std::size_t>(nnz) * (elem_bytes + sizeof(index_t)) +
         nblocks * (static_cast<std::size_t>(rows) + 1) * sizeof(index_t);
}

template <typename T>
std::size_t sketch_workspace_estimate(const SketchConfig& cfg, index_t rows,
                                      index_t cols, index_t nnz) {
  const int nthreads = team_size(cfg);
  // Per-thread regenerated-column scratch, sized exactly as ThreadCtx does
  // (the clamped b_d) and rounded up as AlignedBuffer charges it.
  std::size_t per_thread =
      static_cast<std::size_t>(cfg.row_block()) * sizeof(T);
  per_thread = (per_thread + kCacheLineBytes - 1) / kCacheLineBytes *
               kCacheLineBytes;
  std::size_t total = static_cast<std::size_t>(nthreads) * per_thread;
  if (cfg.kernel == KernelVariant::Jki) {
    total += jki_convert_bytes(rows, cols, cfg.block_n, nnz, sizeof(T));
  }
  return total;
}

namespace {

template <typename T>
void apply_post_scale(const SketchConfig& cfg, DenseMatrix<T>& a_hat) {
  const T s = sketch_post_scale<T>(cfg);
  if (s == T{1}) return;
  for (index_t j = 0; j < a_hat.cols(); ++j) scal(a_hat.rows(), s, a_hat.col(j));
}

template <typename T>
void apply_post_scale(const SketchConfig& cfg, std::vector<T>& b) {
  const T s = sketch_post_scale<T>(cfg);
  if (s != T{1}) scal(static_cast<index_t>(b.size()), s, b.data());
}

/// Kernel dispatch of sketch_into's body. `out` must already be d × n.
template <typename T>
SketchStats sketch_dispatch(const SketchConfig& cfg, const CscMatrix<T>& a,
                            DenseMatrix<T>& out, bool instrument,
                            RunControl* run) {
  if (cfg.kernel == KernelVariant::Kji) {
    return sketch_blocked_kji(cfg, a, out, instrument, run);
  }
  Timer convert;
  // The blocked-CSR structure is std::vector-backed, so the AlignedBuffer
  // budget hook never sees it — reserve its size estimate explicitly for as
  // long as it lives.
  ScopedCharge conversion_charge(
      run, run != nullptr && run->budget_armed()
               ? jki_convert_bytes(a.rows(), a.cols(), cfg.block_n, a.nnz(),
                                   sizeof(T))
               : 0);
  const BlockedCsr<T> ab = [&] {
    perf::Span span("blocked_csr_convert");
    return cfg.parallel == ParallelOver::Sequential
               ? BlockedCsr<T>::from_csc(a, cfg.block_n)
               : BlockedCsr<T>::from_csc_parallel(a, cfg.block_n);
  }();
  const double convert_seconds = convert.seconds();
  SketchStats stats = sketch_blocked_jki(cfg, ab, out, instrument, run);
  stats.convert_seconds = convert_seconds;
  return stats;
}

/// Walk the degradation ladder until the workspace estimate fits the
/// remaining budget, mutating `eff` in place. Every rung preserves Â
/// bitwise: the kernels accumulate each output entry in ascending row order
/// of A with (seed, b_d)-checkpointed columns of S, so thread count, b_n,
/// and the kji/jki choice never change a bit; b_d does for the xoshiro
/// backends (their sample streams are blocking-dependent by design), so the
/// b_d rung is gated to Philox. Returns the number of steps taken; throws
/// run_stopped_error(BudgetExceeded) under OnPressure::Fail or when the
/// ladder runs out.
template <typename T>
std::uint64_t apply_budget_ladder(SketchConfig& eff, const CscMatrix<T>& a,
                                  RunControl& run) {
  if (!run.budget_armed()) return 0;
  // Start from the b_d the driver runs, so the halve_block_d rung shrinks
  // real scratch instead of rows that never existed.
  eff.block_d = eff.row_block();
  const auto estimate = [&] {
    return sketch_workspace_estimate<T>(eff, a.rows(), a.cols(), a.nnz());
  };
  if (estimate() <= run.remaining_bytes()) return 0;
  if (eff.on_pressure == OnPressure::Fail) {
    throw run_stopped_error(
        StopCause::BudgetExceeded,
        "sketch_into: workspace estimate of " + std::to_string(estimate()) +
            " bytes exceeds the remaining budget of " +
            std::to_string(run.remaining_bytes()) +
            " bytes (on_pressure=fail)");
  }
  std::uint64_t steps = 0;
  const auto step = [&](const char* rung) {
    ++steps;
    perf::add(perf::Counter::RunDegradations, 1);
    perf::add_span("run_control/degrade", 0.0);
    perf::add_span(std::string("run_control/degrade/") + rung, 0.0);
  };
  while (estimate() > run.remaining_bytes()) {
    if (eff.parallel != ParallelOver::Sequential) {
      // R1: drop the thread team — scratch shrinks by ~nthreads×.
      eff.parallel = ParallelOver::Sequential;
      step("sequential");
    } else if (eff.kernel == KernelVariant::Jki &&
               eff.block_n < std::max<index_t>(a.cols(), 1)) {
      // R2: one vertical slab — fewest row-pointer arrays the conversion
      // can carry.
      eff.block_n = std::max<index_t>(a.cols(), 1);
      step("widen_block_n");
    } else if (eff.kernel == KernelVariant::Jki) {
      // R3: Algorithm 3 needs no auxiliary structure at all.
      eff.kernel = KernelVariant::Kji;
      step("kernel_kji");
    } else if (eff.backend == RngBackend::Philox && eff.block_d > 1) {
      // R4 (Philox only — blocking-independent stream): shrink the
      // regenerated-column scratch itself.
      eff.block_d = (eff.block_d + 1) / 2;
      step("halve_block_d");
    } else {
      throw run_stopped_error(
          StopCause::BudgetExceeded,
          "sketch_into: degradation ladder exhausted after " +
              std::to_string(steps) + " step(s); minimum workspace of " +
              std::to_string(estimate()) +
              " bytes still exceeds the remaining budget of " +
              std::to_string(run.remaining_bytes()) + " bytes");
    }
  }
  return steps;
}

}  // namespace

template <typename Out>
SketchStats sketch_frame(const SketchConfig& cfg, Out& out,
                         const SketchFrame<Out>& steps) {
  cfg.validate(steps.rows, steps.cols);
  if (cfg.check_inputs) {
    perf::Span span("validate_inputs");
    steps.check();
  }
  const SketchConfig eff =
      cfg.tune != TuneMode::Off && steps.tune ? steps.tune(cfg) : cfg;
  ResolvedRunControl rrc(eff.control, eff.deadline_ms,
                         eff.workspace_budget_bytes);
  RunControl* const run = rrc.get();
  // Unarmed: the body writes the caller's output in place. Armed: it writes
  // a private staging buffer that replaces `out` only once the whole call
  // succeeded.
  Out staging;
  Out& target = run == nullptr ? out : staging;
  try {
    if (run != nullptr) run->poll();
    // Staged before the budget scope installs (the budget bounds workspace,
    // not the result) and before the arena scope (the output escapes to the
    // caller, so it must not be arena-backed). The arena scope is
    // thread-local, so OMP workers still allocate off the plain heap.
    steps.stage(target);
    SketchStats stats;
    {
      ScopedBudgetScope budget(run);
      ScopedArenaScope arena(eff.arena);
      stats = steps.body(eff, target, run);
    }
    apply_post_scale(eff, target);
    if (run != nullptr) {
      run->poll();
      out = std::move(staging);
    }
    return stats;
  } catch (const run_stopped_error& e) {
    count_stop(e.cause());
    throw;
  }
}

template <typename T>
SketchStats sketch_into(const SketchConfig& cfg, const CscMatrix<T>& a,
                        DenseMatrix<T>& a_hat, bool instrument) {
  return sketch_frame<DenseMatrix<T>>(
      cfg, a_hat,
      {.rows = a.rows(),
       .cols = a.cols(),
       .check = [&] { require_valid(a); },
       // Resolve (kernel, blocks, isa) through the tuner; the
       // effective config carries tune == Off and the caller's backend.
       .tune = [&](const SketchConfig& c) { return resolve_tuning(c, a); },
       .stage = [&](DenseMatrix<T>& out) { fit(out, cfg.d, a.cols()); },
       .body = [&](const SketchConfig& c, DenseMatrix<T>& out,
                   RunControl* run) {
         SketchConfig eff = c;
         const std::uint64_t degradations =
             run != nullptr ? apply_budget_ladder(eff, a, *run) : 0;
         SketchStats stats = sketch_dispatch(eff, a, out, instrument, run);
         stats.degradations = degradations;
         return stats;
       }});
}

template <typename T>
DenseMatrix<T> sketch(const SketchConfig& cfg, const CscMatrix<T>& a) {
  DenseMatrix<T> a_hat(cfg.d, a.cols());
  sketch_into(cfg, a, a_hat);
  return a_hat;
}

template <typename T>
SketchStats sketch_into_prepartitioned(const SketchConfig& cfg,
                                       const BlockedCsr<T>& ab,
                                       DenseMatrix<T>& a_hat,
                                       bool instrument) {
  // The caller owns the partitioned structure, so there is no ladder here:
  // only the per-thread scratch is charged to a budget.
  return sketch_frame<DenseMatrix<T>>(
      cfg, a_hat,
      {.rows = ab.rows(),
       .cols = ab.cols(),
       .check = [&] { require_valid(ab); },
       .stage = [&](DenseMatrix<T>& out) { fit(out, cfg.d, ab.cols()); },
       .body = [&](const SketchConfig& c, DenseMatrix<T>& out,
                   RunControl* run) {
         return sketch_blocked_jki(c, ab, out, instrument, run);
       }});
}

template <typename T>
DenseMatrix<T> materialize_S(const SketchConfig& cfg, index_t m) {
  DenseMatrix<T> s(cfg.d, m);
  const index_t d = cfg.d;
  // The driver's clamped b_d, so the checkpoint coordinates (i0, j) match
  // exactly.
  const index_t bd = cfg.row_block();
  SketchSampler<T> sampler(cfg.seed, cfg.dist, cfg.backend);
  std::vector<T> v(static_cast<std::size_t>(bd));
  for (index_t j = 0; j < m; ++j) {
    for (index_t i0 = 0; i0 < d; i0 += bd) {
      const index_t d1 = std::min(bd, d - i0);
      sampler.fill(i0, j, v.data(), d1);
      for (index_t i = 0; i < d1; ++i) s(i0 + i, j) = v[static_cast<std::size_t>(i)];
    }
  }
  const T scale = sketch_post_scale<T>(cfg);
  if (scale != T{1}) {
    for (index_t j = 0; j < m; ++j) scal(s.rows(), scale, s.col(j));
  }
  return s;
}

#define RSKETCH_INSTANTIATE(T)                                               \
  template T sketch_post_scale<T>(const SketchConfig&);                      \
  template std::size_t sketch_workspace_estimate<T>(const SketchConfig&,     \
                                                    index_t, index_t,        \
                                                    index_t);                \
  template SketchStats sketch_into<T>(const SketchConfig&,                   \
                                      const CscMatrix<T>&, DenseMatrix<T>&,  \
                                      bool);                                 \
  template DenseMatrix<T> sketch<T>(const SketchConfig&,                     \
                                    const CscMatrix<T>&);                    \
  template SketchStats sketch_into_prepartitioned<T>(                        \
      const SketchConfig&, const BlockedCsr<T>&, DenseMatrix<T>&, bool);     \
  template DenseMatrix<T> materialize_S<T>(const SketchConfig&, index_t);     \
  template SketchStats sketch_frame(const SketchConfig&, DenseMatrix<T>&,    \
                                    const SketchFrame<DenseMatrix<T>>&);     \
  template SketchStats sketch_frame(const SketchConfig&, std::vector<T>&,    \
                                    const SketchFrame<std::vector<T>>&);

RSKETCH_INSTANTIATE(float)
RSKETCH_INSTANTIATE(double)
#undef RSKETCH_INSTANTIATE

}  // namespace rsketch
