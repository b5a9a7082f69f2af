// Public configuration and statistics types for the sketching API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "dense/microkernel.hpp"
#include "perf/counters.hpp"
#include "rng/distributions.hpp"
#include "support/common.hpp"

namespace rsketch {

class RunControl;
class ArenaHook;

/// Compute-kernel variant (paper §II-B).
enum class KernelVariant {
  Kji,  ///< Algorithm 3: CSC-driven, strided accesses, regenerates a column
        ///< of S per nonzero of A; pattern-oblivious, RNG-hungry.
  Jki   ///< Algorithm 4: blocked-CSR-driven, reuses one regenerated column
        ///< of S across a whole row of the vertical block; fewer samples,
        ///< sparsity-pattern-dependent access.
};

/// Whether Algorithm 1's outer loops run on the OpenMP team (§II-C).
enum class ParallelOver {
  Sequential,  ///< no threading
  DBlocks      ///< LPT over (i-block, j-block) pairs — disjoint output
               ///< panels, no synchronization
};

/// How sketch_into() chooses (kernel, blocks, isa) before
/// dispatching (sketch/tuner.hpp; see docs/AUTOTUNING.md). The caller's
/// dist, backend and seed are never tuned.
enum class TuneMode {
  Off,        ///< use the caller's config verbatim (default; zero overhead)
  Model,      ///< §III-A model via suggest_blocks() — no probe, one O(nnz) pass
  Empirical,  ///< time a candidate set on a pilot sub-sketch, pick the winner
  Cached      ///< empirical, with the winner persisted in the tuning cache
              ///< keyed by (machine signature, matrix fingerprint)
};

/// What a budget-bounded sketch does when the configured workspace does not
/// fit (docs/ROBUSTNESS.md "Run control").
enum class OnPressure {
  Fail,    ///< throw run_stopped_error(BudgetExceeded) at the first pressure
  Degrade  ///< walk the degradation ladder toward a config that fits
           ///< (bitwise-identical Â), throwing only when the ladder runs out
};

std::string to_string(KernelVariant k);
std::string to_string(TuneMode t);
std::string to_string(OnPressure p);

/// Full specification of a sketch Â = S·A.
struct SketchConfig {
  index_t d = 0;                    ///< rows of S (sketch size), d = γ·n
  std::uint64_t seed = 0x5EEDBA5E;  ///< sketch seed; fixes S exactly
  Dist dist = Dist::Uniform;
  RngBackend backend = RngBackend::XoshiroBatch;
  KernelVariant kernel = KernelVariant::Kji;
  index_t block_d = 3000;  ///< b_d: row-block size of Â/S
  index_t block_n = 500;   ///< b_n: column-block size of Â/A
  ParallelOver parallel = ParallelOver::DBlocks;
  /// Scale Â by 1/sqrt(d·E[s²]) so S becomes a (near-)isometry on average —
  /// what the least-squares pipeline wants.
  bool normalize = false;
  /// Run the full structural + NaN/Inf validators (sparse/validate.hpp) on A
  /// before sketching, throwing validation_error on corrupt input. Off by
  /// default in the library hot path (one branch, zero scans); sketch_tool
  /// turns it on. See docs/ROBUSTNESS.md.
  bool check_inputs = false;
  /// Autotuning mode: when not Off, sketch_into() resolves (kernel, block_d,
  /// block_n, isa) through sketch/tuner.hpp before dispatching.
  /// The hot path pays one branch when Off. See docs/AUTOTUNING.md.
  TuneMode tune = TuneMode::Off;
  /// Micro-kernel ISA tier for the inner loops (dense/microkernel.hpp).
  /// Auto resolves to the best tier the build and CPU support, overridable
  /// via RSKETCH_ISA. Pinning a tier is for tests, tuning, and debugging —
  /// every tier produces bitwise-identical Â, so this is a pure speed knob.
  microkernel::Isa isa = microkernel::Isa::Auto;

  // --- Run control (support/run_control.hpp; docs/ROBUSTNESS.md) ---------
  /// Wall-clock deadline in milliseconds for this call (0 = none; the
  /// RSKETCH_DEADLINE_MS env knob back-stops a zero here). A run past its
  /// deadline throws run_stopped_error(DeadlineExceeded) within one outer
  /// block, leaving the output untouched.
  double deadline_ms = 0.0;
  /// Workspace byte budget for this call's scratch allocations beyond the
  /// input and the output (0 = none; RSKETCH_BUDGET_MB back-stops). What
  /// happens on pressure is `on_pressure`.
  std::size_t workspace_budget_bytes = 0;
  OnPressure on_pressure = OnPressure::Degrade;
  /// Optional external handle for cooperative cancellation (and/or caller-
  /// managed deadline and budget). Not owned; must outlive the call. With
  /// this null and no deadline/budget set, the hot path pays one predictable
  /// branch per outer block.
  RunControl* control = nullptr;
  /// Optional workspace arena (support/arena.hpp) serving the kernels'
  /// scratch allocations — SketchBatch installs its shared recycling arena
  /// here so a stream of jobs reuses slabs instead of paying
  /// aligned_alloc/free per job. Not owned; must outlive the call. The
  /// staged OUTPUT is never arena-backed (it escapes to the caller).
  ArenaHook* arena = nullptr;

  /// The b_d the driver actually runs: block_d clamped to d (and to 1 when
  /// d is 0). Workspace sizing, the budget estimate and S's checkpoint
  /// coordinates all use this, never the raw block_d.
  index_t row_block() const {
    return std::min(block_d, std::max<index_t>(d, 1));
  }

  /// Throws invalid_argument_error when structurally invalid.
  void validate() const {
    require(d >= 0, "SketchConfig: d must be nonnegative");
    require(block_d >= 1, "SketchConfig: block_d must be >= 1");
    require(block_n >= 1, "SketchConfig: block_n must be >= 1");
    require(deadline_ms >= 0.0, "SketchConfig: deadline_ms must be >= 0");
  }
};

/// Timing / counting breakdown of one sketch invocation (paper Tables III–V).
struct SketchStats {
  double total_seconds = 0.0;    ///< sample + multiply (excludes conversion)
  double sample_seconds = 0.0;   ///< time inside RNG fills (instrumented runs)
  double convert_seconds = 0.0;  ///< CSC → blocked CSR time (Alg. 4 only)
  std::uint64_t samples_generated = 0;  ///< entries of S produced
  double gflops = 0.0;  ///< 2·d·nnz(A) / total_seconds / 1e9
  /// Micro-kernel ISA tier the kernels actually dispatched (never Auto).
  microkernel::Isa isa = microkernel::Isa::Scalar;
  /// Thread team size of the parallel sketch region (0 = ran sequentially
  /// or uninstrumented).
  int threads_used = 0;
  /// Max-thread-busy over mean-thread-busy for the parallel region (1.0 =
  /// perfectly balanced, ~threads_used = one thread did all the work;
  /// 0 when sequential or uninstrumented). Populated only when RSKETCH_PERF
  /// or tracing is on — measuring it costs one timer pair per kernel call.
  double thread_imbalance = 0.0;
  /// Predicted max/mean per-thread cost of the block schedule the kernels
  /// executed (1.0 = model says perfectly balanced; 0 only when the run was
  /// sequential: one thread, or at most one schedulable block). Compare
  /// with `thread_imbalance` to judge the cost model: predicted vs measured.
  double schedule_imbalance_est = 0.0;
  /// Column-block width the kernel ran: for kji, cfg.block_n clamped to n
  /// and narrowed to give every thread a block when the grid is smaller than
  /// the team (so cfg.block_n is an upper bound); for jki, the blocked CSR's
  /// width; 0 for the right sketch.
  index_t block_n = 0;

  /// Degradation-ladder steps taken by this call under budget pressure
  /// (0 = ran with the requested configuration). Each step is also visible
  /// as a run_control/degrade perf span. See docs/ROBUSTNESS.md.
  std::uint64_t degradations = 0;

  /// Software work/traffic counters, populated when the run is instrumented
  /// or RSKETCH_PERF is on (all-zero otherwise). See perf/counters.hpp.
  perf::KernelCounters counters;

  /// Measured computational intensity (flops per element moved or
  /// generated) — comparable to the §III-A model in analysis/roofline.hpp.
  double measured_intensity() const { return counters.intensity_per_element(); }
};

}  // namespace rsketch
