// The one pipeline frame every sketch entry point runs in:
//
//   validate → arm run control → (tune) → fit → body → post-scale → publish
//
// sketch_into, sketch_into_prepartitioned and sketch_right_into differ only
// in the steps they plug in; validation order, run control, clean-throw
// staging, the budget and arena scopes, the post-scale and stop counting are
// written once here. Every entry point writes a d × cols DenseMatrix.
#pragma once

#include <functional>

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"

namespace rsketch {

/// One entry point's steps.
template <typename T>
struct SketchFrame {
  /// Columns of the d × cols output.
  index_t cols = 0;
  /// The cfg.check_inputs scan of the input (throws validation_error).
  std::function<void()> check = nullptr;
  /// Resolve cfg.tune into an effective config; empty when the entry point
  /// has no tuner (only sketch_into has one). Runs under the armed bounds.
  std::function<SketchConfig(const SketchConfig&)> tune = nullptr;
  /// The computation into the fitted output. `run` is nullptr when nothing
  /// is armed; otherwise the body polls it and may throw run_stopped_error.
  std::function<SketchStats(const SketchConfig&, DenseMatrix<T>&,
                            RunControl* run)>
      body = nullptr;
};

/// Run `steps` under the frame. The output is fitted to d × cols
/// (reallocated, zero-filled, unless the shape already matches — the
/// kernels zero their own panels). Unbounded calls (cfg.bounds all default)
/// write `out` in place with no staging copy. Bounded calls stage into a
/// private buffer published only on success, so a stopped call leaves `out`
/// untouched, and count the stop once (ResolvedRunControl::count_stop)
/// before rethrowing.
template <typename T>
SketchStats sketch_frame(const SketchConfig& cfg, DenseMatrix<T>& out,
                         const SketchFrame<T>& steps);

}  // namespace rsketch
