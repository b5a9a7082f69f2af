// The one pipeline frame every sketch entry point runs in:
//
//   validate → (tune) → arm run control → stage → body → post-scale → publish
//
// sketch_into, sketch_into_prepartitioned and sketch_right_into differ only
// in the steps they plug in; validation order, run control, clean-throw
// staging, the budget and arena scopes, the post-scale and stop counting are
// written once here.
#pragma once

#include <functional>

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"

namespace rsketch {

/// One entry point's steps. `Out` is its output type: a DenseMatrix, or
/// the row-major std::vector of the right sketch.
template <typename Out>
struct SketchFrame {
  /// The cfg.check_inputs scan of the input (throws validation_error).
  std::function<void()> check = nullptr;
  /// Resolve cfg.tune into an effective config; empty when the entry point
  /// has no tuner (only sketch_into has one).
  std::function<SketchConfig(const SketchConfig&)> tune = nullptr;
  /// Size an output buffer for the body (and zero it when the body
  /// accumulates without zeroing its own panels).
  std::function<void(Out&)> stage = nullptr;
  /// The computation into a staged output. `run` is nullptr when nothing is
  /// armed; otherwise the body polls it and may throw run_stopped_error.
  std::function<SketchStats(const SketchConfig&, Out&, RunControl* run)> body =
      nullptr;
};

/// Stage step of the block-kernel outputs: reallocate (zero-filled) unless
/// the shape already matches — the kernels zero their own panels.
template <typename T>
void fit(DenseMatrix<T>& out, index_t rows, index_t cols) {
  if (out.rows() != rows || out.cols() != cols) out.reset(rows, cols);
}

/// Run `steps` under the frame. Unarmed calls (no control, deadline or
/// budget, from the config or the RSKETCH_DEADLINE_MS / RSKETCH_BUDGET_MB
/// env) write `out` in place with no staging copy. Armed calls stage into a
/// private buffer published only on success, so a stopped call leaves `out`
/// untouched, and count the stop once into run_cancelled /
/// run_deadline_hits / run_budget_hits before rethrowing.
template <typename Out>
SketchStats sketch_frame(const SketchConfig& cfg, Out& out,
                         const SketchFrame<Out>& steps);

}  // namespace rsketch
