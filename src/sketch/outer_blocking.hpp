// Algorithm 1 of the paper: the (⌈d/b_d⌉, 1, ⌈n/b_n⌉) outer blocking loop
// that drives a compute kernel over block pairs, with OpenMP threads taking
// single (i-block, j-block) pairs, so both outer loops run in parallel
// (§II-C). One driver in outer_blocking.cpp runs both block kernels, kji
// (Algorithm 3) and jki (Algorithm 4), so the thread team, the cost-model
// schedule, the stop latch and the busy accounting are shared. The right
// sketch is jki over Aᵀ (sketch/sketch_right.hpp).
#pragma once

#include <span>

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"
#include "sparse/blocked_csr.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Threads the driver plans for: the OpenMP team, or 1 under
/// ParallelOver::Sequential. The workspace estimate and the block heuristic
/// size per-thread state by the same count.
int team_size(const SketchConfig& cfg);

/// Run Algorithm 1 with the kji kernel (Algorithm 3). `a_hat` must be
/// pre-sized to d × n and is overwritten. When `instrument` is true the
/// returned stats include sample_seconds (adds timer overhead, as the paper
/// notes for Tables III/V). A non-null `run` is polled between (b_d, b_n)
/// block pairs (one relaxed load per block; one predictable branch when
/// null) and the call throws run_stopped_error after the parallel region
/// joins if any bound fired — a_hat's contents are then unspecified, which
/// is why the sketch frame (sketch/frame.hpp) stages into a private buffer
/// when a control is armed.
template <typename T>
SketchStats sketch_blocked_kji(const SketchConfig& cfg, const CscMatrix<T>& a,
                               DenseMatrix<T>& a_hat, bool instrument = false,
                               const RunControl* run = nullptr);

/// Run Algorithm 1 with the jki kernel (Algorithm 4) over vertical CSR
/// slabs that tile the columns of a d × n output in order: the blocks of a
/// BlockedCsr, or transposed_slab(A) for the right sketch. A slab's width
/// plays the role of b_n; cfg.block_n is ignored here. Run control as in
/// sketch_blocked_kji.
template <typename T>
SketchStats sketch_blocked_jki(const SketchConfig& cfg,
                               std::span<const CsrSlab<T>> slabs,
                               DenseMatrix<T>& a_hat, bool instrument = false,
                               const RunControl* run = nullptr);

/// The same over a pre-built blocked-CSR matrix.
template <typename T>
SketchStats sketch_blocked_jki(const SketchConfig& cfg, const BlockedCsr<T>& ab,
                               DenseMatrix<T>& a_hat, bool instrument = false,
                               const RunControl* run = nullptr);

}  // namespace rsketch
