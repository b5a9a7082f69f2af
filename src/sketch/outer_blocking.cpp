#include "sketch/outer_blocking.hpp"

#include <omp.h>

#include "sketch/kernel_jki.hpp"
#include "sketch/kernel_kji.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "dense/blas1.hpp"
#include "dense/microkernel.hpp"
#include "perf/perf.hpp"
#include "perf/trace.hpp"
#include "sketch/schedule.hpp"
#include "support/aligned_buffer.hpp"
#include "support/env.hpp"
#include "support/parallel.hpp"
#include "support/run_control.hpp"
#include "support/timer.hpp"

namespace rsketch {

int team_size(const SketchConfig& cfg) {
  return cfg.parallel == ParallelOver::Sequential ? 1 : omp_get_max_threads();
}

namespace {

/// Per-thread working state: a private sampler (the sampler is stateful) and
/// an aligned scratch vector v of cfg.row_block() elements for the
/// regenerated column. Counters accumulate thread-locally and are merged
/// after the join.
template <typename T>
struct ThreadCtx {
  ThreadCtx(const SketchConfig& cfg, bool instrument)
      : sampler(cfg.seed, cfg.dist, cfg.backend, cfg.isa),
        v(cfg.row_block()),
        instrument(instrument) {}
  SketchSampler<T> sampler;
  AlignedBuffer<T> v;
  AccumTimer sample_timer;
  perf::KernelCounters counters;
  /// Seconds this thread spent inside kernel calls; fed to
  /// perf::add_parallel_busy() after the join. Only accumulated when
  /// telemetry or tracing is on.
  double busy_seconds = 0.0;
  bool instrument;

  /// The sample timer on instrumented runs, nullptr (the kernels' zero-cost
  /// "off") otherwise.
  AccumTimer* timer() { return instrument ? &sample_timer : nullptr; }
};

/// First-touch zero of the output panel Â[i0 : i0+d1, j0 : j0+n1), done by
/// the thread about to accumulate into it so the pages land on its node.
/// Replaces an up-front set_zero(): output blocks are disjoint and every
/// block runs exactly once, so coverage is identical. The last row block
/// extends to the padded leading dimension so a reused Â keeps
/// zero-initialized padding.
template <typename T>
void zero_panel(DenseMatrix<T>& a_hat, index_t i0, index_t d1, index_t j0,
                index_t n1) {
  const index_t top = i0 + d1 == a_hat.rows() ? a_hat.ld() : i0 + d1;
  for (index_t j = j0; j < j0 + n1; ++j) {
    T* c = a_hat.col(j) + i0;
    std::fill(c, c + (top - i0), T{0});
  }
}

template <typename T>
SketchStats collect(std::vector<ThreadCtx<T>>& ctxs, const char* region,
                    double total_seconds, index_t d, index_t nnz) {
  SketchStats stats;
  stats.total_seconds = total_seconds;
  for (auto& c : ctxs) {
    stats.samples_generated += c.sampler.samples_generated();
    stats.sample_seconds = std::max(stats.sample_seconds,
                                    c.sample_timer.seconds());
    stats.counters.merge(c.counters);
  }
  if (!ctxs.empty()) stats.isa = ctxs.front().sampler.isa();

  // Thread-busy split of the parallel region (only populated when the busy
  // brackets ran). Keyed by the enclosing span's name so the report merges
  // the imbalance fields into that span's entry.
  const int nt = static_cast<int>(ctxs.size());
  if (nt > 1) {
    std::vector<double> busy(static_cast<std::size_t>(nt));
    double total_busy = 0.0;
    double max_busy = 0.0;
    for (int t = 0; t < nt; ++t) {
      busy[static_cast<std::size_t>(t)] =
          ctxs[static_cast<std::size_t>(t)].busy_seconds;
      total_busy += busy[static_cast<std::size_t>(t)];
      max_busy = std::max(max_busy, busy[static_cast<std::size_t>(t)]);
    }
    if (total_busy > 0.0) {
      stats.threads_used = nt;
      const double mean = total_busy / static_cast<double>(nt);
      stats.thread_imbalance = mean > 0.0 ? max_busy / mean : 1.0;
      perf::add_parallel_busy(region, nt, busy.data());
    }
  }
  const double flops = 2.0 * static_cast<double>(d) * static_cast<double>(nnz);
  stats.gflops = total_seconds > 0 ? flops / total_seconds / 1e9 : 0.0;
  if (perf::enabled()) {
    perf::add(stats.counters);
    perf::add(perf::Counter::SketchCalls, 1);
    // The resolved tier, visible both as a count and as a per-tier span
    // ("kernel_dispatch/avx2"), so a report alone shows what ran.
    perf::add(perf::Counter::KernelDispatches, 1);
    perf::add_span(std::string("kernel_dispatch/") +
                       microkernel::to_string(stats.isa),
                   0.0);
    if (stats.sample_seconds > 0.0) {
      perf::add_span("sample_fill", stats.sample_seconds);
    }
  }
  if (perf::trace::armed()) {
    // Timeline marker of the resolved ISA tier, visible even in trace-only
    // runs (RSKETCH_TRACE without RSKETCH_PERF).
    perf::trace::instant(perf::trace::intern(
        std::string("kernel_dispatch/") + microkernel::to_string(stats.isa)));
  }
  return stats;
}

/// Row blocks of the grid: ⌈d/b_d⌉.
index_t row_blocks(const SketchConfig& cfg) {
  return cfg.d == 0 ? 0 : ceil_div(cfg.d, cfg.row_block());
}

/// Schedulable items per column block: the whole slab when the kernel
/// schedules slabs, else one (i-block, j-block) pair per row block.
index_t items_per_jblock(const SketchConfig& cfg, bool slabs) {
  return slabs ? 1 : row_blocks(cfg);
}

// ------------------------------------------------------------ kernels --
//
// A block kernel plugs one compute kernel into run_outer_blocks(). The
// driver owns the row dimension of the grid — ⌈d/b_d⌉ blocks of S's rows,
// handed to block() as (i0, d1) — and the kernel supplies the rest:
//   using value_type;
//   index_t jblocks() const;     column blocks of the output
//   bool slabs() const;          schedule whole column slabs (NBlocks)
//                                instead of single (i-block, j-block) pairs
//   BlockWork work(index_t jb) const;
//                                what a block of column block jb does, per
//                                row — feeds the cost model and the counters
//   void block(ThreadCtx&, index_t i0, index_t d1, index_t jb) const;
//                                zero the block's own output panel, then
//                                accumulate into it

/// Work of one block per row of S it covers: the output panel's width
/// (first-touch stores), regenerated columns of S, consumed nonzeros, plus
/// the bytes of structure (row or column pointers) the block walks.
struct BlockWork {
  index_t width = 0;
  index_t columns = 0;
  index_t nnz = 0;
  std::uint64_t index_bytes = 0;

  /// Cost-model estimate for a d1-row block, in element-traffic units
  /// (sketch/schedule.hpp): first-touch stores, one per generated sample
  /// (h = 1), 2 per flop pair. An exact integer, so the schedule depends on
  /// A's structure alone.
  double cost(index_t d1) const {
    return static_cast<double>(d1 * (width + columns + 2 * nnz));
  }
};

/// Algorithm 3 over CSC column blocks of width b_n: one column of S is
/// regenerated per nonzero.
template <typename T>
struct KjiBlocks {
  using value_type = T;
  const SketchConfig& cfg;
  const CscMatrix<T>& a;
  DenseMatrix<T>& out;
  index_t bn;

  /// b_n is cfg.block_n, narrowed when the grid has fewer schedulable items
  /// than threads so that every thread owns one. b_d (which fixes S) stays;
  /// b_n never changes a bit of Â (apply_budget_ladder in sketch.cpp).
  KjiBlocks(const SketchConfig& cfg, const CscMatrix<T>& a,
            DenseMatrix<T>& out)
      : cfg(cfg), a(a), out(out),
        bn(std::min(cfg.block_n, std::max<index_t>(a.cols(), 1))) {
    const index_t per_jblock = items_per_jblock(cfg, slabs());
    const index_t team = team_size(cfg);
    if (a.cols() > 0 && per_jblock > 0 && per_jblock * jblocks() < team) {
      bn = ceil_div(a.cols(), ceil_div(team, per_jblock));
    }
  }

  index_t jblocks() const { return a.cols() == 0 ? 0 : ceil_div(a.cols(), bn); }
  bool slabs() const { return cfg.parallel == ParallelOver::NBlocks; }
  BlockWork work(index_t jb) const {
    const index_t j0 = jb * bn;
    const index_t n1 = std::min(bn, a.cols() - j0);
    const index_t nnz = a.col_ptr()[static_cast<std::size_t>(j0 + n1)] -
                        a.col_ptr()[static_cast<std::size_t>(j0)];
    return {n1, nnz, nnz, 0};
  }
  void block(ThreadCtx<T>& ctx, index_t i0, index_t d1, index_t jb) const {
    const index_t j0 = jb * bn;
    const index_t n1 = std::min(bn, a.cols() - j0);
    zero_panel(out, i0, d1, j0, n1);
    kernel_kji(out, i0, d1, j0, n1, a, ctx.sampler, ctx.v.data(),
               ctx.timer());
  }
};

/// Algorithm 4 over the vertical blocks of a blocked CSR: one column of S
/// per nonempty row, reused across the row. The counts come from metadata
/// the conversion precomputed.
template <typename T>
struct JkiBlocks {
  using value_type = T;
  const SketchConfig& cfg;
  const BlockedCsr<T>& ab;
  DenseMatrix<T>& out;

  index_t jblocks() const { return ab.num_blocks(); }
  bool slabs() const { return cfg.parallel == ParallelOver::NBlocks; }
  BlockWork work(index_t jb) const {
    const auto& blk = ab.block(jb);
    return {blk.csr.cols(), blk.nonempty_rows, blk.nnz,
            (static_cast<std::uint64_t>(blk.csr.rows()) + 1) * sizeof(index_t)};
  }
  void block(ThreadCtx<T>& ctx, index_t i0, index_t d1, index_t jb) const {
    const auto& blk = ab.block(jb);
    zero_panel(out, i0, d1, blk.col0, blk.csr.cols());
    kernel_jki(out, i0, d1, blk, ctx.sampler, ctx.v.data(), ctx.timer());
  }
};

/// B = A·Sᵀ, row-major m×d: the block at c0 covers B[:, c0 : c0+d1). CSC is
/// the natural format — one regenerated column S[c0 : c0+d1, k] serves every
/// nonzero of A's column k (the reuse Algorithm 4 needs blocked CSR for).
template <typename T>
struct RightBlocks {
  using value_type = T;
  const CscMatrix<T>& a;
  std::vector<T>& b;
  index_t d;
  index_t nonempty_cols;

  index_t jblocks() const { return 1; }
  bool slabs() const { return false; }
  BlockWork work(index_t) const {
    return {a.rows(), nonempty_cols, a.nnz(),
            (static_cast<std::uint64_t>(a.cols()) + 1) * sizeof(index_t)};
  }
  void block(ThreadCtx<T>& ctx, index_t c0, index_t d1, index_t) const {
    T* const out = b.data();
    for (index_t i = 0; i < a.rows(); ++i) {
      std::fill_n(out + i * d + c0, d1, T{0});
    }
    T* const v = ctx.v.data();
    for (index_t k = 0; k < a.cols(); ++k) {
      const index_t lo = a.col_ptr()[static_cast<std::size_t>(k)];
      const index_t hi = a.col_ptr()[static_cast<std::size_t>(k) + 1];
      if (lo == hi) continue;  // column k of S never generated
      ctx.sampler.fill(c0, k, v, d1);
      for (index_t p = lo; p < hi; ++p) {
        const index_t i = a.row_idx()[static_cast<std::size_t>(p)];
        axpy(d1, a.values()[static_cast<std::size_t>(p)], v, out + i * d + c0);
      }
    }
  }
};

/// Y = S·X for dense X (m×k): the block at i0 covers Y[i0 : i0+d1, :]. Every
/// column of S is regenerated once per block and reused across X's k
/// columns — the dense analogue of Algorithm 4's reuse.
template <typename T>
struct DenseBlocks {
  using value_type = T;
  const DenseMatrix<T>& x;
  DenseMatrix<T>& y;

  index_t jblocks() const { return 1; }
  bool slabs() const { return false; }
  BlockWork work(index_t) const {
    return {x.cols(), x.rows(), x.rows() * x.cols(), 0};
  }
  void block(ThreadCtx<T>& ctx, index_t i0, index_t d1, index_t) const {
    zero_panel(y, i0, d1, 0, x.cols());
    T* const v = ctx.v.data();
    for (index_t j = 0; j < x.rows(); ++j) {
      // v := S[i0 : i0+d1, j] (dense X has no empty rows to skip).
      ctx.sampler.fill(i0, j, v, d1);
      for (index_t c = 0; c < x.cols(); ++c) {
        axpy(d1, x(j, c), v, y.col(c) + i0);
      }
    }
  }
};

}  // namespace

/// Algorithm 1's outer loop around one block kernel: builds the per-thread
/// contexts, assigns schedule items — (i-block, j-block) pairs flattened
/// jb-major, or whole j-block slabs — to threads through the cost-model
/// schedule (sketch/schedule.hpp), polls `run` once per block, and merges
/// counters and busy time after the join. Any assignment is bitwise-
/// equivalent: blocks are disjoint and S columns are seed-checkpointed, so
/// the schedule only moves work between threads.
template <typename K>
SketchStats run_outer_blocks(const SketchConfig& cfg, const K& kernel,
                             const char* region, bool instrument,
                             const RunControl* run) {
  using T = typename K::value_type;
  perf::Span span(region);
  const index_t d = cfg.d;
  const index_t bd = cfg.row_block();
  const index_t n_iblocks = row_blocks(cfg);
  const index_t n_jblocks = kernel.jblocks();
  const bool slabs = kernel.slabs();
  const auto d1_of = [&](index_t ib) { return std::min(bd, d - ib * bd); };

  const int nthreads = team_size(cfg);
  std::vector<ThreadCtx<T>> ctxs;
  ctxs.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) ctxs.emplace_back(cfg, instrument);
  const bool count = instrument || perf::enabled();
  const bool track_busy =
      nthreads > 1 && (perf::enabled() || perf::trace::armed());
  CooperativeStop stop;

  const index_t n_items = items_per_jblock(cfg, slabs) * n_jblocks;
  const BlockSchedule sched = build_block_schedule(nthreads, n_items, [&] {
    std::vector<double> costs(static_cast<std::size_t>(n_items), 0.0);
    for (index_t jb = 0; jb < n_jblocks; ++jb) {
      const BlockWork w = kernel.work(jb);
      for (index_t ib = 0; ib < n_iblocks; ++ib) {
        costs[static_cast<std::size_t>(slabs ? jb : jb * n_iblocks + ib)] +=
            w.cost(d1_of(ib));
      }
    }
    return costs;
  });

  Timer timer;
#pragma omp parallel num_threads(nthreads) if (nthreads > 1)
  {
    trace_name_omp_thread();
    const int team = std::max(1, omp_get_num_threads());
    // Robust to a shrunk team: every per-thread list runs exactly once no
    // matter how many workers actually materialized.
    for (int t = omp_get_thread_num(); t < sched.threads(); t += team) {
      auto& ctx = ctxs[static_cast<std::size_t>(t)];
      const index_t begin = sched.offsets[static_cast<std::size_t>(t)];
      const index_t end = sched.offsets[static_cast<std::size_t>(t) + 1];
      for (index_t k = begin; k < end; ++k) {
        const index_t item = sched.items[static_cast<std::size_t>(k)];
        const index_t jb = slabs ? item : item / n_iblocks;
        const index_t ib0 = slabs ? 0 : item % n_iblocks;
        const index_t ib1 = slabs ? n_iblocks : ib0 + 1;
        for (index_t ib = ib0; ib < ib1; ++ib) {
          if (stop.should_skip(run)) break;
          const Timer busy;
          kernel.block(ctx, ib * bd, d1_of(ib), jb);
          if (track_busy) ctx.busy_seconds += busy.seconds();
          if (count) {
            // Exact counts from the block's structure, taken outside the
            // kernels' nonzero loops.
            const BlockWork w = kernel.work(jb);
            ctx.counters.template add_block<T>(
                static_cast<std::uint64_t>(w.columns),
                static_cast<std::uint64_t>(w.nnz),
                static_cast<std::uint64_t>(d1_of(ib)), w.index_bytes);
          }
        }
      }
    }
  }
  // OpenMP forbids throwing across the parallel region, so the loop only
  // skips once the latch fires and the throw happens here, after the join.
  stop.throw_if_stopped(region);
  index_t nnz = 0;
  for (index_t jb = 0; jb < n_jblocks; ++jb) nnz += kernel.work(jb).nnz;
  SketchStats stats = collect(ctxs, region, timer.seconds(), d, nnz);
  stats.schedule_imbalance_est = sched.imbalance_est;
  return stats;
}

template <typename T>
SketchStats sketch_blocked_kji(const SketchConfig& cfg, const CscMatrix<T>& a,
                               DenseMatrix<T>& a_hat, bool instrument,
                               const RunControl* run) {
  cfg.validate(a.rows(), a.cols());
  require(a_hat.rows() == cfg.d && a_hat.cols() == a.cols(),
          "sketch_blocked_kji: a_hat must be d x n");
  const KjiBlocks<T> kernel(cfg, a, a_hat);
  SketchStats stats = run_outer_blocks(cfg, kernel, "sketch_blocked_kji",
                                       instrument, run);
  stats.block_n = kernel.bn;
  return stats;
}

template <typename T>
SketchStats sketch_blocked_jki(const SketchConfig& cfg, const BlockedCsr<T>& ab,
                               DenseMatrix<T>& a_hat, bool instrument,
                               const RunControl* run) {
  cfg.validate(ab.rows(), ab.cols());
  require(a_hat.rows() == cfg.d && a_hat.cols() == ab.cols(),
          "sketch_blocked_jki: a_hat must be d x n");
  SketchStats stats = run_outer_blocks(cfg, JkiBlocks<T>{cfg, ab, a_hat},
                                       "sketch_blocked_jki", instrument, run);
  stats.block_n = ab.num_blocks() > 0 ? ab.block_width(0) : 0;
  return stats;
}

template <typename T>
SketchStats sketch_blocked_right(const SketchConfig& cfg,
                                 const CscMatrix<T>& a,
                                 std::vector<T>& b_rowmajor,
                                 const RunControl* run) {
  cfg.validate(a.rows(), a.cols());
  require(static_cast<index_t>(b_rowmajor.size()) == a.rows() * cfg.d,
          "sketch_blocked_right: b must hold m x d elements");
  index_t nonempty_cols = 0;
  for (index_t k = 0; k < a.cols(); ++k) {
    nonempty_cols += a.col_ptr()[static_cast<std::size_t>(k) + 1] >
                     a.col_ptr()[static_cast<std::size_t>(k)];
  }
  return run_outer_blocks(cfg,
                          RightBlocks<T>{a, b_rowmajor, cfg.d, nonempty_cols},
                          "sketch_right", false, run);
}

template <typename T>
SketchStats sketch_blocked_dense(const SketchConfig& cfg,
                                 const DenseMatrix<T>& x, DenseMatrix<T>& y,
                                 const RunControl* run) {
  cfg.validate(x.rows(), x.cols());
  require(y.rows() == cfg.d && y.cols() == x.cols(),
          "sketch_blocked_dense: y must be d x k");
  return run_outer_blocks(cfg, DenseBlocks<T>{x, y}, "sketch_dense", false,
                          run);
}

#define RSKETCH_INSTANTIATE(T)                                                \
  template SketchStats run_outer_blocks(                                      \
      const SketchConfig&, const KjiBlocks<T>&, const char*, bool,            \
      const RunControl*);                                                     \
  template SketchStats run_outer_blocks(                                      \
      const SketchConfig&, const JkiBlocks<T>&, const char*, bool,            \
      const RunControl*);                                                     \
  template SketchStats run_outer_blocks(                                      \
      const SketchConfig&, const RightBlocks<T>&, const char*, bool,          \
      const RunControl*);                                                     \
  template SketchStats run_outer_blocks(                                      \
      const SketchConfig&, const DenseBlocks<T>&, const char*, bool,          \
      const RunControl*);                                                     \
  template SketchStats sketch_blocked_kji<T>(                                 \
      const SketchConfig&, const CscMatrix<T>&, DenseMatrix<T>&, bool,        \
      const RunControl*);                                                     \
  template SketchStats sketch_blocked_jki<T>(                                 \
      const SketchConfig&, const BlockedCsr<T>&, DenseMatrix<T>&, bool,       \
      const RunControl*);                                                     \
  template SketchStats sketch_blocked_right<T>(                               \
      const SketchConfig&, const CscMatrix<T>&, std::vector<T>&,              \
      const RunControl*);                                                     \
  template SketchStats sketch_blocked_dense<T>(                               \
      const SketchConfig&, const DenseMatrix<T>&, DenseMatrix<T>&,            \
      const RunControl*);

RSKETCH_INSTANTIATE(float)
RSKETCH_INSTANTIATE(double)
#undef RSKETCH_INSTANTIATE

}  // namespace rsketch
