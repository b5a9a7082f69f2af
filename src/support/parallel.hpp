// Thin OpenMP helpers so the rest of the library never touches raw OpenMP
// pragmas outside the hot kernels.
#pragma once

#include <omp.h>

#include <string>

#include "perf/trace.hpp"

namespace rsketch {

/// Number of threads the next parallel region will use.
inline int max_threads() { return omp_get_max_threads(); }

/// Label the calling OpenMP thread in the trace timeline ("omp-worker-3").
/// Call from inside a parallel region (or its loop body — one branch plus a
/// thread_local check per call once named). No-op while tracing is off, so
/// arming mid-run still names whichever workers touch a traced region next.
/// Threads that already carry a label keep it: an executor pool worker
/// running a kernel sequentially stays "pool-worker-N" in the timeline.
inline void trace_name_omp_thread() {
  if (!perf::trace::armed()) return;
  thread_local bool named = false;
  if (named) return;
  named = true;
  perf::trace::set_thread_name_if_unset("omp-worker-" +
                                        std::to_string(omp_get_thread_num()));
}

/// RAII override of the OpenMP thread count, restored on destruction.
/// Used by the parallel-scaling benches to sweep thread counts.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int nthreads) : saved_(omp_get_max_threads()) {
    if (nthreads >= 1) omp_set_num_threads(nthreads);
  }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

}  // namespace rsketch
