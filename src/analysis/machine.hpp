// Machine characterization probes: STREAM-style bandwidth (the paper used
// STREAMBenchmark.jl), RNG throughput (to measure h, the cost of one random
// sample relative to one memory access), and cache size discovery.
#pragma once

#include <cstddef>
#include <string>

#include "rng/distributions.hpp"
#include "support/common.hpp"

namespace rsketch {

/// Results of the four STREAM kernels, in GB/s.
struct StreamResult {
  double copy_gbps = 0.0;
  double scale_gbps = 0.0;
  double add_gbps = 0.0;
  double triad_gbps = 0.0;
};

/// Run STREAM copy/scale/add/triad over `elems` doubles, `reps` repetitions,
/// reporting the best bandwidth (standard STREAM methodology). Timed under
/// the "probe/stream" span.
StreamResult stream_benchmark(index_t elems, int reps);

/// Process-wide memoized stream_benchmark(1<<21, 2) — the probe behind the
/// model tuner's h (autotune_blocks) and the perf report's machine section,
/// so calibration is paid once no matter how many consumers ask.
const StreamResult& cached_stream_result();

/// Generation throughput of one (distribution, backend) pair in
/// samples/second, measured by repeatedly filling a `vec_len` buffer — the
/// short-vector regime the blocked kernels operate in (paper §V-A).
double rng_throughput(Dist dist, RngBackend backend, index_t vec_len,
                      int reps);

/// Measured h: (seconds per generated sample) / (seconds per element moved),
/// using the STREAM copy bandwidth for the denominator and 4-byte elements.
/// Timed under the "probe/h" span.
double measure_h(Dist dist, RngBackend backend, const StreamResult& stream,
                 index_t vec_len = 10000);

/// Last-level data cache size in bytes (sysconf, with a 1 MiB fallback).
std::size_t detect_cache_bytes();

/// Stable, human-readable signature of this host for keying tuning results:
/// "<hostname>|cpus=<N>|omp=<M>|cache=<bytes>". Deliberately excludes
/// anything that changes run to run (load, frequency); includes the OpenMP
/// thread budget because the best schedule depends on it.
std::string machine_signature();

}  // namespace rsketch
