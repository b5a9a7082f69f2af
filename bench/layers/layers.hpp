// Shared pieces of the bench/layers driver: the five workloads, the inputs
// they share with the per-layer ledger, and the measurement helpers (latency
// percentiles, rusage and /proc/stat deltas).
//
// Every input is a pure function of (workload, seed): derive_seed() turns the
// benchmark seed into one generator seed per named input, so two runs with the
// same --seed see bit-identical matrices and sketch seeds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "perf/json.hpp"
#include "sketch/config.hpp"
#include "solvers/sap.hpp"
#include "sparse/csc.hpp"

namespace layers {

using rsketch::CscMatrix;
using rsketch::DenseMatrix;
using rsketch::index_t;
using rsketch::SketchConfig;
using Json = rsketch::perf::Json;

// ---- measurement helpers ---------------------------------------------------

/// Process CPU and context switches, self plus waited-for children (the CLI
/// workload's sketch_tool runs are children).
struct Usage {
  double cpu_s = 0.0;
  double nvcsw = 0.0;   ///< voluntary context switches
  double nivcsw = 0.0;  ///< involuntary context switches
  double child_maxrss_kb = 0.0;  ///< resident set of the largest child
};
Usage usage_now();

/// Whole-machine jiffies from the first line of /proc/stat (zeros when the
/// file is unreadable, which makes steal_fraction() report 0).
struct ProcStat {
  double total = 0.0;
  double steal = 0.0;
};
ProcStat proc_stat_now();
double steal_fraction(const ProcStat& before, const ProcStat& after);

/// q-quantile (q in [0, 1]) with linear interpolation between order
/// statistics; NaN for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Generator seed of the input named `tag` under benchmark seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag);

// ---- inputs shared by the workloads and the ledger -------------------------

/// sketch_kji_large: random_sparse 100000 x 2000, density 1e-3, d = 4000,
/// pm1, xoshiro_batch, kji, DBlocks at the blocks (4000, 1).
CscMatrix<double> kji_large_input(std::uint64_t seed);
SketchConfig kji_large_config(std::uint64_t seed);

/// sketch_jki_skewed: abnormal_b 100000 x 3000, density 2e-3, 90% of the
/// nonzeros in the middle third of the columns; d = 1000, jki at (1000, 300).
CscMatrix<double> skewed_input(std::uint64_t seed);
SketchConfig skewed_config(std::uint64_t seed);

/// cli_sketch: random_sparse 20000 x 200, density 5e-3 (20k nonzeros).
CscMatrix<double> cli_input(std::uint64_t seed);
/// What `sketch_tool sketch` does with default flags: d = 3n, seed 42, pm1,
/// kji, normalized, inputs validated, blocks from the model (caller fills).
SketchConfig cli_config(index_t n);

/// One `sketch_tool sketch --in IN --out OUT` child with default flags,
/// stdout captured to `stdout_path`; throws on a non-zero exit.
void run_sketch_tool(const std::string& in, const std::string& out,
                     const std::string& stdout_path);

/// sap_solve: random_sparse 60000 x 500, density 1e-2, QR, gamma = 2.
CscMatrix<double> sap_input(std::uint64_t seed);
rsketch::SapOptions sap_options(std::uint64_t seed);

/// batch_mixed: 512 small jobs on the two batch_throughput shapes (384 kji,
/// 128 jki) plus one large kji job just over SketchBatch::kLargeJobFlops.
struct BatchMix {
  struct Job {
    const CscMatrix<double>* a = nullptr;
    SketchConfig cfg;
  };
  explicit BatchMix(std::uint64_t seed);
  BatchMix(const BatchMix&) = delete;
  BatchMix& operator=(const BatchMix&) = delete;

  CscMatrix<double> small_kji[2];
  CscMatrix<double> small_jki[2];
  CscMatrix<double> large;
  std::vector<Job> jobs;  ///< jobs[0] is the large job
  double flops = 0.0;     ///< 2 d nnz summed over all jobs
};

// ---- entry points (rsketch_layers.cpp dispatches) --------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double warmup = 0.0;  ///< unrecorded (but checked) units before timing
  long max_units = 0;  ///< 0 = no cap (--ops)
  std::string workdir = ".";
  std::string trace_path;  ///< workload trace mode / ledger trace output
  bool setup_only = false;
  bool quick = false;
  int threads = 1;
};

/// Run one workload process; returns its result document.
Json run_workload(const Options& opt);
/// The per-layer ledger (fixed probes per layer) in this process.
Json run_ledger(const Options& opt);
/// One process of the driver thread sweep (each power of two up to T, and T).
Json run_sweep(const Options& opt);

}  // namespace layers
