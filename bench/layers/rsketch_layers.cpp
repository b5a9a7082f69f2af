// rsketch_layers: the measuring process behind bench/layers/run.py. Each
// invocation does one job and prints one JSON object on stdout:
//
//   rsketch_layers --workload NAME --seed S [--seconds X] [--ops N]
//                  [--trace PATH] [--setup-only] [--workdir DIR]
//   rsketch_layers --ledger --seed S [--trace PATH] [--quick] [--workdir DIR]
//   rsketch_layers --sweep --seed S [--quick]
//   rsketch_layers --info
//
// Workloads: sketch_kji_large, sketch_jki_skewed, cli_sketch, batch_mixed,
// sap_solve (README.md). The thread count is whatever OMP_NUM_THREADS gives;
// run.py sets it. Exit status: 0 when the job ran (its failures are in the
// JSON), 2 on a usage error, 1 when the job itself could not run.
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>

#include "analysis/machine.hpp"
#include "dense/microkernel.hpp"
#include "layers.hpp"
#include "support/cli.hpp"

using namespace layers;

namespace {

Json info() {
  Json doc = Json::object();
  doc["build_type"] = RSKETCH_LAYERS_BUILD_TYPE;
  doc["isa"] = rsketch::microkernel::to_string(
      rsketch::microkernel::resolve(rsketch::microkernel::Isa::Auto));
  doc["cache_bytes"] = static_cast<long long>(rsketch::detect_cache_bytes());
  doc["omp_threads"] = omp_get_max_threads();
  doc["nproc"] = static_cast<long long>(sysconf(_SC_NPROCESSORS_ONLN));
  doc["compiler"] = __VERSION__;
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  const rsketch::CliArgs args(argc, argv);
  Options opt;
  opt.workload = args.get("workload", "");
  opt.seed = std::stoull(args.get("seed", "1"));
  opt.seconds = args.get_double("seconds", 10.0);
  opt.max_units = static_cast<long>(args.get_int("ops", 0));
  // A VM's idle vCPUs take a second or two of load to come up to speed; the
  // warm-up keeps that out of the latency samples (setup_s still sees it).
  opt.warmup = opt.max_units > 0 ? 0.0 : std::min(2.0, 0.2 * opt.seconds);
  opt.workdir = args.get("workdir", ".");
  opt.trace_path = args.get("trace", "");
  opt.setup_only = args.has("setup-only");
  opt.quick = args.has("quick");
  opt.threads = omp_get_max_threads();
  try {
    Json doc;
    if (args.has("info")) {
      doc = info();
    } else if (args.has("ledger")) {
      doc = run_ledger(opt);
    } else if (args.has("sweep")) {
      doc = run_sweep(opt);
    } else if (!opt.workload.empty()) {
      doc = run_workload(opt);
    } else {
      std::fprintf(stderr,
                   "usage: %s --workload NAME --seed S [--seconds X] [--ops N] "
                   "[--trace PATH] [--setup-only] [--workdir DIR]\n"
                   "       %s --ledger|--sweep --seed S [--quick] [--trace PATH]\n"
                   "       %s --info\n",
                   argv[0], argv[0], argv[0]);
      return 2;
    }
    std::printf("%s\n", doc.dump(0).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rsketch_layers: %s\n", e.what());
    return 1;
  }
}
