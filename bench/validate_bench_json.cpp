// Schema validator for BENCH_*.json telemetry reports (schema_version 2:
// span latency histograms and thread-imbalance fields).
// Used by the `smoke` ctest label to gate the emitter, and handy standalone:
//
//   validate_bench_json BENCH_fig4_distributions.json [more.json ...]
//
// Exit 0 when every file parses and validates; 1 otherwise, with one line
// per violation on stderr.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "perf/json.hpp"
#include "perf/report.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s BENCH_*.json [more ...]\n", argv[0]);
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    const char* path = argv[i];
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", path);
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      const auto doc = rsketch::perf::Json::parse(buf.str());
      const auto errs = rsketch::perf::validate_bench_report(doc);
      for (const auto& e : errs) {
        std::fprintf(stderr, "%s: %s\n", path, e.c_str());
      }
      if (!errs.empty()) {
        ++failures;
        continue;
      }
      const auto* version = doc.find("schema_version");
      std::printf("%s: valid (schema_version %lld, %zu timing rows)\n", path,
                  version != nullptr ? version->as_int() : 0,
                  doc.find("timings")->size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", path, e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
