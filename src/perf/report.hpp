// Structured JSON benchmark reports (BENCH_<name>.json).
//
// A ReportBuilder collects config, timings, software counters and spans for
// one benchmark binary and serializes them under the schema
// documented in docs/OBSERVABILITY.md (schema_version 2: spans carry
// min/max/mean/p50/p95/p99 latency fields and parallel spans a per-thread
// busy/imbalance summary; the validator rejects every other version).
// Builders are active only when perf::enabled() — with RSKETCH_PERF unset
// every method is a cheap no-op, so the bench binaries carry the reporting
// calls unconditionally.
//
// Output location: $RSKETCH_PERF_OUT (directory, created if missing) or the
// current working directory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perf/json.hpp"
#include "perf/perf.hpp"
#include "sketch/config.hpp"

namespace rsketch::perf {

/// Host description attached to every report. `probe_bandwidth` additionally
/// runs a small STREAM pass and the RNG-throughput probe to measure the
/// paper's h (adds ~100 ms); also triggered by RSKETCH_PERF_MACHINE=1.
Json machine_info_json(bool probe_bandwidth = false);

/// Accumulates one benchmark's telemetry and renders/writes the JSON report.
class ReportBuilder {
 public:
  explicit ReportBuilder(std::string name);

  /// False when RSKETCH_PERF is off: every mutator below no-ops and write()
  /// returns "".
  bool active() const { return active_; }

  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, const char* value);
  void config(const std::string& key, double value);
  void config(const std::string& key, long long value);

  /// Record a named timing (one row of the benchmark's table).
  void timing(const std::string& label, double seconds);

  /// Record a timing together with the sketch's software counters; the
  /// counters are merged into the report-level totals, and per-run derived
  /// rates ride along in the timings array.
  void timing(const std::string& label, double seconds,
              const SketchStats& stats);

  /// Merge a kernel-counter aggregate into the report totals.
  void add_counters(const KernelCounters& kc);

  /// Extra free-form counter (emitted under "counters").
  void counter(const std::string& name, std::uint64_t value);

  /// Extra derived metric (emitted under "derived").
  void derived(const std::string& key, double value);

  /// Build the full document. Captures the global perf::snapshot() (spans +
  /// catalog counters) at call time.
  Json build() const;

  /// Serialize to $RSKETCH_PERF_OUT/BENCH_<name>.json (or ./BENCH_<name>.json)
  /// and return the path written; "" when inactive. Prints one status line to
  /// stdout on success.
  std::string write() const;

 private:
  bool active_;
  std::string name_;
  Json config_ = Json::object();
  Json timings_ = Json::array();
  Json extra_counters_ = Json::object();
  Json extra_derived_ = Json::object();
  KernelCounters totals_;
};

/// Validate a parsed BENCH_*.json document. Accepts only schema_version 2
/// (latency-histogram spans + thread-imbalance fields, which are checked for
/// internal consistency: min <= max, p50 <= p95 <= p99, imbalance >= 1).
/// Returns an empty vector when valid, else one message per violation.
std::vector<std::string> validate_bench_report(const Json& doc);

}  // namespace rsketch::perf
