#include "perf/report.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "analysis/machine.hpp"
#include "analysis/roofline.hpp"
#include "support/env.hpp"

namespace rsketch::perf {

namespace {

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace

Json machine_info_json(bool probe_bandwidth) {
  Json m = Json::object();
  char host[256] = {0};
  if (gethostname(host, sizeof host - 1) != 0) host[0] = '\0';
  m["hostname"] = std::string(host);
  m["logical_cpus"] = static_cast<long long>(sysconf(_SC_NPROCESSORS_ONLN));
  m["omp_max_threads"] = static_cast<long long>(omp_get_max_threads());
  m["cache_bytes"] = static_cast<long long>(detect_cache_bytes());
#ifdef __VERSION__
  m["compiler"] = std::string(__VERSION__);
#endif
#ifdef __linux__
  m["os"] = "linux";
#endif
  if (probe_bandwidth || env_int("RSKETCH_PERF_MACHINE", 0) != 0) {
    // Small STREAM pass (cache-busting but quick) + the paper's h for the
    // default sampler, so reports carry what the roofline model needs.
    const StreamResult& stream = cached_stream_result();
    m["stream_copy_gbps"] = stream.copy_gbps;
    m["stream_triad_gbps"] = stream.triad_gbps;
    m["h_uniform_xoshiro_batch"] =
        measure_h(Dist::Uniform, RngBackend::XoshiroBatch, stream);
    m["h_pm1_xoshiro_batch"] =
        measure_h(Dist::PmOne, RngBackend::XoshiroBatch, stream);
  }
  return m;
}

ReportBuilder::ReportBuilder(std::string name)
    : active_(enabled()), name_(std::move(name)) {}

void ReportBuilder::config(const std::string& key, const std::string& value) {
  if (active_) config_[key] = value;
}
void ReportBuilder::config(const std::string& key, const char* value) {
  if (active_) config_[key] = std::string(value);
}
void ReportBuilder::config(const std::string& key, double value) {
  if (active_) config_[key] = value;
}
void ReportBuilder::config(const std::string& key, long long value) {
  if (active_) config_[key] = value;
}

void ReportBuilder::timing(const std::string& label, double seconds) {
  if (!active_) return;
  Json row = Json::object();
  row["label"] = label;
  row["seconds"] = seconds;
  timings_.push_back(std::move(row));
}

void ReportBuilder::timing(const std::string& label, double seconds,
                           const SketchStats& stats) {
  if (!active_) return;
  totals_.merge(stats.counters);
  Json row = Json::object();
  row["label"] = label;
  row["seconds"] = seconds;
  row["sample_seconds"] = stats.sample_seconds;
  row["convert_seconds"] = stats.convert_seconds;
  row["gflops"] = stats.gflops;
  row["rng_samples"] = stats.samples_generated;
  row["nnz_processed"] = stats.counters.nnz_processed;
  row["intensity_flops_per_elem"] = stats.counters.intensity_per_element();
  if (stats.thread_imbalance > 0.0) {
    row["threads_used"] = static_cast<long long>(stats.threads_used);
    row["thread_imbalance"] = stats.thread_imbalance;
  }
  if (stats.schedule_imbalance_est > 0.0) {
    row["schedule_imbalance_est"] = stats.schedule_imbalance_est;
  }
  timings_.push_back(std::move(row));
}

void ReportBuilder::add_counters(const KernelCounters& kc) {
  if (active_) totals_.merge(kc);
}

void ReportBuilder::counter(const std::string& name, std::uint64_t value) {
  if (active_) extra_counters_[name] = static_cast<unsigned long long>(value);
}

void ReportBuilder::derived(const std::string& key, double value) {
  if (active_) extra_derived_[key] = value;
}

Json ReportBuilder::build() const {
  Json doc = Json::object();
  doc["schema_version"] = 2;
  doc["name"] = name_;
  doc["timestamp"] = iso8601_utc_now();
  const Json machine = machine_info_json();
  doc["machine"] = machine;
  doc["config"] = config_;

  // Counter totals: explicit per-run aggregates merged with the global
  // catalog snapshot (spans included) taken now.
  const Snapshot snap = snapshot();
  KernelCounters totals = totals_;
  if (totals.empty()) {
    // Benchmarks that never threaded SketchStats through timing() still get
    // the globally accumulated kernel counters.
    totals.rng_samples = snap.get(Counter::RngSamples);
    totals.nnz_processed = snap.get(Counter::NnzProcessed);
    totals.flops = snap.get(Counter::Flops);
    totals.elems_moved = snap.get(Counter::ElemsMoved);
    totals.bytes_moved = snap.get(Counter::BytesMoved);
    totals.bytes_generated = snap.get(Counter::BytesGenerated);
    totals.kernel_blocks = snap.get(Counter::KernelBlocks);
  }
  Json counters = Json::object();
  counters["rng_samples"] = totals.rng_samples;
  counters["nnz_processed"] = totals.nnz_processed;
  counters["flops"] = totals.flops;
  counters["elems_moved"] = totals.elems_moved;
  counters["bytes_moved"] = totals.bytes_moved;
  counters["bytes_generated"] = totals.bytes_generated;
  counters["kernel_blocks"] = totals.kernel_blocks;
  counters["sketch_calls"] = snap.get(Counter::SketchCalls);
  counters["tuner_cache_hits"] = snap.get(Counter::TunerCacheHits);
  counters["tuner_cache_misses"] = snap.get(Counter::TunerCacheMisses);
  counters["tuner_candidates_timed"] = snap.get(Counter::TunerCandidatesTimed);
  counters["kernel_dispatch"] = snap.get(Counter::KernelDispatches);
  counters["run_degradations"] = snap.get(Counter::RunDegradations);
  counters["run_cancelled"] = snap.get(Counter::RunCancelled);
  counters["run_deadline_hits"] = snap.get(Counter::RunDeadlineHits);
  counters["run_budget_hits"] = snap.get(Counter::RunBudgetHits);
  counters["batch_jobs"] = snap.get(Counter::BatchJobs);
  counters["batch_steals"] = snap.get(Counter::BatchSteals);
  counters["schedule_builds"] = snap.get(Counter::ScheduleBuilds);
  counters["schedule_blocks"] = snap.get(Counter::ScheduleBlocks);
  counters["schedule_imbalance_est_milli"] =
      snap.get(Counter::ScheduleImbalanceEstMilli);
  for (const auto& [k, v] : extra_counters_.members()) counters[k] = v;
  doc["counters"] = std::move(counters);

  // schema_version 2 span shape: totals plus the log-bucket latency summary,
  // and — for names that ran as parallel regions — the thread-busy split.
  Json spans = Json::object();
  for (const auto& [name, st] : snap.spans) {
    Json s = Json::object();
    s["count"] = st.count;
    s["seconds"] = st.seconds;
    s["min_seconds"] = st.min_seconds;
    s["max_seconds"] = st.max_seconds;
    s["mean_seconds"] = st.mean_seconds();
    s["p50_seconds"] = st.percentile(0.50);
    s["p95_seconds"] = st.percentile(0.95);
    s["p99_seconds"] = st.percentile(0.99);
    spans[name] = std::move(s);
  }
  double worst_imbalance = 0.0;
  for (const auto& [name, bs] : snap.busy) {
    Json& s = spans[name];  // creates a busy-only entry if the span is absent
    if (s.is_null()) {
      s = Json::object();
      s["count"] = bs.calls;
      s["seconds"] = bs.busy_seconds;
    }
    s["parallel_calls"] = bs.calls;
    s["thread_slots"] = bs.thread_slots;
    s["busy_seconds"] = bs.busy_seconds;
    s["max_thread_busy_seconds"] = bs.max_thread_busy;
    s["mean_thread_busy_seconds"] = bs.mean_thread_busy();
    s["thread_imbalance"] = bs.max_imbalance;
    worst_imbalance = std::max(worst_imbalance, bs.max_imbalance);
  }
  doc["spans"] = std::move(spans);

  Json derived = Json::object();
  derived["measured_intensity_flops_per_elem"] = totals.intensity_per_element();
  derived["measured_intensity_flops_per_byte"] = totals.intensity_per_byte();
  if (totals.nnz_processed > 0) {
    derived["samples_per_nnz"] = static_cast<double>(totals.rng_samples) /
                                 static_cast<double>(totals.nnz_processed);
  }
  // When the machine probe measured h, put the modeled Eq. (5) intensity
  // 2M/(4+Mh) next to the measurement so measured-vs-modeled is one diff.
  if (const Json* h = machine.find("h_uniform_xoshiro_batch")) {
    const Json* cache = machine.find("cache_bytes");
    const double m_elems = cache != nullptr ? cache->as_double() / 4.0 : 0.0;
    if (m_elems > 0.0) {
      derived["modeled_ci_small_rho"] = ci_small_rho(m_elems, h->as_double());
    }
  }
  if (worst_imbalance > 0.0) derived["thread_imbalance"] = worst_imbalance;
  for (const auto& [k, v] : extra_derived_.members()) derived[k] = v;
  doc["derived"] = std::move(derived);

  doc["timings"] = timings_;
  return doc;
}

std::string ReportBuilder::write() const {
  if (!active_) return "";
  const std::string dir = env_string("RSKETCH_PERF_OUT", ".");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort; open reports
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perf: cannot write %s\n", path.c_str());
    return "";
  }
  out << build().dump(2) << "\n";
  out.close();
  std::printf("perf report: %s\n", path.c_str());
  return path;
}

namespace {

void check_counter(const Json& counters, const char* key,
                   std::vector<std::string>& errs) {
  const Json* v = counters.find(key);
  if (v == nullptr || !v->is_number() || v->as_double() < 0.0) {
    errs.push_back(std::string("counters.") + key +
                   " missing or not a nonnegative number");
  }
}

}  // namespace

std::vector<std::string> validate_bench_report(const Json& doc) {
  std::vector<std::string> errs;
  if (!doc.is_object()) {
    errs.push_back("document is not a JSON object");
    return errs;
  }
  const Json* version = doc.find("schema_version");
  if (version == nullptr || !version->is_int() || version->as_int() != 2) {
    errs.push_back("schema_version missing or not 2");
  }
  const Json* name = doc.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    errs.push_back("name missing or empty");
  }

  const Json* machine = doc.find("machine");
  if (machine == nullptr || !machine->is_object()) {
    errs.push_back("machine section missing");
  } else {
    for (const char* key : {"logical_cpus", "omp_max_threads", "cache_bytes"}) {
      const Json* v = machine->find(key);
      if (v == nullptr || !v->is_number() || v->as_double() <= 0.0) {
        errs.push_back(std::string("machine.") + key +
                       " missing or not positive");
      }
    }
  }

  if (const Json* config = doc.find("config"); config == nullptr || !config->is_object()) {
    errs.push_back("config section missing");
  }

  const Json* counters = doc.find("counters");
  if (counters == nullptr || !counters->is_object()) {
    errs.push_back("counters section missing");
  } else {
    check_counter(*counters, "rng_samples", errs);
    check_counter(*counters, "nnz_processed", errs);
    check_counter(*counters, "flops", errs);
    check_counter(*counters, "elems_moved", errs);
  }

  // Span entries carry {count, seconds} plus the latency-histogram summary,
  // which must be internally consistent (a malformed histogram or a
  // percentile inversion means the aggregation itself is broken).
  if (const Json* spans = doc.find("spans");
      spans != nullptr && spans->is_object()) {
    for (const auto& [sname, s] : spans->members()) {
      if (!s.is_object()) {
        errs.push_back("spans." + sname + " is not an object");
        continue;
      }
      for (const char* key : {"count", "seconds"}) {
        const Json* v = s.find(key);
        if (v == nullptr || !v->is_number() || v->as_double() < 0.0) {
          errs.push_back("spans." + sname + "." + key +
                         " missing or not a nonnegative number");
        }
      }
      const Json* mn = s.find("min_seconds");
      const Json* mx = s.find("max_seconds");
      if (mn != nullptr && mx != nullptr && mn->is_number() &&
          mx->is_number() && mn->as_double() > mx->as_double()) {
        errs.push_back("spans." + sname + ": min_seconds > max_seconds");
      }
      const Json* p50 = s.find("p50_seconds");
      const Json* p95 = s.find("p95_seconds");
      const Json* p99 = s.find("p99_seconds");
      if (p50 != nullptr && p95 != nullptr && p50->is_number() &&
          p95->is_number() && p50->as_double() > p95->as_double()) {
        errs.push_back("spans." + sname + ": p50_seconds > p95_seconds");
      }
      if (p95 != nullptr && p99 != nullptr && p95->is_number() &&
          p99->is_number() && p95->as_double() > p99->as_double()) {
        errs.push_back("spans." + sname + ": p95_seconds > p99_seconds");
      }
      if (const Json* imb = s.find("thread_imbalance");
          imb != nullptr && imb->is_number() && imb->as_double() < 1.0) {
        errs.push_back("spans." + sname + ".thread_imbalance < 1");
      }
    }
  }

  const Json* derived = doc.find("derived");
  if (derived == nullptr || !derived->is_object()) {
    errs.push_back("derived section missing");
  } else {
    const Json* ci = derived->find("measured_intensity_flops_per_elem");
    if (ci == nullptr || !ci->is_number()) {
      errs.push_back("derived.measured_intensity_flops_per_elem missing");
    }
    if (const Json* imb = derived->find("thread_imbalance");
        imb != nullptr && imb->is_number() && imb->as_double() < 1.0) {
      errs.push_back("derived.thread_imbalance < 1");
    }
  }

  const Json* timings = doc.find("timings");
  if (timings == nullptr || !timings->is_array() || timings->size() == 0) {
    errs.push_back("timings missing or empty");
  } else {
    for (std::size_t i = 0; i < timings->size(); ++i) {
      const Json& row = timings->at(i);
      const Json* label = row.find("label");
      const Json* seconds = row.find("seconds");
      if (!row.is_object() || label == nullptr || !label->is_string() ||
          seconds == nullptr || !seconds->is_number() ||
          seconds->as_double() < 0.0) {
        errs.push_back("timings[" + std::to_string(i) +
                       "] lacks string label / nonnegative seconds");
      }
    }
  }
  return errs;
}

}  // namespace rsketch::perf
