// Tests for the telemetry subsystem (src/perf/): thread-local counter merge
// across OpenMP threads, the disabled-mode zero-cost path, JSON round-trips,
// the BENCH_*.json report schema, and perf_event graceful fallback.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "perf/json.hpp"
#include "perf/perf.hpp"
#include "perf/perf_events.hpp"
#include "perf/report.hpp"
#include "sketch/sketch.hpp"
#include "solvers/least_squares.hpp"
#include "solvers/minimum_norm.hpp"
#include "solvers/sap.hpp"
#include "sparse/generate.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/ops.hpp"
#include "support/timer.hpp"

namespace rsketch {
namespace {

// Forces a known toggle state for one test and restores "off, zeroed" after,
// so the tests are order-independent within this binary.
struct PerfToggle {
  explicit PerfToggle(bool on) {
    perf::set_enabled(on);
    perf::reset();
  }
  ~PerfToggle() {
    perf::set_enabled(false);
    perf::reset();
  }
};

void busy_wait(double seconds) {
  Timer t;
  while (t.seconds() < seconds) {
  }
}

TEST(PerfCore, DisabledAddsAreDropped) {
  PerfToggle toggle(false);
  EXPECT_FALSE(perf::enabled());
  perf::add(perf::Counter::RngSamples, 123);
  perf::add_span("dropped", 1.0);
  {
    perf::Span span("also_dropped");
    busy_wait(1e-4);
  }
  perf::KernelCounters kc;
  kc.flops = 42;
  perf::add(kc);
  const auto snap = perf::snapshot();
  for (int c = 0; c < perf::kNumCounters; ++c) {
    EXPECT_EQ(snap.counters[static_cast<std::size_t>(c)], 0u)
        << perf::counter_name(static_cast<perf::Counter>(c));
  }
  EXPECT_TRUE(snap.spans.empty());
}

TEST(PerfCore, CounterMergeAcrossOmpThreads) {
  PerfToggle toggle(true);
  const int threads = 4;  // oversubscription is fine for a merge test
#pragma omp parallel num_threads(threads)
  {
    perf::add(perf::Counter::RngSamples, 1000);
    perf::add(perf::Counter::Flops, 10);
    perf::add_span("omp_unit", 0.25);
    perf::KernelCounters kc;
    kc.nnz_processed = 7;
    perf::add(kc);
  }
  const auto snap = perf::snapshot();
  const auto n = static_cast<std::uint64_t>(threads);
  EXPECT_EQ(snap.get(perf::Counter::RngSamples), 1000u * n);
  EXPECT_EQ(snap.get(perf::Counter::Flops), 10u * n);
  EXPECT_EQ(snap.get(perf::Counter::NnzProcessed), 7u * n);
  ASSERT_EQ(snap.spans.count("omp_unit"), 1u);
  EXPECT_EQ(snap.spans.at("omp_unit").count, n);
  EXPECT_DOUBLE_EQ(snap.spans.at("omp_unit").seconds, 0.25 * threads);
}

TEST(PerfCore, ResetZeroesEverything) {
  PerfToggle toggle(true);
  perf::add(perf::Counter::BytesMoved, 99);
  perf::add_span("gone", 1.0);
  perf::reset();
  const auto snap = perf::snapshot();
  EXPECT_EQ(snap.get(perf::Counter::BytesMoved), 0u);
  EXPECT_TRUE(snap.spans.empty());
}

// The latency histogram buckets by power-of-two nanoseconds, so percentile
// estimates are correct within one octave and exact at the envelope: the
// invariants min <= p50 <= p95 <= p99 <= max must hold for any input.
TEST(PerfHistogram, PercentilesTrackReferenceWithinOneOctave) {
  perf::SpanStat st;
  // 1..1000 µs uniformly: true q-quantile is q * 1e-3 seconds.
  for (int i = 1; i <= 1000; ++i) st.record(static_cast<double>(i) * 1e-6);
  EXPECT_EQ(st.count, 1000u);
  EXPECT_DOUBLE_EQ(st.min_seconds, 1e-6);
  EXPECT_DOUBLE_EQ(st.max_seconds, 1e-3);
  EXPECT_NEAR(st.mean_seconds(), 500.5e-6, 1e-9);
  for (const double q : {0.50, 0.95, 0.99}) {
    const double ref = q * 1e-3;
    const double est = st.percentile(q);
    // One-octave bucket resolution: the estimate brackets the true quantile
    // by at most a factor of two either way.
    EXPECT_GE(est, ref / 2.0) << "q=" << q;
    EXPECT_LE(est, ref * 2.0) << "q=" << q;
  }
  EXPECT_LE(st.percentile(0.50), st.percentile(0.95));
  EXPECT_LE(st.percentile(0.95), st.percentile(0.99));
  EXPECT_LE(st.percentile(0.99), st.max_seconds);
  EXPECT_GE(st.percentile(0.0), st.min_seconds);
}

TEST(PerfHistogram, SingleValueAndMergeAreExact) {
  perf::SpanStat a;
  a.record(3e-6);
  EXPECT_DOUBLE_EQ(a.percentile(0.5), 3e-6);  // clamped to the exact envelope
  perf::SpanStat b;
  b.record(40e-6, 4);  // 4 executions bucketed at their 10 µs mean
  EXPECT_EQ(b.count, 4u);
  EXPECT_DOUBLE_EQ(b.min_seconds, 10e-6);
  a.merge(b);
  EXPECT_EQ(a.count, 5u);
  EXPECT_DOUBLE_EQ(a.min_seconds, 3e-6);
  EXPECT_DOUBLE_EQ(a.max_seconds, 10e-6);
  EXPECT_DOUBLE_EQ(a.seconds, 43e-6);
  EXPECT_LE(a.percentile(0.5), a.percentile(0.99));
}

// Span names are interned at construction, so a dynamically built name may
// die before snapshot() resolves it — the old footgun this design removes.
TEST(PerfCore, DynamicSpanNamesOutliveTheirBuffers) {
  PerfToggle toggle(true);
  {
    std::string dynamic = "dyn_span_" + std::to_string(7);
    perf::Span span(dynamic.c_str());
    dynamic.assign(64, 'x');  // clobber the original buffer
  }
  {
    std::string dynamic = "dyn_add_" + std::to_string(9);
    perf::add_span(dynamic, 0.5);
  }
  const auto snap = perf::snapshot();
  EXPECT_EQ(snap.spans.count("dyn_span_7"), 1u);
  ASSERT_EQ(snap.spans.count("dyn_add_9"), 1u);
  EXPECT_DOUBLE_EQ(snap.spans.at("dyn_add_9").seconds, 0.5);
}

TEST(PerfCore, ParallelBusyComputesImbalance) {
  PerfToggle toggle(true);
  const double busy[4] = {3.0, 1.0, 1.0, 1.0};  // mean 1.5, max 3.0
  perf::add_parallel_busy("busy_region", 4, busy);
  const double even[4] = {1.0, 1.0, 1.0, 1.0};
  perf::add_parallel_busy("busy_region", 4, even);
  const auto snap = perf::snapshot();
  ASSERT_EQ(snap.busy.count("busy_region"), 1u);
  const auto& bs = snap.busy.at("busy_region");
  EXPECT_EQ(bs.calls, 2u);
  EXPECT_EQ(bs.thread_slots, 8u);
  EXPECT_DOUBLE_EQ(bs.busy_seconds, 10.0);
  EXPECT_DOUBLE_EQ(bs.max_imbalance, 2.0);  // worst call, not the average
  EXPECT_DOUBLE_EQ(bs.mean_thread_busy(), 1.25);
}

TEST(PerfCore, SpanRecordsElapsedWallClock) {
  PerfToggle toggle(true);
  {
    perf::Span span("timed_region");
    busy_wait(5e-3);
  }
  const auto snap = perf::snapshot();
  ASSERT_EQ(snap.spans.count("timed_region"), 1u);
  EXPECT_EQ(snap.spans.at("timed_region").count, 1u);
  EXPECT_GE(snap.spans.at("timed_region").seconds, 4e-3);
}

// Instrumented runs collect per-sketch counters even with the global toggle
// off (Table III's code path), and the formulas must agree exactly with the
// sampler's own fill accounting: Alg. 3 regenerates d entries of S per
// nonzero, Alg. 4 one column of S per nonempty row per row-block.
// Matrix Market I/O carries its own spans, so a CLI report attributes the
// read and the output write instead of leaving them unexplained.
TEST(PerfCore, MatrixMarketIoRecordsSpans) {
  PerfToggle toggle(true);
  const auto a = random_sparse<double>(30, 20, 0.2, 9);
  std::stringstream ss;
  write_matrix_market(ss, a);
  (void)read_matrix_market<double>(ss);
  write_matrix_market_file(::testing::TempDir() + "/rsketch_perf_io.mtx",
                           DenseMatrix<double>(4, 3));
  const auto snap = perf::snapshot();
  ASSERT_EQ(snap.spans.count("io/read"), 1u);
  ASSERT_EQ(snap.spans.count("io/write"), 1u);
  EXPECT_EQ(snap.spans.at("io/read").count, 1u);
  EXPECT_EQ(snap.spans.at("io/write").count, 2u);  // CSC + dense writer
}

/// (sketch + factor + lsqr) / root for one traced solve.
double sap_child_coverage(const perf::Snapshot& snap, const char* root) {
  double children = 0.0;
  for (const char* child : {"sap/sketch", "sap/factor", "sap/lsqr"}) {
    EXPECT_EQ(snap.spans.count(child), 1u) << child;
    if (snap.spans.count(child) == 1) children += snap.spans.at(child).seconds;
  }
  EXPECT_EQ(snap.spans.count(root), 1u) << root;
  return snap.spans.count(root) == 1 ? children / snap.spans.at(root).seconds
                                     : 0.0;
}

// Both SAP solvers time their whole run under a root span whose three phase
// children account for it.
TEST(PerfCore, SapSolveSpansCoverTheSolve) {
  SapOptions opt;
  opt.lsqr_max_iter = 500;
  {
    const auto a = random_sparse<double>(6000, 120, 0.03, 71);
    const auto b = make_least_squares_rhs(a, 72);
    PerfToggle on(true);
    sap_solve(a, b, opt);
    EXPECT_GE(sap_child_coverage(perf::snapshot(), "sap_solve"), 0.95);
  }
  {
    const auto a = random_sparse<double>(120, 6000, 0.03, 73);
    std::vector<double> x(6000, 1.0), b(120);
    spmv(a, x.data(), b.data());
    PerfToggle on(true);
    sap_solve_minimum_norm(a, b, opt);
    EXPECT_GE(sap_child_coverage(perf::snapshot(), "sap_solve_minimum_norm"),
              0.95);
  }
}

TEST(PerfKernels, KjiCountersMatchSamplerAccounting) {
  PerfToggle toggle(false);
  const auto a = random_sparse<double>(300, 80, 0.05, 7);
  SketchConfig cfg;
  cfg.d = 96;
  cfg.block_d = 40;
  cfg.block_n = 17;
  cfg.kernel = KernelVariant::Kji;
  cfg.parallel = ParallelOver::Sequential;
  DenseMatrix<double> a_hat(cfg.d, a.cols());
  const auto stats = sketch_into(cfg, a, a_hat, /*instrument=*/true);

  const auto nnz = static_cast<std::uint64_t>(a.nnz());
  const auto d = static_cast<std::uint64_t>(cfg.d);
  // A is re-streamed once per block row of S, so nnz_processed counts
  // traffic (nnz x ceil(d / b_d)), not unique entries — that re-read factor
  // is exactly what the intensity model charges for.
  const auto d_blocks = static_cast<std::uint64_t>(ceil_div(cfg.d, cfg.block_d));
  EXPECT_EQ(stats.counters.rng_samples, stats.samples_generated);
  EXPECT_EQ(stats.counters.rng_samples, nnz * d);
  EXPECT_EQ(stats.counters.nnz_processed, nnz * d_blocks);
  EXPECT_EQ(stats.counters.flops, 2 * nnz * d);
  EXPECT_GT(stats.counters.kernel_blocks, 1u);  // blocks actually tiled
  EXPECT_GT(stats.measured_intensity(), 0.0);
  EXPECT_LT(stats.measured_intensity(), 2.0);  // flops / (elems + samples) < 2

  // Global catalog stays untouched: the toggle is off.
  EXPECT_EQ(perf::snapshot().get(perf::Counter::RngSamples), 0u);
}

TEST(PerfKernels, JkiReusesSamplesAcrossRows) {
  PerfToggle toggle(false);
  const auto a = random_sparse<double>(300, 80, 0.05, 11);
  SketchConfig cfg;
  cfg.d = 96;
  cfg.block_d = 40;
  cfg.block_n = 17;
  cfg.kernel = KernelVariant::Jki;
  cfg.parallel = ParallelOver::Sequential;
  DenseMatrix<double> a_hat(cfg.d, a.cols());
  const auto stats = sketch_into(cfg, a, a_hat, /*instrument=*/true);

  const auto nnz = static_cast<std::uint64_t>(a.nnz());
  const auto d = static_cast<std::uint64_t>(cfg.d);
  const auto d_blocks = static_cast<std::uint64_t>(ceil_div(cfg.d, cfg.block_d));
  EXPECT_EQ(stats.counters.rng_samples, stats.samples_generated);
  // The whole point of Algorithm 4: strictly fewer samples than Alg. 3
  // whenever any row holds more than one nonzero per column-block.
  EXPECT_LT(stats.counters.rng_samples, nnz * d);
  EXPECT_EQ(stats.counters.nnz_processed, nnz * d_blocks);
  EXPECT_EQ(stats.counters.flops, 2 * nnz * d);
}

TEST(PerfKernels, EnabledTogglePopulatesGlobalCatalog) {
  PerfToggle toggle(true);
  const auto a = random_sparse<double>(200, 60, 0.05, 3);
  SketchConfig cfg;
  cfg.d = 64;
  cfg.kernel = KernelVariant::Kji;
  cfg.parallel = ParallelOver::Sequential;
  DenseMatrix<double> a_hat(cfg.d, a.cols());
  const auto stats = sketch_into(cfg, a, a_hat);  // no instrument flag needed

  const auto snap = perf::snapshot();
  EXPECT_EQ(snap.get(perf::Counter::RngSamples), stats.counters.rng_samples);
  EXPECT_EQ(snap.get(perf::Counter::NnzProcessed),
            static_cast<std::uint64_t>(a.nnz()));
  EXPECT_EQ(snap.get(perf::Counter::SketchCalls), 1u);
  EXPECT_EQ(snap.spans.count("sketch_blocked_kji"), 1u);
}

TEST(PerfJson, DumpParseRoundTrip) {
  using perf::Json;
  Json doc = Json::object();
  doc["name"] = Json("bench \"quoted\" \\ and\nnewline");
  doc["big_int"] = Json(static_cast<std::uint64_t>(1) << 53);
  doc["negative"] = Json(-42);
  doc["pi"] = Json(3.14159265358979);
  doc["flag"] = Json(true);
  doc["nothing"] = Json();
  Json arr = Json::array();
  arr.push_back(Json(1));
  arr.push_back(Json("two"));
  Json nested = Json::object();
  nested["k"] = Json(7);
  arr.push_back(nested);
  doc["items"] = arr;

  const std::string text = doc.dump(2);
  const Json back = Json::parse(text);
  EXPECT_EQ(back.find("name")->as_string(), doc.find("name")->as_string());
  EXPECT_EQ(back.find("big_int")->as_int(),
            static_cast<long long>(1) << 53);
  EXPECT_EQ(back.find("negative")->as_int(), -42);
  EXPECT_DOUBLE_EQ(back.find("pi")->as_double(), 3.14159265358979);
  EXPECT_TRUE(back.find("flag")->as_bool());
  EXPECT_TRUE(back.find("nothing")->is_null());
  ASSERT_EQ(back.find("items")->size(), 3u);
  EXPECT_EQ(back.find("items")->at(2).find("k")->as_int(), 7);
  // Serialization is stable: a second trip reproduces the text exactly.
  EXPECT_EQ(Json::parse(text).dump(2), text);
}

TEST(PerfJson, ParseRejectsMalformedInput) {
  using perf::Json;
  EXPECT_THROW(Json::parse("{"), io_error);
  EXPECT_THROW(Json::parse("[1, 2,,]"), io_error);
  EXPECT_THROW(Json::parse("{\"a\": 1} trailing"), io_error);
  EXPECT_THROW(Json::parse("\"unterminated"), io_error);
  // Unicode escapes decode to UTF-8.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(PerfReport, BuildPassesSchemaValidation) {
  PerfToggle toggle(true);
  const auto a = random_sparse<double>(150, 40, 0.08, 5);
  SketchConfig cfg;
  cfg.d = 48;
  cfg.parallel = ParallelOver::Sequential;
  DenseMatrix<double> a_hat(cfg.d, a.cols());
  const auto stats = sketch_into(cfg, a, a_hat, /*instrument=*/true);

  perf::ReportBuilder report("unit_test");
  EXPECT_TRUE(report.active());
  report.config("matrix", "random_sparse");
  report.config("d", static_cast<long long>(cfg.d));
  report.timing("sketch", stats.total_seconds, stats);
  report.counter("extra", 9);
  report.derived("speedup", 1.5);

  const perf::Json doc = report.build();
  const auto errs = perf::validate_bench_report(doc);
  for (const auto& e : errs) ADD_FAILURE() << e;
  EXPECT_TRUE(errs.empty());

  // The document survives a serialize/parse trip and still validates —
  // exactly what the validate_bench_json smoke gate exercises.
  const perf::Json back = perf::Json::parse(doc.dump(2));
  EXPECT_TRUE(perf::validate_bench_report(back).empty());
  EXPECT_EQ(back.find("counters")->find("rng_samples")->as_int(),
            static_cast<long long>(stats.counters.rng_samples));
  EXPECT_EQ(back.find("name")->as_string(), "unit_test");
}

TEST(PerfReport, InactiveBuilderIsInert) {
  PerfToggle toggle(false);
  perf::ReportBuilder report("should_not_exist");
  EXPECT_FALSE(report.active());
  report.config("k", "v");
  report.timing("t", 1.0);
  EXPECT_EQ(report.write(), "");
}

TEST(PerfReport, ValidatorFlagsMissingSections) {
  const auto errs = perf::validate_bench_report(perf::Json::object());
  EXPECT_FALSE(errs.empty());
  perf::Json half = perf::Json::object();
  half["schema_version"] = perf::Json(1);
  half["name"] = perf::Json("x");
  EXPECT_FALSE(perf::validate_bench_report(half).empty());
  half["schema_version"] = perf::Json(3);  // unknown version
  EXPECT_FALSE(perf::validate_bench_report(half).empty());
}

// schema_version 2 reports carry the latency summary per span and the
// thread-imbalance fields; the validator enforces their internal ordering.
TEST(PerfReport, SchemaV2SpansCarryConsistentHistograms) {
  PerfToggle toggle(true);
  for (int i = 0; i < 50; ++i) {
    perf::add_span("v2_span", 1e-5 * (1 + i % 7));
  }
  const double busy[2] = {2.0, 1.0};
  perf::add_parallel_busy("v2_region", 2, busy);

  perf::ReportBuilder report("v2_unit");
  report.timing("t", 0.001);
  perf::Json doc = report.build();
  EXPECT_EQ(doc.find("schema_version")->as_int(), 2);
  EXPECT_TRUE(perf::validate_bench_report(doc).empty());

  const perf::Json* span = doc.find("spans")->find("v2_span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->find("count")->as_int(), 50);
  const double p50 = span->find("p50_seconds")->as_double();
  const double p95 = span->find("p95_seconds")->as_double();
  const double p99 = span->find("p99_seconds")->as_double();
  EXPECT_GE(p50, span->find("min_seconds")->as_double());
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, span->find("max_seconds")->as_double());

  const perf::Json* region = doc.find("spans")->find("v2_region");
  ASSERT_NE(region, nullptr);
  EXPECT_DOUBLE_EQ(region->find("thread_imbalance")->as_double(), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(doc.find("derived")->find("thread_imbalance")->as_double(),
                   4.0 / 3.0);

  // A percentile inversion or min > max must be rejected, not emitted.
  perf::Json broken = perf::Json::parse(doc.dump(2));
  broken["spans"]["v2_span"]["p50_seconds"] = perf::Json(1.0);
  EXPECT_FALSE(perf::validate_bench_report(broken).empty());
  perf::Json broken2 = perf::Json::parse(doc.dump(2));
  broken2["spans"]["v2_span"]["min_seconds"] = perf::Json(5.0);
  EXPECT_FALSE(perf::validate_bench_report(broken2).empty());
  perf::Json broken3 = perf::Json::parse(doc.dump(2));
  broken3["derived"]["thread_imbalance"] = perf::Json(0.5);
  EXPECT_FALSE(perf::validate_bench_report(broken3).empty());
}

// Legacy schema_version 1 documents ({count, seconds} spans) are rejected:
// every emitted report and committed baseline is v2, so a v1 document can
// only be stale. The same document passes once it claims version 2.
TEST(PerfReport, SchemaV1DocumentsAreRejected) {
  PerfToggle toggle(true);
  perf::ReportBuilder report("v1_unit");
  report.timing("t", 0.5);
  perf::Json doc = report.build();
  doc["schema_version"] = perf::Json(1);
  // Strip the v2 span fields to mimic a genuine v1 document.
  perf::Json spans = perf::Json::object();
  doc["spans"] = spans;
  const auto errs = perf::validate_bench_report(doc);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("schema_version"), std::string::npos);
  doc["schema_version"] = perf::Json(2);
  EXPECT_TRUE(perf::validate_bench_report(doc).empty());
}

// The hardware backend must be internally consistent whether or not the
// kernel grants perf_event access (containers typically deny it): available()
// true => a started/stopped group yields a valid reading with nonzero cycles;
// false => read() reports invalid and error() says why. Never crashes.
TEST(PerfEvents, GracefulFallbackIsConsistent) {
  perf::PerfEventGroup group;
  group.start();
  busy_wait(2e-3);
  group.stop();
  const perf::HwCounters hw = group.read();
  EXPECT_EQ(hw.valid, group.available());
  if (group.available()) {
    EXPECT_GT(hw.cycles, 0u);
    EXPECT_GT(hw.instructions, 0u);
    EXPECT_GT(hw.ipc(), 0.0);
    EXPECT_GT(hw.multiplex_scale, 0.0);
  } else {
    EXPECT_FALSE(group.error().empty());
    EXPECT_EQ(hw.cycles, 0u);
  }
  // Repeated start/stop cycles are safe in either mode.
  group.start();
  group.stop();
  (void)group.read();
}

}  // namespace
}  // namespace rsketch
