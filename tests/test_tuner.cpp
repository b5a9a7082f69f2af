// Empirical autotuner: candidate generation, fingerprinting, the persistent
// tuning cache, and the resolve_tuning dispatch contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>

#include "analysis/machine.hpp"
#include "perf/perf.hpp"
#include "sketch/sketch.hpp"
#include "sketch/tuner.hpp"
#include "sparse/generate.hpp"

namespace rsketch {
namespace {

// Unique-per-test temp path under the system temp dir; removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_((std::filesystem::temp_directory_path() /
               ("rsketch_" + stem + ".json"))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Point the tuner at an isolated cache file for the duration of a test.
class ScopedTuneCacheEnv {
 public:
  explicit ScopedTuneCacheEnv(const std::string& path) {
    ::setenv("RSKETCH_TUNE_CACHE", path.c_str(), 1);
  }
  ~ScopedTuneCacheEnv() { ::unsetenv("RSKETCH_TUNE_CACHE"); }
};

SketchConfig base_config(index_t d) {
  SketchConfig cfg;
  cfg.d = d;
  cfg.seed = 99;
  cfg.dist = Dist::PmOne;
  cfg.block_d = 128;
  cfg.block_n = 64;
  cfg.parallel = ParallelOver::Sequential;
  return cfg;
}

TEST(ParseTuneMode, AcceptsAllModes) {
  EXPECT_EQ(parse_tune_mode("off"), TuneMode::Off);
  EXPECT_EQ(parse_tune_mode("model"), TuneMode::Model);
  EXPECT_EQ(parse_tune_mode("empirical"), TuneMode::Empirical);
  EXPECT_EQ(parse_tune_mode("cached"), TuneMode::Cached);
}

TEST(ParseTuneMode, RejectsUnknown) {
  EXPECT_THROW(parse_tune_mode("fastest"), invalid_argument_error);
  EXPECT_THROW(parse_tune_mode(""), invalid_argument_error);
}

TEST(TunerCandidates, InBoundsDedupedBothKernels) {
  const auto a = random_sparse<float>(800, 200, 0.01, 5);
  const SketchConfig cfg = base_config(600);
  const auto cands = tuner_candidates(cfg, a);
  ASSERT_FALSE(cands.empty());
  std::set<std::string> labels;
  bool saw_kji = false, saw_jki = false;
  for (const TuneCandidate& c : cands) {
    EXPECT_GE(c.block_d, 1);
    EXPECT_LE(c.block_d, 600);
    EXPECT_GE(c.block_n, 1);
    EXPECT_LE(c.block_n, 200);
    EXPECT_TRUE(labels.insert(c.label()).second) << "duplicate " << c.label();
    saw_kji |= c.kernel == KernelVariant::Kji;
    saw_jki |= c.kernel == KernelVariant::Jki;
  }
  EXPECT_TRUE(saw_kji);
  EXPECT_TRUE(saw_jki);
}

TEST(TunerCandidates, OneCandidatePerKernelBlocksAndIsa) {
  // The block schedule is not a tuner axis: a label is kernel/b_dxb_n/isa,
  // and no two candidates share all four of those fields.
  const auto a = random_sparse<double>(800, 200, 0.01, 5);
  const SketchConfig cfg = base_config(600);
  const auto cands = tuner_candidates(cfg, a);
  ASSERT_FALSE(cands.empty());
  std::set<std::tuple<KernelVariant, index_t, index_t, microkernel::Isa>>
      seen;
  for (const TuneCandidate& c : cands) {
    EXPECT_TRUE(seen.insert({c.kernel, c.block_d, c.block_n, c.isa}).second)
        << "duplicate " << c.label();
    const std::string want =
        std::string(c.kernel == KernelVariant::Kji ? "kji" : "jki") + "/" +
        std::to_string(c.block_d) + "x" +
        std::to_string(c.block_n) + "/" + microkernel::to_string(c.isa);
    EXPECT_EQ(c.label(), want);
  }
  TuneCandidate jki;
  jki.kernel = KernelVariant::Jki;
  jki.block_d = 64;
  jki.block_n = 32;
  jki.isa = microkernel::Isa::Auto;
  EXPECT_EQ(jki.label(), "jki/64x32/auto");
}

TEST(MatrixFingerprint, DeterministicAndSensitiveToShape) {
  const auto a = random_sparse<double>(1000, 250, 0.005, 3);
  const auto b = random_sparse<double>(1000, 251, 0.005, 3);
  EXPECT_EQ(matrix_fingerprint(a, 750), matrix_fingerprint(a, 750));
  EXPECT_NE(matrix_fingerprint(a, 750), matrix_fingerprint(b, 750));
  // d lands in a log2 bucket: doubling d must move the fingerprint.
  EXPECT_NE(matrix_fingerprint(a, 750), matrix_fingerprint(a, 3000));
}

TEST(TuningCache, RoundTripPreservesDispatch) {
  TempFile file("cache_roundtrip");
  TuneCandidate cand;
  cand.kernel = KernelVariant::Jki;
  cand.block_d = 333;
  cand.block_n = 77;
  cand.isa = microkernel::Isa::Scalar;

  TuningCache cache = TuningCache::load(file.path());  // absent file: ok+empty
  EXPECT_TRUE(cache.ok());
  EXPECT_EQ(cache.size(), 0u);
  cache.store("machine#fp", cand, 1.5e-3);
  ASSERT_TRUE(cache.save(file.path()));

  const TuningCache reloaded = TuningCache::load(file.path());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.size(), 1u);
  TuneCandidate out;
  ASSERT_TRUE(reloaded.lookup("machine#fp", &out));
  EXPECT_EQ(out.kernel, cand.kernel);
  EXPECT_EQ(out.block_d, cand.block_d);
  EXPECT_EQ(out.block_n, cand.block_n);
  EXPECT_EQ(out.isa, cand.isa);
  EXPECT_FALSE(reloaded.lookup("machine#other", &out));
}

TEST(TuningCache, MissingIsaFieldDecodesToAutoInvalidDropsEntry) {
  // Pre-micro-kernel cache entry (no "isa"): must decode as Auto. An entry
  // with an unknown isa token is stale and must be dropped individually.
  TempFile file("cache_isa_compat");
  std::ofstream(file.path())
      << "{\"schema_version\": 1, \"entries\": {"
         "\"k1\": {\"kernel\": \"jki\", \"backend\": \"xoshiro_batch\","
         " \"block_d\": 10, \"block_n\": 10, \"pilot_seconds\": 1e-3},"
         "\"k2\": {\"kernel\": \"kji\", \"backend\": \"philox\","
         " \"block_d\": 20, \"block_n\": 20, \"isa\": \"mmx\","
         " \"pilot_seconds\": 1e-3}}}";
  const TuningCache cache = TuningCache::load(file.path());
  EXPECT_TRUE(cache.ok());
  TuneCandidate out;
  ASSERT_TRUE(cache.lookup("k1", &out));
  EXPECT_EQ(out.isa, microkernel::Isa::Auto);
  EXPECT_FALSE(cache.lookup("k2", &out));
}

TEST(TuningCache, LegacyScheduleFieldIgnoredOnLoad) {
  // Entries written while the block schedule was a tuner axis carry a
  // "schedule" field. The field is ignored whatever its token, so every
  // such entry still loads and hits, and a re-save drops it.
  TempFile file("cache_schedule_compat");
  std::ofstream(file.path())
      << "{\"schema_version\": 1, \"entries\": {"
         "\"k1\": {\"kernel\": \"kji\", \"block_d\": 10, \"block_n\": 11,"
         " \"isa\": \"auto\", \"schedule\": \"uniform\","
         " \"pilot_seconds\": 1e-3},"
         "\"k2\": {\"kernel\": \"jki\", \"block_d\": 20, \"block_n\": 21,"
         " \"isa\": \"auto\", \"schedule\": \"balanced\","
         " \"pilot_seconds\": 1e-3},"
         "\"k3\": {\"kernel\": \"kji\", \"block_d\": 30, \"block_n\": 31,"
         " \"isa\": \"auto\", \"schedule\": \"bogus\","
         " \"pilot_seconds\": 1e-3}}}";
  TuningCache cache = TuningCache::load(file.path());
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ(cache.size(), 3u);
  const struct {
    const char* key;
    KernelVariant kernel;
    index_t block_d;
  } want[] = {{"k1", KernelVariant::Kji, 10},
              {"k2", KernelVariant::Jki, 20},
              {"k3", KernelVariant::Kji, 30}};
  for (const auto& w : want) {
    TuneCandidate out;
    ASSERT_TRUE(cache.lookup(w.key, &out)) << w.key;
    EXPECT_EQ(out.kernel, w.kernel) << w.key;
    EXPECT_EQ(out.block_d, w.block_d) << w.key;
    EXPECT_EQ(out.block_n, w.block_d + 1) << w.key;
  }

  ASSERT_TRUE(cache.save(file.path()));
  std::ifstream in(file.path());
  const std::string saved((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(saved.find("\"schedule\""), std::string::npos) << saved;
  const TuningCache reloaded = TuningCache::load(file.path());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.size(), 3u);
}

TEST(TuningCache, CorruptFileLoadsEmptyNotOk) {
  TempFile file("cache_corrupt");
  std::ofstream(file.path()) << "this is { not json";
  const TuningCache cache = TuningCache::load(file.path());
  EXPECT_FALSE(cache.ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCache, WrongSchemaVersionLoadsEmptyNotOk) {
  TempFile file("cache_schema");
  std::ofstream(file.path()) << "{\"schema_version\": 99, \"entries\": {}}";
  const TuningCache cache = TuningCache::load(file.path());
  EXPECT_FALSE(cache.ok());
}

TEST(ResolveTuning, CachedModeWritesThenHitsWithoutRetiming) {
  TempFile file("resolve_cached");
  ScopedTuneCacheEnv env(file.path());
  const auto a = random_sparse<float>(600, 150, 0.01, 11);
  SketchConfig cfg = base_config(450);
  cfg.tune = TuneMode::Cached;

  perf::set_enabled(true);
  perf::reset();
  TuneDecision first;
  const SketchConfig eff1 = resolve_tuning(cfg, a, &first);
  EXPECT_EQ(first.source, TuneSource::Empirical);
  EXPECT_GT(first.candidates_timed, 0);
  EXPECT_EQ(eff1.tune, TuneMode::Off);

  TuneDecision second;
  const SketchConfig eff2 = resolve_tuning(cfg, a, &second);
  const perf::Snapshot snap = perf::snapshot();
  perf::set_enabled(false);

  // Second resolve is answered from the persisted cache: same dispatch,
  // zero pilot runs, and the hit is visible in the counter catalog.
  EXPECT_EQ(second.source, TuneSource::Cache);
  EXPECT_EQ(second.candidates_timed, 0);
  EXPECT_EQ(second.choice.label(), first.choice.label());
  EXPECT_EQ(eff2.kernel, eff1.kernel);
  EXPECT_EQ(eff2.backend, cfg.backend);  // tuning never swaps the sampler
  EXPECT_EQ(eff2.block_d, eff1.block_d);
  EXPECT_EQ(eff2.block_n, eff1.block_n);
  EXPECT_EQ(snap.get(perf::Counter::TunerCacheHits), 1u);
  EXPECT_EQ(snap.get(perf::Counter::TunerCacheMisses), 1u);
  EXPECT_GT(snap.get(perf::Counter::TunerCandidatesTimed), 0u);
}

TEST(ResolveTuning, CorruptCacheFallsBackToModelAndPreservesFile) {
  TempFile file("resolve_corrupt");
  const std::string garbage = "{{{ definitely not a cache";
  std::ofstream(file.path()) << garbage;
  ScopedTuneCacheEnv env(file.path());

  const auto a = random_sparse<float>(600, 150, 0.01, 11);
  SketchConfig cfg = base_config(450);
  cfg.tune = TuneMode::Cached;
  TuneDecision decision;
  const SketchConfig eff = resolve_tuning(cfg, a, &decision);

  // Degrades to model tuning (no throw, no empirical pilot) and leaves the
  // corrupt file untouched for inspection instead of clobbering it.
  EXPECT_EQ(decision.source, TuneSource::Model);
  EXPECT_EQ(decision.candidates_timed, 0);
  EXPECT_GE(eff.block_d, 1);
  std::ifstream in(file.path());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, garbage);
}

TEST(ResolveTuning, EmpiricalWinnerSketchesBitwiseIdentical) {
  TempFile file("resolve_bitwise");
  ScopedTuneCacheEnv env(file.path());
  const auto a = random_sparse<float>(500, 120, 0.02, 21);
  SketchConfig cfg = base_config(360);
  cfg.tune = TuneMode::Empirical;

  TuneDecision decision;
  const SketchConfig effective = resolve_tuning(cfg, a, &decision);
  EXPECT_EQ(decision.source, TuneSource::Empirical);

  // Rebuild the winner's config by hand from the decision record: the pilot
  // timing must not leak into the numerics, so sketching with the resolved
  // config and with the hand-built one is bitwise identical.
  SketchConfig manual = base_config(360);
  manual.kernel = decision.choice.kernel;
  manual.block_d = decision.choice.block_d;
  manual.block_n = decision.choice.block_n;

  DenseMatrix<float> via_tuner(effective.d, a.cols());
  DenseMatrix<float> via_manual(manual.d, a.cols());
  sketch_into(effective, a, via_tuner);
  sketch_into(manual, a, via_manual);
  for (index_t j = 0; j < via_tuner.cols(); ++j) {
    for (index_t i = 0; i < via_tuner.rows(); ++i) {
      ASSERT_EQ(via_tuner(i, j), via_manual(i, j))
          << "mismatch at (" << i << ", " << j << ")";
    }
  }
}

TEST(ResolveTuning, DegenerateInputsPassThrough) {
  const CscMatrix<float> empty(40, 0);
  SketchConfig cfg = base_config(30);
  cfg.tune = TuneMode::Empirical;
  TuneDecision decision;
  const SketchConfig eff = resolve_tuning(cfg, empty, &decision);
  EXPECT_EQ(decision.source, TuneSource::Caller);
  EXPECT_EQ(eff.block_d, cfg.block_d);
  EXPECT_EQ(eff.block_n, cfg.block_n);
}

TEST(MachineSignature, StableWithinProcess) {
  const std::string sig = machine_signature();
  EXPECT_EQ(sig, machine_signature());
  EXPECT_NE(sig.find("cpus="), std::string::npos);
  EXPECT_NE(sig.find("cache="), std::string::npos);
}

}  // namespace
}  // namespace rsketch
