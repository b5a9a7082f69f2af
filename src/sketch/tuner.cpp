#include "sketch/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include "analysis/machine.hpp"
#include "analysis/pattern.hpp"
#include "perf/json.hpp"
#include "perf/perf.hpp"
#include "perf/trace.hpp"
#include "sketch/autotune.hpp"
#include "sketch/sketch.hpp"
#include "support/env.hpp"
#include "support/run_control.hpp"
#include "support/timer.hpp"

namespace rsketch {

namespace {

/// Serializes load-modify-save cycles on the cache file within a process.
std::mutex g_cache_mutex;

/// Pilot problem: the leading kPilotCols columns of A sketched to kPilotRows
/// rows (each clamped to the problem), best of kPilotReps timed runs per
/// candidate.
constexpr index_t kPilotCols = 1024;
constexpr index_t kPilotRows = 4096;
constexpr int kPilotReps = 2;

const char* kernel_token(KernelVariant k) {
  return k == KernelVariant::Kji ? "kji" : "jki";
}

bool parse_kernel_token(const std::string& s, KernelVariant* out) {
  if (s == "kji") *out = KernelVariant::Kji;
  else if (s == "jki") *out = KernelVariant::Jki;
  else return false;
  return true;
}

/// Leading-column slice A[:, 0:pilot_n) with d clamped — the pilot problem
/// every candidate is timed on. Correct by construction (prefix of a valid
/// CSC), hence adopt_unchecked.
template <typename T>
CscMatrix<T> pilot_slice(const CscMatrix<T>& a, index_t pilot_n) {
  const auto& cp = a.col_ptr();
  const index_t nnz = cp[static_cast<std::size_t>(pilot_n)];
  std::vector<index_t> col_ptr(cp.begin(), cp.begin() + pilot_n + 1);
  std::vector<index_t> row_idx(a.row_idx().begin(),
                               a.row_idx().begin() + nnz);
  std::vector<T> values(a.values().begin(), a.values().begin() + nnz);
  return CscMatrix<T>::adopt_unchecked(a.rows(), pilot_n, std::move(col_ptr),
                                       std::move(row_idx), std::move(values));
}

/// Time every candidate on the pilot problem; returns the index of the
/// fastest (first wins ties, so the order of tuner_candidates() is the
/// tiebreak) and its best-of-reps seconds. Returns best_secs >= 1e300 when
/// no candidate finished (the tuning sub-deadline fired before the first
/// pilot completed) — the caller falls back to the model.
template <typename T>
std::pair<std::size_t, double> time_candidates(
    const SketchConfig& cfg, const CscMatrix<T>& pilot, index_t pilot_d,
    const std::vector<TuneCandidate>& cands) {
  perf::Span span("tuner/empirical");
  SketchConfig pcfg = cfg;
  pcfg.tune = TuneMode::Off;
  pcfg.check_inputs = false;  // the slice is internal, already validated
  pcfg.d = pilot_d;
  // Pilot runs inherit the caller's bounds through a chained child control
  // carrying a sliced sub-deadline: tuning may spend at most a quarter of
  // the wall-clock remaining on the outer deadline (floor 1 ms), so a tight
  // deadline degrades to fewer timed candidates instead of eating the whole
  // run before the real sketch starts. The child is the pilot's only bound,
  // so the pilot call does not re-arm the caller's afresh from "now".
  ResolvedRunControl outer(cfg.bounds);
  RunControl* const parent = outer.get();
  RunControl child;
  if (parent != nullptr) {
    child.set_parent(parent);
    const double remaining = parent->deadline_remaining_ms();
    if (remaining != std::numeric_limits<double>::infinity()) {
      child.set_deadline_ms(std::max(1.0, remaining * 0.25));
    }
  }
  pcfg.bounds = {.control = parent != nullptr ? &child : nullptr};
  DenseMatrix<T> scratch(pilot_d, pilot.cols());
  std::size_t best = 0;
  double best_secs = 1e300;
  for (std::size_t c = 0; c < cands.size(); ++c) {
    apply_candidate(pcfg, cands[c]);
    // Label each pilot run with the candidate it timed, so the timeline shows
    // which (kernel, blocks, isa) combination each slice belongs to.
    // Interning the dynamic name is safe (the table owns it) and off the hot
    // path; skipped entirely when tracing is off.
    perf::trace::Scope cand_scope(
        perf::trace::armed()
            ? perf::trace::intern("tuner/candidate/" + cands[c].label())
            : 0);
    double secs = 1e300;
    bool sub_deadline_hit = false;
    for (int rep = 0; rep < kPilotReps; ++rep) {
      try {
        Timer t;
        sketch_into(pcfg, pilot, scratch);
        secs = std::min(secs, t.seconds());
      } catch (const run_stopped_error& e) {
        // The caller's own bound fired: propagate, the whole run is over.
        // Only the pilot slice expired: stop timing, keep the best so far.
        if (parent != nullptr && parent->stop_cause() != StopCause::None) {
          outer.count_stop(e.cause());
          throw;
        }
        sub_deadline_hit = true;
        break;
      }
    }
    if (secs < 1e300) {
      perf::add(perf::Counter::TunerCandidatesTimed, 1);
      perf::add_span("tuner/candidate", secs);
      if (secs < best_secs) {
        best = c;
        best_secs = secs;
      }
    }
    if (sub_deadline_hit) break;
  }
  return {best, best_secs};
}

/// Model fallback shared by TuneMode::Model and the corrupt-cache path.
template <typename T>
void resolve_model(const SketchConfig& cfg, const CscMatrix<T>& a,
                   SketchConfig& eff, TuneDecision& dec) {
  perf::Span span("tuner/model");
  SketchConfig model = cfg;
  autotune_blocks(model, a);
  dec.choice = {cfg.kernel, model.block_d, model.block_n, cfg.isa};
  dec.source = TuneSource::Model;
  apply_candidate(eff, dec.choice);
}

/// Empirical search shared by TuneMode::Empirical and the cache-miss path.
/// Degrades to the model when the pilot slice carries no nonzeros (timing
/// noise would pick an arbitrary winner).
template <typename T>
void resolve_empirical(const SketchConfig& cfg, const CscMatrix<T>& a,
                       SketchConfig& eff, TuneDecision& dec) {
  const std::vector<TuneCandidate> cands = tuner_candidates(cfg, a);
  const index_t pilot_n = std::min(a.cols(), kPilotCols);
  const index_t pilot_d = std::min(cfg.d, kPilotRows);
  const CscMatrix<T> pilot = pilot_slice(a, pilot_n);
  if (pilot.nnz() == 0) {
    resolve_model(cfg, a, eff, dec);
    return;
  }
  const auto [best, best_secs] = time_candidates(cfg, pilot, pilot_d, cands);
  if (best_secs >= 1e300) {
    // The tuning sub-deadline fired before any candidate finished: the model
    // times nothing, and the caller's own deadline is re-checked the moment
    // the real sketch dispatches.
    resolve_model(cfg, a, eff, dec);
    return;
  }
  apply_candidate(eff, cands[best]);
  dec.choice = cands[best];
  dec.source = TuneSource::Empirical;
  dec.pilot_seconds = best_secs;
  dec.candidates_timed = static_cast<int>(cands.size());
}

}  // namespace

std::string TuneCandidate::label() const {
  std::ostringstream os;
  os << kernel_token(kernel) << "/" << block_d << "x" << block_n << "/"
     << microkernel::to_string(isa);
  return os.str();
}

void apply_candidate(SketchConfig& cfg, const TuneCandidate& cand) {
  cfg.kernel = cand.kernel;
  cfg.block_d = cand.block_d;
  cfg.block_n = cand.block_n;
  cfg.isa = cand.isa;
  cfg.tune = TuneMode::Off;
}

std::string to_string(TuneSource s) {
  switch (s) {
    case TuneSource::Caller: return "caller";
    case TuneSource::Model: return "model";
    case TuneSource::Empirical: return "empirical";
    case TuneSource::Cache: return "cache";
  }
  return "?";
}

TuneMode parse_tune_mode(const std::string& s) {
  if (s == "off") return TuneMode::Off;
  if (s == "model") return TuneMode::Model;
  if (s == "empirical") return TuneMode::Empirical;
  if (s == "cached") return TuneMode::Cached;
  throw invalid_argument_error("unknown tune mode '" + s +
                               "' (off|model|empirical|cached)");
}

template <typename T>
std::string matrix_fingerprint(const CscMatrix<T>& a, index_t d) {
  // Exact (m, n) — they set the loop bounds — and coarse buckets for what
  // only matters logarithmically: d (power of two), density (decade), and
  // the row-degree pattern (quarters of cv, tenths of the fractions). Two
  // problems sharing a fingerprint are expected to share a winning
  // configuration.
  const double rho = a.density();
  const long long d_lg =
      d > 0 ? std::llround(std::log2(static_cast<double>(d))) : 0;
  const long long rho_lg =
      rho > 0.0 ? std::llround(std::log10(rho)) : -99;
  const RowDegreeStats st = row_degree_stats(a);
  std::ostringstream os;
  os << "m=" << a.rows() << ";n=" << a.cols() << ";w=" << sizeof(T)
     << ";dlg=" << d_lg << ";rlg=" << rho_lg
     << ";cv4=" << std::llround(st.cv * 4.0)
     << ";e10=" << std::llround(st.empty_fraction * 10.0)
     << ";x10=" << std::llround(st.max_fraction * 10.0);
  return os.str();
}

template <typename T>
std::vector<TuneCandidate> tuner_candidates(const SketchConfig& cfg,
                                            const CscMatrix<T>& a) {
  SketchConfig model = cfg;
  autotune_blocks(model, a);
  const index_t d = std::max<index_t>(1, cfg.d);
  const index_t n = std::max<index_t>(1, a.cols());
  std::vector<index_t> bds, bns;
  for (index_t bd : {model.block_d / 2, model.block_d, model.block_d * 2}) {
    bd = std::clamp<index_t>(bd, 1, d);
    if (std::find(bds.begin(), bds.end(), bd) == bds.end()) bds.push_back(bd);
  }
  for (index_t bn : {model.block_n / 2, model.block_n, model.block_n * 2}) {
    bn = std::clamp<index_t>(bn, 1, n);
    if (std::find(bns.begin(), bns.end(), bn) == bns.end()) bns.push_back(bn);
  }
  std::vector<TuneCandidate> out;
  const index_t model_bd = std::clamp<index_t>(model.block_d, 1, d);
  const index_t model_bn = std::clamp<index_t>(model.block_n, 1, n);
  for (KernelVariant k : {KernelVariant::Kji, KernelVariant::Jki}) {
    for (index_t bd : bds) {
      for (index_t bn : bns) {
        out.push_back({k, bd, bn, cfg.isa});
      }
    }
    // The supported micro-kernel tiers below the auto pick, also only at
    // the model blocks. Auto already dispatches the widest tier, so only
    // the alternates need timing — narrower vectors do occasionally win
    // (e.g. where 512-bit turbo licensing bites), and then the pilot should
    // find it rather than anyone guessing.
    const microkernel::Isa resolved = microkernel::resolve(cfg.isa);
    for (microkernel::Isa isa :
         {microkernel::Isa::Scalar, microkernel::Isa::Avx2,
          microkernel::Isa::Avx512}) {
      if (isa == resolved || !microkernel::supported(isa)) continue;
      out.push_back({k, model_bd, model_bn, isa});
    }
  }
  return out;
}

std::string tuning_cache_path() {
  const std::string env = env_string("RSKETCH_TUNE_CACHE", "");
  if (!env.empty()) return env;
  const std::string xdg = env_string("XDG_CACHE_HOME", "");
  if (!xdg.empty()) return xdg + "/rsketch/tuning.json";
  const std::string home = env_string("HOME", "");
  if (!home.empty()) return home + "/.cache/rsketch/tuning.json";
  return "./rsketch_tuning.json";
}

TuningCache TuningCache::load(const std::string& path) {
  TuningCache cache;
  std::ifstream in(path);
  if (!in) return cache;  // absent file: empty cache, still ok()
  std::ostringstream buf;
  buf << in.rdbuf();
  perf::Json doc;
  try {
    doc = perf::Json::parse(buf.str());
  } catch (const io_error&) {
    cache.ok_ = false;
    return cache;
  }
  const perf::Json* version = doc.find("schema_version");
  const perf::Json* entries = doc.find("entries");
  if (version == nullptr || !version->is_int() || version->as_int() != 1 ||
      entries == nullptr || !entries->is_object()) {
    cache.ok_ = false;
    return cache;
  }
  for (const auto& [key, e] : entries->members()) {
    if (!e.is_object()) continue;  // stale entry: drop, re-tune on demand
    const perf::Json* kernel = e.find("kernel");
    const perf::Json* bd = e.find("block_d");
    const perf::Json* bn = e.find("block_n");
    Entry entry;
    if (kernel == nullptr || !kernel->is_string() ||
        !parse_kernel_token(kernel->as_string(), &entry.cand.kernel)) {
      continue;
    }
    if (bd == nullptr || !bd->is_number() || bd->as_int() < 1 ||
        bn == nullptr || !bn->is_number() || bn->as_int() < 1) {
      continue;
    }
    entry.cand.block_d = static_cast<index_t>(bd->as_int());
    entry.cand.block_n = static_cast<index_t>(bn->as_int());
    // Optional since the micro-kernel layer landed: absent (pre-ISA entry)
    // decodes to Auto — still schema_version 1, old caches stay valid.
    if (const perf::Json* isa = e.find("isa"); isa != nullptr) {
      if (!isa->is_string() ||
          !microkernel::parse_isa(isa->as_string(), &entry.cand.isa)) {
        continue;  // unknown tier token: stale entry, re-tune on demand
      }
    }
    if (const perf::Json* ps = e.find("pilot_seconds");
        ps != nullptr && ps->is_number()) {
      entry.pilot_seconds = ps->as_double();
    }
    cache.entries_.emplace_back(key, entry);
  }
  return cache;
}

bool TuningCache::lookup(const std::string& key, TuneCandidate* out) const {
  for (const auto& [k, e] : entries_) {
    if (k == key) {
      *out = e.cand;
      return true;
    }
  }
  return false;
}

void TuningCache::store(const std::string& key, const TuneCandidate& cand,
                        double pilot_seconds) {
  for (auto& [k, e] : entries_) {
    if (k == key) {
      e = Entry{cand, pilot_seconds};
      return;
    }
  }
  entries_.emplace_back(key, Entry{cand, pilot_seconds});
}

bool TuningCache::save(const std::string& path) const {
  perf::Json doc = perf::Json::object();
  doc["schema_version"] = 1;
  perf::Json entries = perf::Json::object();
  for (const auto& [key, e] : entries_) {
    perf::Json j = perf::Json::object();
    j["kernel"] = kernel_token(e.cand.kernel);
    j["block_d"] = static_cast<long long>(e.cand.block_d);
    j["block_n"] = static_cast<long long>(e.cand.block_n);
    j["isa"] = microkernel::to_string(e.cand.isa);
    j["pilot_seconds"] = e.pilot_seconds;
    entries[key] = std::move(j);
  }
  doc["entries"] = std::move(entries);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << doc.dump(2) << "\n";
  return static_cast<bool>(out);
}

template <typename T>
SketchConfig resolve_tuning(const SketchConfig& cfg, const CscMatrix<T>& a,
                            TuneDecision* decision) {
  TuneDecision local;
  TuneDecision& dec = decision != nullptr ? *decision : local;
  dec = TuneDecision{};
  dec.choice = {cfg.kernel, cfg.block_d, cfg.block_n, cfg.isa};
  SketchConfig eff = cfg;
  eff.tune = TuneMode::Off;
  // Degenerate problems (nothing to sketch, or nothing to tune over) are
  // dispatched verbatim — the kernels handle them in microseconds anyway.
  if (cfg.tune == TuneMode::Off || cfg.d < 1 || a.cols() < 1 ||
      a.nnz() == 0) {
    return eff;
  }
  perf::Span span("tuner/resolve");
  if (cfg.tune == TuneMode::Model) {
    resolve_model(cfg, a, eff, dec);
    return eff;
  }
  if (cfg.tune == TuneMode::Empirical) {
    resolve_empirical(cfg, a, eff, dec);
    return eff;
  }
  // TuneMode::Cached.
  dec.key = machine_signature() + "#" + matrix_fingerprint(a, cfg.d);
  const std::string path = tuning_cache_path();
  std::lock_guard<std::mutex> lock(g_cache_mutex);
  TuningCache cache = TuningCache::load(path);
  if (!cache.ok()) {
    // A corrupt or stale cache must not take the sketch down, silently
    // mistune it, or get clobbered before someone can look at it.
    env_warn_once("RSKETCH_TUNE_CACHE", path.c_str(),
                  "corrupt or stale tuning cache; falling back to model "
                  "tuning");
    perf::add(perf::Counter::TunerCacheMisses, 1);
    resolve_model(cfg, a, eff, dec);
    return eff;
  }
  TuneCandidate cached;
  if (cache.lookup(dec.key, &cached)) {
    perf::add(perf::Counter::TunerCacheHits, 1);
    perf::add_span("tuner/cache_hit", 0.0);
    apply_candidate(eff, cached);
    dec.choice = cached;
    dec.source = TuneSource::Cache;
    return eff;
  }
  perf::add(perf::Counter::TunerCacheMisses, 1);
  resolve_empirical(cfg, a, eff, dec);
  if (dec.source == TuneSource::Empirical) {
    cache.store(dec.key, dec.choice, dec.pilot_seconds);
    cache.save(path);  // best effort, like the perf reports
  }
  return eff;
}

#define RSKETCH_INSTANTIATE(T)                                           \
  template std::string matrix_fingerprint<T>(const CscMatrix<T>&,        \
                                             index_t);                   \
  template std::vector<TuneCandidate> tuner_candidates<T>(               \
      const SketchConfig&, const CscMatrix<T>&);                         \
  template SketchConfig resolve_tuning<T>(const SketchConfig&,           \
                                          const CscMatrix<T>&,           \
                                          TuneDecision*);

RSKETCH_INSTANTIATE(float)
RSKETCH_INSTANTIATE(double)
#undef RSKETCH_INSTANTIATE

}  // namespace rsketch
