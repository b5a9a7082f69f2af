// Empirical autotuner with a persistent tuning cache (docs/AUTOTUNING.md).
//
// The §III-A model behind suggest_blocks() is open-loop: it predicts a good
// (b_d, b_n) but never checks the prediction against this machine and this
// sparsity pattern. The tuner closes the loop: it seeds a candidate set from
// the model (± neighbors in b_d/b_n, both kernel variants and ISA tiers),
// times each candidate on a small pilot sub-sketch, and
// dispatches the winner. The caller's distribution, backend and seed are
// never part of the search: the tuner changes how S is applied, never which
// generator produces it. Winners persist in a JSON cache keyed by (machine
// signature, matrix fingerprint) so repeated runs skip re-timing entirely —
// a cache hit is O(1) plus one O(nnz) fingerprint pass.
//
// Every decision is observable: tuner/* perf spans plus the
// tuner_cache_hits / tuner_cache_misses / tuner_candidates_timed counters.
#pragma once

#include <string>
#include <vector>

#include "sketch/config.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// One dispatch candidate the tuner considers.
struct TuneCandidate {
  KernelVariant kernel = KernelVariant::Kji;
  index_t block_d = 1;
  index_t block_n = 1;
  /// Micro-kernel ISA tier (dense/microkernel.hpp). Auto — the default and
  /// what old cache entries decode to — means "resolve at dispatch", so the
  /// tuner only pins a tier when a non-default one actually won a pilot.
  microkernel::Isa isa = microkernel::Isa::Auto;

  /// Compact stable label: "kji/3000x500/auto" (kernel/blocks/isa; cache +
  /// logs). The block schedule is not a candidate axis: it is always the
  /// LPT partition of sketch/schedule.hpp.
  std::string label() const;
};

/// Dispatch `cand` under `cfg`: copy its fields into cfg and turn tuning
/// off. Everything else — the caller's dist, backend and seed — is kept.
void apply_candidate(SketchConfig& cfg, const TuneCandidate& cand);

/// Where the dispatched configuration came from.
enum class TuneSource {
  Caller,     ///< tuning off or not applicable; cfg used verbatim
  Model,      ///< suggest_blocks() prediction
  Empirical,  ///< pilot-timed winner
  Cache       ///< persisted winner, no re-timing
};

std::string to_string(TuneSource s);

/// The tuner's decision for one (machine, matrix, config) triple.
struct TuneDecision {
  TuneCandidate choice;
  TuneSource source = TuneSource::Caller;
  std::string key;             ///< cache key the decision maps to ("" if n/a)
  double pilot_seconds = 0.0;  ///< winner's best pilot time (empirical only)
  int candidates_timed = 0;    ///< pilot runs performed (0 on cache hit)
};

/// Parse "off" | "model" | "empirical" | "cached" (sketch_tool --tune).
/// Throws invalid_argument_error on anything else.
TuneMode parse_tune_mode(const std::string& s);

/// Bucketized fingerprint of a sketching problem: exact (m, n), log2 bucket
/// of d, log10 bucket of density, and coarse row-degree pattern stats
/// (analysis/pattern.hpp). Two problems with the same fingerprint are
/// expected to share a winning configuration.
template <typename T>
std::string matrix_fingerprint(const CscMatrix<T>& a, index_t d);

/// Candidate set for the empirical search: the model suggestion ± one
/// multiplicative neighbor in each of b_d and b_n, crossed with both kernel
/// variants, plus the model blocks under the other supported ISA tiers.
/// Deduplicated; never empty for valid inputs.
template <typename T>
std::vector<TuneCandidate> tuner_candidates(const SketchConfig& cfg,
                                            const CscMatrix<T>& a);

/// Resolve cfg against `a` under cfg.tune, returning the effective config
/// (with tune == Off so it dispatches directly). Never throws on cache
/// trouble: a corrupt or stale cache file warns once (support/env.hpp
/// machinery) and degrades to model tuning. Optionally reports how the
/// decision was reached through `decision`.
template <typename T>
SketchConfig resolve_tuning(const SketchConfig& cfg, const CscMatrix<T>& a,
                            TuneDecision* decision = nullptr);

/// Resolved location of the persistent cache: $RSKETCH_TUNE_CACHE, else
/// $XDG_CACHE_HOME/rsketch/tuning.json, else ~/.cache/rsketch/tuning.json,
/// else ./rsketch_tuning.json.
std::string tuning_cache_path();

/// In-memory image of the persistent tuning cache (schema_version 1):
///   {"schema_version": 1, "entries": {"<machine>#<fingerprint>": {
///      "kernel": "kji", "block_d": 3000, "block_n": 500, "isa": "auto",
///      "pilot_seconds": 1.2e-3}}}
/// Entries written before the backend and schedule axes were removed carry
/// "backend" and "schedule" fields; load() ignores both, so those files
/// still load and hit.
class TuningCache {
 public:
  /// Missing file → empty cache (ok()). Unreadable/corrupt/wrong-schema
  /// file → empty cache with ok() == false, so callers can warn and avoid
  /// clobbering the file.
  static TuningCache load(const std::string& path);

  /// True when the backing file was absent or parsed cleanly.
  bool ok() const { return ok_; }

  /// Entry lookup; false when absent or structurally invalid (stale).
  bool lookup(const std::string& key, TuneCandidate* out) const;

  void store(const std::string& key, const TuneCandidate& cand,
             double pilot_seconds);

  /// Best-effort write (directories created). False on I/O failure.
  bool save(const std::string& path) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    TuneCandidate cand;
    double pilot_seconds = 0.0;
  };
  std::vector<std::pair<std::string, Entry>> entries_;
  bool ok_ = true;
};

extern template std::string matrix_fingerprint<float>(const CscMatrix<float>&,
                                                      index_t);
extern template std::string matrix_fingerprint<double>(
    const CscMatrix<double>&, index_t);
extern template std::vector<TuneCandidate> tuner_candidates<float>(
    const SketchConfig&, const CscMatrix<float>&);
extern template std::vector<TuneCandidate> tuner_candidates<double>(
    const SketchConfig&, const CscMatrix<double>&);
extern template SketchConfig resolve_tuning<float>(const SketchConfig&,
                                                   const CscMatrix<float>&,
                                                   TuneDecision*);
extern template SketchConfig resolve_tuning<double>(const SketchConfig&,
                                                    const CscMatrix<double>&,
                                                    TuneDecision*);

}  // namespace rsketch
