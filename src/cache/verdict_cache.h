#ifndef SRC_CACHE_VERDICT_CACHE_H_
#define SRC_CACHE_VERDICT_CACHE_H_

#include <map>
#include <string>
#include <unordered_map>

#include "src/cache/struct_hash.h"
#include "src/cache/summary_cache.h"
#include "src/tv/validator.h"

namespace gauntlet {

struct BlockSemantics;
class MetricsRegistry;

// Counters describing what the memoization subsystem saved. Aggregated
// per worker and surfaced by `gauntlet ... --cache-stats`; never part of a
// campaign report (hit patterns depend on work scheduling, reports must
// stay bit-identical for any --jobs value).
struct CacheStats {
  // Retired with the blast-template cache: always 0, kept for callers that
  // still read them. Nothing records, merges or serializes them.
  uint64_t blast_hits = 0;
  uint64_t blast_misses = 0;
  uint64_t verdict_hits = 0;        // pass pairs answered from the cache
  uint64_t verdict_misses = 0;      // pass pairs that ran their queries
  uint64_t queries_skipped = 0;     // SAT queries avoided by verdict hits
  uint64_t pairs_short_circuited = 0;  // canonically identical (before, after)
  uint64_t summary_hits = 0;    // blocks whose interpretation was memoized
  uint64_t summary_misses = 0;  // blocks interpreted and recorded
  uint64_t summary_fps_reused = 0;  // canonical DAG hashes skipped via the
                                    // persisted key → fingerprint table

  void Merge(const CacheStats& other);

  // Folds the counters into `registry` under stable `cache/...` names
  // (timing scope — hit patterns are schedule-dependent, see above).
  void RecordMetrics(MetricsRegistry& registry) const;

  // Stable key-sorted rendering, one `cache/<counter> <value>` line per
  // counter — greppable in scripts and diffable in CI.
  std::string ToString() const;
};

// Caches the outcome of whole equivalence queries: the verdict the
// validator reached for a (before, after) semantics pair, keyed by the
// pair's canonical fingerprints. A later pair whose fingerprints match —
// the next pass changed nothing the previous query did not already cover,
// or an attribution rerun re-poses the detection-side query — skips its
// SAT work entirely.
//
// Only definitive verdicts are cached (equivalent / undef-divergence /
// semantic-diff). Budget exhaustion (kStructuralMismatch) is wall-clock
// dependent and must be re-tried, and kInvalidEmit never reaches the
// comparison. Canonical-fingerprint equality implies semantic equality, so
// a cached verdict is the verdict the queries would reach given the budget
// to finish; for repeated kSemanticDiff pairs the stored witness is reused
// rather than re-solved. The one asymmetry this layer permits: where an
// uncached run would exhaust its solver budget on a pair (reporting "a
// pass we could not validate"), a canonical hit can still return the
// proven verdict — the cache only ever upgrades budget exhaustion into a
// definitive answer, never the reverse.
class VerdictCache {
 public:
  struct Entry {
    TvPassResult result;
    // SAT queries the original comparison spent (0 when the difference
    // const-folded) — what a hit genuinely saves, for the stats.
    uint32_t queries = 0;
  };

  // Null on a miss; counts hits/misses.
  const Entry* Find(const Fingerprint& before, const Fingerprint& after);
  void Insert(const Fingerprint& before, const Fingerprint& after, TvPassResult result,
              uint32_t queries);
  // Insert under an already-combined (before, after) key — the reload path
  // of cross-run persistence, where only the combined key was stored.
  void InsertByKey(const Fingerprint& key, Entry entry) {
    entries_.emplace(key, std::move(entry));
  }
  void Clear() { entries_.clear(); }
  size_t size() const { return entries_.size(); }

  const std::unordered_map<Fingerprint, Entry, FingerprintHash>& entries() const {
    return entries_;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::unordered_map<Fingerprint, Entry, FingerprintHash> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// The canonical fingerprint of one block's input-output semantics: the
// block's output leaves, names and expressions, in order. Two semantics
// with equal fingerprints are input-output equivalent (commutative
// reassociation included). Callers must not fingerprint semantics the
// interpreter failed to produce — BlockSemantics carries no failure flag,
// so two distinct failures would hash equal (the validator checks its
// version-level failure state before fingerprinting).
Fingerprint SemanticsFingerprint(StructHasher& hasher, const BlockSemantics& semantics);

// Everything one campaign worker (or one CLI invocation) threads through
// validation and test generation. Verdict entries are scoped to one
// program via BeginProgram(): cross-program verdict reuse would make a
// worker's answers depend on which programs it happened to process, and
// parallel campaign reports must stay bit-identical for any scheduling.
//
// Cross-run persistence (src/cache/cache_file) keeps that scoping: stored
// verdicts are grouped under a caller-supplied *program key* (a content hash
// of the program), and BeginProgram(key) preloads exactly that program's
// stored entries — a warm worker answers a program's queries from what any
// previous run learned about *that program*, never from a neighbour.
class ValidationCache {
 public:
  VerdictCache& verdicts() { return verdicts_; }
  SummaryCache& summaries() { return summaries_; }

  // Starts a new program scope. Key 0 = anonymous: verdicts are cleared but
  // nothing is stored or preloaded. A non-zero key archives the finished
  // program's verdicts under its key and preloads any stored entries for
  // the new one.
  void BeginProgram(uint64_t program_key = 0);

  // Archives the open program's verdicts (call before serializing).
  void Seal() { FlushProgramVerdicts(); }

  // The reload path: installs one stored verdict under `program_key`.
  void PreloadVerdict(uint64_t program_key, const Fingerprint& key, VerdictCache::Entry entry);

  // Stored verdicts, grouped by program key in key order (deterministic
  // serialization).
  const std::map<uint64_t, std::map<Fingerprint, VerdictCache::Entry>>& stored_verdicts()
      const {
    return stored_verdicts_;
  }

  // Counters accumulated since construction (verdict-layer counters are
  // kept across BeginProgram).
  CacheStats Stats() const;
  void CountSkippedQueries(uint64_t queries) { queries_skipped_ += queries; }
  void CountShortCircuit() { ++pairs_short_circuited_; }

 private:
  void FlushProgramVerdicts();

  VerdictCache verdicts_;
  SummaryCache summaries_;
  uint64_t current_program_key_ = 0;
  // Verdicts archived per program key; ordered maps so serialization is
  // deterministic for any insertion order.
  std::map<uint64_t, std::map<Fingerprint, VerdictCache::Entry>> stored_verdicts_;
  uint64_t queries_skipped_ = 0;
  uint64_t pairs_short_circuited_ = 0;
};

}  // namespace gauntlet

#endif  // SRC_CACHE_VERDICT_CACHE_H_
