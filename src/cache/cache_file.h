#ifndef SRC_CACHE_CACHE_FILE_H_
#define SRC_CACHE_CACHE_FILE_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace gauntlet {

class ValidationCache;

// ---------------------------------------------------------------------------
// Cross-run cache persistence (first cut).
//
// Serializes the two cache layers whose contents are sound across processes:
//
//   * verdict entries — whole equivalence answers keyed by canonical
//     (before, after) fingerprints, stored *grouped by program key* so the
//     reload preserves the per-program scoping that keeps campaign reports
//     bit-identical for any scheduling;
//   * block-summary fingerprints — summary key → canonical semantics
//     fingerprint, so a warm run skips re-hashing unchanged blocks.
//
// The format is a versioned line-oriented text file ("gauntletcache 3");
// strings are hex-encoded so details and witness variable names round-trip
// byte-exactly. Versions 1 and 2 still load; the blast-template section they
// carry is validated and dropped. Malformed input fails loudly with
// CompileError — a corrupt warm-start file silently ignored would make CI
// timings lie.
// ---------------------------------------------------------------------------

// Seals and serializes the given caches into one stream, deduplicating by
// key (first cache wins). This is how a parallel campaign merges its
// per-worker caches into one warm-start file.
void SaveValidationCaches(const std::vector<ValidationCache*>& caches, std::ostream& out);

// Parses a stream produced by SaveValidationCaches into `cache` (verdicts
// into the per-program store, fingerprints into the summary layer). Throws
// CompileError with a line number on malformed input.
void LoadValidationCache(std::istream& in, ValidationCache& cache);

// File wrappers. Load returns false when the file does not exist (a cold
// start, not an error); Save throws CompileError when the path cannot be
// written.
bool LoadValidationCacheFile(const std::string& path, ValidationCache& cache);
void SaveValidationCacheFile(const std::string& path,
                             const std::vector<ValidationCache*>& caches);

// Merges several cache files into `destination`: each existing source loads
// into its own cache and the set re-serializes with SaveValidationCaches'
// key dedup (first source wins). Missing sources are skipped (a shard that
// never wrote its cache is a cold shard, not an error); corrupt sources
// fail loudly like any other load. Returns the number of files read. How a
// shard coordinator (src/dist/) folds per-shard cache files back into the
// campaign's one --cache-file.
int MergeValidationCacheFiles(const std::string& destination,
                              const std::vector<std::string>& sources);

}  // namespace gauntlet

#endif  // SRC_CACHE_CACHE_FILE_H_
