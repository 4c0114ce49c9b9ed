#ifndef SRC_DIST_COORDINATOR_H_
#define SRC_DIST_COORDINATOR_H_

#include <string>
#include <vector>

#include "src/dist/shard.h"
#include "src/gauntlet/campaign.h"
#include "src/testgen/testgen.h"

namespace gauntlet {

// ---------------------------------------------------------------------------
// The shard coordinator: the fleet driver for a distributed campaign.
//
// Partitions [0, N) into contiguous shards (PartitionIndexSpace), runs each
// shard — in-process, or as a child `gauntlet shard-worker` process — and
// merges the shard results in shard-index order:
//
//   * reports     CampaignReport::Merge, shard order == global index order;
//   * metrics     MetricsRegistry::MergeFrom (sums/maxes commute);
//   * coverage    CoverageMap::MergeFrom (counts sum);
//   * corpora     MergeCorpusStores (manifest union, earliest shard wins);
//   * caches      MergeValidationCacheFiles (fingerprint dedup).
//
// then performs the single report fold (RunSinks::Fold) a one-process run
// would perform. The deterministic sections of the merged
// report, metrics.json, coverage.json and the corpus manifest are therefore
// byte-identical to a single-process run of the same N/seed for ANY shard
// topology x --jobs combination, cache on or off — the CI shard-identity
// gate diffs exactly that.
// ---------------------------------------------------------------------------

struct ShardCoordinatorOptions {
  // The full campaign (N = campaign.num_programs, the global index space).
  // campaign.sinks receives the merged-and-folded telemetry; it must not
  // collect a trace (traces are per-process, never sharded).
  CampaignOptions campaign;
  int shards = 1;
  int jobs = 1;  // worker threads per shard
  // Final merged corpus / cache-file destinations; empty = off.
  std::string corpus_dir;
  std::string cache_file;
  // Where per-shard artifacts (result files, shard corpora, shard cache
  // copies) live. Empty = a private directory under the system temp dir,
  // removed after a successful merge; non-empty = kept for inspection.
  std::string scratch_dir;
  // Path to a `gauntlet` binary: shards run as child `shard-worker`
  // processes. Empty = shards run in-process (the results still round-trip
  // through their on-disk files, so both modes exercise the full worker
  // protocol).
  std::string worker_binary;
  // Extra argv entries forwarded verbatim to every child (subprocess mode
  // only): --bug/--targets/--no-cache/--no-budgets and friends. The
  // coordinator owns the topology flags; the caller owns the campaign
  // flags.
  std::vector<std::string> worker_flags;
  // Live fleet telemetry (src/obs/snapshot.h, src/obs/health.h). When
  // non-empty, the coordinator publishes its own snapshot/heartbeat here,
  // points shard i at the `shard-<i>` subdirectory (both child-process and
  // in-process modes), and aggregates the shard heartbeats into a
  // fleet-wide view — flagging stalled/dead shards — in its snapshot.
  // Observation-only: deterministic outputs are byte-identical with this
  // on or off.
  std::string status_dir;
  int snapshot_interval_ms = 1000;
  // A shard whose heartbeat goes quiet for this long (while its process is
  // still alive) is flagged stalled in the fleet view.
  uint64_t stall_threshold_ms = 10000;
};

// The satellite auto-tuner: observed per-shard yield turned into an
// advisory testgen-budget suggestion. Integer fixed-point (x100) so the
// advice itself is deterministic; it is printed to stderr only and never
// enters the report, metrics or coverage — deterministic sections are
// unaffected.
struct BudgetSuggestion {
  uint64_t tests_per_program_x100 = 0;     // overall mean
  uint64_t findings_per_program_x100 = 0;  // overall mean
  uint64_t min_shard_tests_x100 = 0;       // leanest shard's mean
  uint64_t max_shard_tests_x100 = 0;       // richest shard's mean
  size_t current_max_tests = 0;
  size_t suggested_max_tests = 0;

  bool changed() const { return suggested_max_tests != current_max_tests; }
  // The advisory block, one "budget: ..." line per fact.
  std::string ToString() const;
};

// Suggests a max_tests budget from per-shard yield: a shard whose mean
// tests/program reaches 7/8 of the budget is likely truncating paths
// (suggest doubling); an overall mean under a quarter of the budget leaves
// headroom to halve (floor 8). Shards that ran zero programs are ignored.
BudgetSuggestion SuggestBudgets(const TestGenOptions& testgen,
                                const std::vector<ShardResult>& shards);

struct CoordinatorOutcome {
  CampaignReport report;  // merged across shards, folded once
  CacheStats cache_stats;
  BudgetSuggestion suggestion;
  std::vector<ShardRange> shard_ranges;  // the topology that ran
};

// Runs the fleet. Throws CompileError when a worker fails (nonzero exit,
// missing result file, malformed result). The `gauntlet campaign --shards`
// entry point.
CoordinatorOutcome RunShardCoordinator(const ShardCoordinatorOptions& options,
                                       const BugConfig& bugs);

}  // namespace gauntlet

#endif  // SRC_DIST_COORDINATOR_H_
