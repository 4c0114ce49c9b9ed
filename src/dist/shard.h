#ifndef SRC_DIST_SHARD_H_
#define SRC_DIST_SHARD_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/cache/verdict_cache.h"
#include "src/gauntlet/campaign.h"
#include "src/obs/coverage.h"
#include "src/obs/metrics.h"
#include "src/runtime/parallel_campaign.h"

namespace gauntlet {

// ---------------------------------------------------------------------------
// One shard of a distributed campaign (ROADMAP "campaign-as-a-service").
//
// A shard is a contiguous slice [begin, end) of the program-index space
// [0, N). Per-program seeds derive from the *global* index
// (ParallelCampaign::ProgramSeed), so a shard reproduces exactly the
// programs — and findings — the single-process run assigns to that range,
// and a coordinator merging shard results in shard-index order reproduces
// the single-process report, metrics and coverage byte-identically.
// ---------------------------------------------------------------------------

struct ShardRange {
  int index = 0;  // shard number in [0, shards)
  int begin = 0;  // first global program index (inclusive)
  int end = 0;    // one past the last global program index

  int size() const { return end - begin; }
};

// Splits [0, total) into `shards` contiguous ranges whose sizes differ by
// at most one, earlier shards taking the extra program. `shards` may exceed
// `total`; the surplus shards come back empty (a worker running zero
// programs is a no-op, not an error).
std::vector<ShardRange> PartitionIndexSpace(int total, int shards);

// Everything one shard worker hands back to the coordinator: the unfolded
// campaign report (global indices throughout), the raw merged per-worker
// telemetry, and the cache counters. "Unfolded" means RunSinks::Fold has
// NOT been applied — the distinct-bug domains it computes do not sum
// across shards, so the coordinator folds exactly once on the cross-shard
// merged report, the same single fold a one-process run performs.
struct ShardResult {
  ShardRange range;
  CampaignReport report;
  MetricsRegistry metrics;
  CoverageMap coverage;
  CacheStats cache_stats;
};

// Versioned line-oriented serialization ("gauntletshard 2", hex-encoded
// strings — the src/cache/cache_file format family). Findings round-trip
// without their repro_test packets: corpus triples are written shard-side,
// so the coordinator needs findings only for the merged report and the
// single fold. Malformed input fails loudly with CompileError.
void SaveShardResult(const ShardResult& result, std::ostream& out);
ShardResult LoadShardResult(std::istream& in);

// File wrappers; both throw CompileError (Load also on a missing file — a
// worker that exited 0 without writing its result is a protocol violation,
// not a cold start).
void SaveShardResultFile(const std::string& path, const ShardResult& result);
ShardResult LoadShardResultFile(const std::string& path);

// Runs one shard in-process: `options` (seed, budgets, targets, cache
// switch, jobs, shard-private corpus/cache file/status dir) as a
// ParallelCampaign over `range` — campaign.num_programs is ignored, the
// range is authoritative. The worker protocol always carries telemetry: the
// shard collects metrics and coverage into options.campaign.sinks (turning
// them on there) or, when that is null, into a bundle of its own, and the
// result carries them unfolded. This is also the body of the
// `gauntlet shard-worker` verb.
ShardResult RunShardWorker(const ParallelCampaignOptions& options, ShardRange range,
                           const BugConfig& bugs);

}  // namespace gauntlet

#endif  // SRC_DIST_SHARD_H_
