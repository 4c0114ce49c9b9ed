#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/verdict_cache.h"
#include "src/gauntlet/campaign.h"

namespace perfbench {

// The answers a workload's verdicts must reproduce. Every count is a
// deterministic output of the campaign (budgets are off), so any drift is a
// correctness failure, not noise.
struct KnownAnswers {
  int findings = 0;
  std::set<std::string> detected;  // distinct attributed faults, by name
  int undef_divergences = 0;
  // Pass-pair verdicts, checked by the traced run (the untraced campaign
  // report does not carry per-pair verdicts).
  int pairs = 0;
  int pairs_equivalent = 0;
  int pairs_undef = 0;
  int pairs_semantic_diff = 0;
};

// One fixed campaign. The programs come from `seed` (or `held_out_seed`
// with --held-out); the seeded faults and the driver topology are part of
// the workload's definition.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  uint64_t held_out_seed = 0;
  int programs = 0;
  std::vector<std::string> bugs;  // catalogue names, `gauntlet bugs` order
  // 0 = one ParallelCampaign with `jobs` workers; otherwise an in-process
  // RunShardCoordinator with this many shards of `jobs` workers each, with
  // corpus dir, cache file and status dir on.
  int shards = 0;
  int jobs = 1;
  // Per-program latency tail: the highest percentile with at least ten of
  // one campaign's programs beyond it.
  double tail_percentile = 95;
  // Programs that take most of a campaign (the heavy-tail query), for
  // `seed` and `held_out_seed`. A one-worker run re-runs the other
  // programs, in index ranges around these, to time them more often than
  // whole campaigns would allow.
  std::vector<int> dominant_programs;
  std::vector<int> held_out_dominant_programs;
  KnownAnswers answers;
  KnownAnswers held_out_answers;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// The campaign options every run of `workload` uses: all targets, cache
// on, and every wall-clock budget at 0 (as `--no-budgets` sets them), so
// verdicts and work counters depend only on the programs.
gauntlet::CampaignOptions MakeCampaignOptions(const Workload& workload, uint64_t seed);
gauntlet::BugConfig MakeBugs(const Workload& workload);

// Where one campaign run keeps its files (fault-fleet only; a
// ParallelCampaign workload writes nothing).
struct RunDirs {
  std::string root;
  std::string corpus;
  std::string cache_file;
  std::string status;
  std::string shards;
};
RunDirs MakeRunDirs(const std::string& root);

// One untraced campaign run through the workload's real driver.
struct CampaignRun {
  gauntlet::CampaignReport report;
  gauntlet::CacheStats cache_stats;
  double wall_s = 0;
  double cpu_s = 0;  // user + sys of this process over the run
  // Per-program latency (generate + test), from the progress callback: the
  // time since the same worker's previous completion, or since its shard
  // started for a worker's first program.
  std::vector<double> program_ms;
  bool threw = false;
  std::string error;
};

// Runs `programs` programs (0 = the set-up-only run used for setup_s) in a
// fresh `dirs.root`, starting at global program index `index_begin` (a
// one-worker workload only). Never throws: a driver exception is reported
// in `threw`/`error`.
CampaignRun RunCampaign(const Workload& workload, uint64_t seed, int programs,
                        const RunDirs& dirs, int index_begin = 0);

// The contiguous [begin, end) index ranges of [0, programs) that leave out
// the dominant programs.
std::vector<std::pair<int, int>> LightRanges(int programs, const std::vector<int>& dominant);

// Process user + sys CPU seconds so far.
double ProcessCpuSeconds();
// Process peak resident set size in MiB.
double PeakRssMb();

// Compares a run's report against the known answers; returns one line per
// mismatch (empty = correct).
std::vector<std::string> CheckReport(const Workload& workload, const KnownAnswers& answers,
                                     const CampaignRun& run);

// Programs that failed: all of them when the driver threw, otherwise at most
// one per structural-mismatch pair (the report does not say which pairs
// exhausted a budget, so every mismatch counts against one program).
int FailedPrograms(const CampaignRun& run, int programs);

// Compares the findings of a run over [begin, end) with the findings a full
// campaign made on those programs; returns one line per mismatch.
std::vector<std::string> CheckRangeFindings(const gauntlet::CampaignReport& full,
                                            const CampaignRun& range, int begin, int end);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
