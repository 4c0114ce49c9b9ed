#include "perfbench/workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "src/dist/coordinator.h"
#include "src/dist/shard.h"
#include "src/runtime/parallel_campaign.h"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using gauntlet::BugIdFromString;
using gauntlet::BugIdToString;

namespace {

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> all;

  // ROADMAP's W1: the everyday fault-free campaign.
  Workload typical;
  typical.name = "typical";
  typical.seed = 11;
  typical.held_out_seed = 12;
  typical.programs = 200;
  typical.jobs = 1;
  typical.tail_percentile = 95;
  typical.answers = {0, {}, 20, 1391, 1371, 20, 0};
  typical.held_out_answers = {0, {}, 9, 1314, 1305, 9, 0};
  all.push_back(typical);

  // ROADMAP's W2: one multiplier-miter solve dominates the run.
  Workload heavy;
  heavy.name = "heavy-tail";
  heavy.seed = 7;
  heavy.held_out_seed = 5;
  heavy.programs = 40;
  heavy.bugs = {"bmv2-miss-runs-first-action", "tofino-phv-narrow-wide"};
  heavy.jobs = 1;
  heavy.tail_percentile = 75;
  heavy.dominant_programs = {18};  // its EliminateSlices multiplier miter
  heavy.held_out_dominant_programs = {36};
  heavy.answers = {8, {"bmv2-miss-runs-first-action"}, 0, 269, 269, 0, 0};
  heavy.held_out_answers = {
      10, {"bmv2-miss-runs-first-action", "tofino-phv-narrow-wide"}, 2, 281, 279, 2, 0};
  all.push_back(heavy);

  // One seeded semantic fault per component location, through the shard
  // coordinator with every file-backed layer on.
  Workload fleet;
  fleet.name = "fault-fleet";
  fleet.seed = 11;
  fleet.held_out_seed = 12;
  fleet.programs = 800;
  fleet.bugs = {"side-effect-order-swap", "predication-lost-else", "bmv2-emit-ignores-validity",
                "tofino-phv-narrow-wide", "ebpf-parser-extract-reversed"};
  fleet.shards = 2;
  fleet.jobs = 4;
  fleet.tail_percentile = 98.75;
  fleet.answers = {838,
                   {"side-effect-order-swap", "predication-lost-else",
                    "bmv2-emit-ignores-validity", "ebpf-parser-extract-reversed"},
                   66,
                   5485,
                   5266,
                   66,
                   153};
  // Seed 12 also detects tofino-phv-narrow-wide; seed 11's miss of it is a
  // blind spot of those programs, kept as it is.
  fleet.held_out_answers = {828,
                            {"side-effect-order-swap", "predication-lost-else",
                             "bmv2-emit-ignores-validity", "tofino-phv-narrow-wide",
                             "ebpf-parser-extract-reversed"},
                            59,
                            5488,
                            5296,
                            59,
                            133};
  all.push_back(fleet);
  return all;
}

// Turns progress callbacks into per-program latencies. A worker processes
// its programs one after another, so a program's latency is the time since
// the same worker's previous completion. In-process shards run one after
// another, each on a fresh worker pool, so a worker's first program is
// timed from the start of its shard: the run start for shard 0, the last
// completion of the previous shard otherwise.
class LatencyRecorder {
 public:
  LatencyRecorder(Clock::time_point start, std::vector<int> shard_sizes)
      : start_(start), shard_last_(shard_sizes.size(), start) {
    int end = 0;
    for (int size : shard_sizes) {
      end += size;
      shard_ends_.push_back(end);
    }
  }

  void Record(uint64_t done) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    size_t shard = 0;
    while (shard + 1 < shard_ends_.size() && done > static_cast<uint64_t>(shard_ends_[shard])) {
      ++shard;
    }
    const auto key = std::make_pair(shard, std::this_thread::get_id());
    auto it = worker_last_.find(key);
    const Clock::time_point begin =
        it != worker_last_.end() ? it->second : (shard == 0 ? start_ : shard_last_[shard - 1]);
    program_ms_.push_back(std::chrono::duration<double, std::milli>(now - begin).count());
    worker_last_[key] = now;
    if (now > shard_last_[shard]) {
      shard_last_[shard] = now;
    }
  }

  std::vector<double> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(program_ms_);
  }

 private:
  const Clock::time_point start_;
  std::vector<int> shard_ends_;
  std::mutex mutex_;
  std::vector<Clock::time_point> shard_last_;
  std::map<std::pair<size_t, std::thread::id>, Clock::time_point> worker_last_;
  std::vector<double> program_ms_;
};

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = BuildWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

gauntlet::CampaignOptions MakeCampaignOptions(const Workload& workload, uint64_t seed) {
  gauntlet::CampaignOptions options;
  options.seed = seed;
  options.num_programs = workload.programs;
  options.use_cache = true;
  options.tv.query_time_limit_ms = 0;
  options.tv.program_budget_ms = 0;
  options.testgen.query_time_limit_ms = 0;
  return options;
}

gauntlet::BugConfig MakeBugs(const Workload& workload) {
  gauntlet::BugConfig bugs;
  for (const std::string& name : workload.bugs) {
    bugs.Enable(*BugIdFromString(name));
  }
  return bugs;
}

RunDirs MakeRunDirs(const std::string& root) {
  RunDirs dirs;
  dirs.root = root;
  dirs.corpus = (fs::path(root) / "corpus").string();
  dirs.cache_file = (fs::path(root) / "cache.txt").string();
  dirs.status = (fs::path(root) / "status").string();
  dirs.shards = (fs::path(root) / "shards").string();
  return dirs;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

CampaignRun RunCampaign(const Workload& workload, uint64_t seed, int programs,
                        const RunDirs& dirs, int index_begin) {
  CampaignRun run;
  const gauntlet::BugConfig bugs = MakeBugs(workload);
  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::vector<int> shard_sizes;
  if (workload.shards > 0) {
    for (const gauntlet::ShardRange& range :
         gauntlet::PartitionIndexSpace(programs, workload.shards)) {
      shard_sizes.push_back(range.size());
    }
  } else {
    shard_sizes.push_back(programs);
  }
  LatencyRecorder latency(start, shard_sizes);
  try {
    gauntlet::CampaignOptions campaign = MakeCampaignOptions(workload, seed);
    campaign.num_programs = programs;
    campaign.progress = [&latency](uint64_t done, uint64_t) { latency.Record(done); };
    if (workload.shards > 0) {
      fs::create_directories(dirs.root);
      gauntlet::ShardCoordinatorOptions options;
      options.campaign = campaign;
      options.shards = workload.shards;
      options.jobs = workload.jobs;
      options.corpus_dir = dirs.corpus;
      options.cache_file = dirs.cache_file;
      options.status_dir = dirs.status;
      options.scratch_dir = dirs.shards;
      gauntlet::CoordinatorOutcome outcome = gauntlet::RunShardCoordinator(options, bugs);
      run.report = std::move(outcome.report);
      run.cache_stats = outcome.cache_stats;
    } else {
      gauntlet::ParallelCampaignOptions options;
      options.campaign = campaign;
      options.jobs = workload.jobs;
      options.index_begin = index_begin;
      run.report = gauntlet::ParallelCampaign(options).Run(bugs, &run.cache_stats);
    }
  } catch (const std::exception& error) {
    run.threw = true;
    run.error = error.what();
  }
  run.wall_s = Seconds(Clock::now() - start);
  run.cpu_s = ProcessCpuSeconds() - cpu_before;
  run.program_ms = latency.Take();
  return run;
}

std::vector<std::string> CheckReport(const Workload& workload, const KnownAnswers& answers,
                                     const CampaignRun& run) {
  std::vector<std::string> problems;
  if (run.threw) {
    problems.push_back("campaign threw: " + run.error);
    return problems;
  }
  const gauntlet::CampaignReport& report = run.report;
  const auto expect = [&problems](const std::string& what, long long got, long long want) {
    if (got != want) {
      problems.push_back(what + " = " + std::to_string(got) + ", expected " +
                         std::to_string(want));
    }
  };
  expect("programs", report.programs_generated, workload.programs);
  expect("findings", static_cast<long long>(report.findings.size()), answers.findings);
  expect("undef divergences", report.undef_divergences, answers.undef_divergences);
  expect("structural mismatches", report.structural_mismatches, 0);
  expect("unattributed components", static_cast<long long>(report.unattributed_components.size()),
         0);
  std::set<std::string> detected;
  for (const gauntlet::BugId bug : report.distinct_bugs) {
    detected.insert(BugIdToString(bug));
  }
  if (detected != answers.detected) {
    std::string got;
    for (const std::string& name : detected) {
      got += (got.empty() ? "" : ",") + name;
    }
    problems.push_back("detected set = {" + got + "} differs from the known answer");
  }
  return problems;
}

int FailedPrograms(const CampaignRun& run, int programs) {
  if (run.threw) {
    return programs;
  }
  return std::min(programs, run.report.structural_mismatches);
}

std::vector<std::pair<int, int>> LightRanges(int programs, const std::vector<int>& dominant) {
  std::vector<std::pair<int, int>> ranges;
  int begin = 0;
  for (int index = 0; index <= programs; ++index) {
    if (index == programs || std::find(dominant.begin(), dominant.end(), index) != dominant.end()) {
      if (index > begin) {
        ranges.emplace_back(begin, index);
      }
      begin = index + 1;
    }
  }
  return ranges;
}

std::vector<std::string> CheckRangeFindings(const gauntlet::CampaignReport& full,
                                            const CampaignRun& range, int begin, int end) {
  if (range.threw) {
    return {"range [" + std::to_string(begin) + ", " + std::to_string(end) +
            ") threw: " + range.error};
  }
  using Key = std::tuple<int, std::string, std::string, std::string>;
  const auto key = [](const gauntlet::Finding& finding) {
    return Key{finding.program_index, gauntlet::DetectionMethodToString(finding.method),
               finding.component,
               finding.attributed ? BugIdToString(*finding.attributed) : std::string()};
  };
  std::vector<Key> want, got;
  for (const gauntlet::Finding& finding : full.findings) {
    if (finding.program_index >= begin && finding.program_index < end) {
      want.push_back(key(finding));
    }
  }
  for (const gauntlet::Finding& finding : range.report.findings) {
    got.push_back(key(finding));
  }
  if (want != got || range.report.programs_generated != end - begin) {
    return {"range [" + std::to_string(begin) + ", " + std::to_string(end) + "): " +
            std::to_string(got.size()) + " findings over " +
            std::to_string(range.report.programs_generated) + " programs, the full campaign has " +
            std::to_string(want.size()) + " there"};
  }
  return {};
}

}  // namespace perfbench
