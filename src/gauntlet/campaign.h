#ifndef SRC_GAUNTLET_CAMPAIGN_H_
#define SRC_GAUNTLET_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/gen/generator.h"
#include "src/obs/coverage.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/passes/bugs.h"
#include "src/target/target.h"
#include "src/testgen/testgen.h"
#include "src/tv/validator.h"

namespace gauntlet {

struct CacheStats;
class RunSinks;
class ValidationCache;

// How a finding was detected — the paper's three techniques.
enum class DetectionMethod {
  kCrash,                  // random program induced abnormal termination (§4)
  kTranslationValidation,  // pass-pair equivalence failed (§5)
  kPacketTest,             // generated test case failed on a target (§6)
};

std::string DetectionMethodToString(DetectionMethod method);

// Inverse of DetectionMethodToString; nullopt for unknown text. Used when
// deserializing findings from shard-result files (src/dist/).
std::optional<DetectionMethod> DetectionMethodFromString(const std::string& text);

// One detected compiler bug occurrence.
struct Finding {
  int program_index = 0;
  DetectionMethod method = DetectionMethod::kCrash;
  BugKind kind = BugKind::kCrash;
  // The compiler component blamed: the failing pass (translation validation
  // pinpoints it, §5.2), the crash site, or the back end for black-box
  // findings.
  std::string component;
  // The seeded fault this finding was attributed to (by re-running the
  // detector with candidate faults disabled — the "fix and confirm" cycle).
  std::optional<BugId> attributed;
  std::string detail;
  // For packet-test findings: the failing test, ready for an STF corpus
  // (crash and translation-validation findings carry no packet).
  std::optional<PacketTest> repro_test;
};

struct CampaignOptions {
  uint64_t seed = 1;
  int num_programs = 50;
  GeneratorOptions generator;
  TestGenOptions testgen;
  // Budgets for the per-program translation validation runs.
  TvOptions tv;
  bool run_translation_validation = true;
  bool run_packet_tests = true;
  // Back ends to replay packet tests on, by registry name, in this order.
  // Empty means every registered target in registration order.
  std::vector<std::string> targets;
  // Attribute findings to seeded faults via delta-debugging reruns.
  bool attribute_findings = true;
  // Memoize equivalence verdicts and block summaries (src/cache/). The
  // report is identical either way; `gauntlet ... --no-cache` turns it off.
  bool use_cache = true;
  // When the campaign targets exactly one back end, shape the generated
  // fodder with that target's GeneratorBias (the §4.2 back-end-specific
  // skeleton). Off = the target-agnostic program stream.
  bool bias_generator = true;

  // --- observability (src/obs/), all optional and observation-only ---
  // Findings and reports are bit-identical with these on or off.
  //
  // The run's telemetry bundle (RunSinks below); null = no telemetry. The
  // driver installs one worker bundle per worker and merges them into it in
  // worker-index order; the run's owner folds the merged report once and
  // writes the files. Owned by the caller, must outlive the run.
  RunSinks* sinks = nullptr;
  // Called after each tested program with (programs done, findings so far).
  // May be invoked concurrently from workers; drives `--progress`.
  std::function<void(uint64_t, uint64_t)> progress;
};

// How quickly one seeded fault fell: the Klees-et-al.-style time-to-
// detection accounting. The program/test counters are deterministic (they
// derive from the schedule-independent program stream); wall_micros is
// wall-clock and legitimately varies run to run, so consumers must keep it
// in timing-scoped output only.
struct DetectionLatency {
  int first_program_index = 0;  // program whose testing first found the fault
  int tests_at_detection = 0;   // packet tests generated before that finding
  int findings = 0;             // total findings attributed to the fault
  uint64_t wall_micros = 0;     // TraceNowMicros() at the first finding
};

struct CampaignReport {
  int programs_generated = 0;
  int programs_with_crash = 0;
  int programs_with_semantic = 0;
  int tests_generated = 0;
  int undef_divergences = 0;   // "suspicious transformation" reports
  int structural_mismatches = 0;  // §8 simulation-relation false alarms
  std::vector<Finding> findings;

  // Per-fault detection latency, keyed by attributed fault. Merge keeps the
  // earliest detection (lowest program index under index-order merging).
  std::map<BugId, DetectionLatency> latency;

  // TraceNowMicros() when the driver started the run; lets RecordCoverage
  // turn the absolute wall_micros stamps into micros-since-start.
  uint64_t run_start_micros = 0;

  // Distinct confirmed bugs (by attributed fault; unattributed findings
  // count once per component string).
  std::set<BugId> distinct_bugs;
  std::set<std::string> unattributed_components;

  size_t DistinctCount() const {
    return distinct_bugs.size() + unattributed_components.size();
  }
  std::map<BugLocation, int> DistinctByLocation() const;
  std::map<BugKind, int> DistinctByKind() const;
  int CountDistinct(BugLocation location, BugKind kind) const;

  // Folds `other` into this report: counters add, findings append in
  // `other`'s order, distinct sets union. Merging per-program reports in
  // program-index order yields the same report however the programs were
  // scheduled.
  void Merge(CampaignReport&& other);

  // Folds the report's outcome counters into `registry` under `campaign/...`
  // names. Everything derived from the (schedule-independent) merged report
  // lands in the deterministic section, except structural_mismatches, which
  // includes wall-clock budget exhaustion and therefore stays timing-scoped.
  void RecordMetrics(MetricsRegistry& registry) const;

  // Folds the merged report's campaign-level domains into `map`: the
  // fault-trigger domain (seeded/detected/first_detection_index for every
  // catalogued fault — "exercised" counters are recorded per worker during
  // TestProgram) and the detection-latency domains. Deterministic except
  // detection-latency-wall, which carries the wall-clock stamps.
  void RecordCoverage(CoverageMap& map, const BugConfig& bugs) const;
};

// The run-sink bundle: a run's metrics registry, trace collector and
// coverage map, plus the files they are written to. Every driver wires its
// telemetry through one the same way — the campaign, shard-worker,
// validate/testgen/replay and serve commands, ParallelCampaign, the shard
// worker and the shard coordinator:
//
//   * Scope installs a bundle's sinks as the thread's sinks (src/obs/);
//   * a worker bundle (the two-argument constructor) collects one worker's
//     share, and Merge folds worker bundles back in worker-index order;
//   * Fold folds the merged report's campaign domains in, once per run;
//   * Write renders and writes every requested file through
//     WriteFileAtomic, fatally; Flush writes a mid-session rendering and
//     only reports failure.
class RunSinks {
 public:
  // Sinks to collect whether or not a file asks for them.
  enum Sink : unsigned { kMetrics = 1u << 0, kTrace = 1u << 1, kCoverage = 1u << 2 };
  // Output files; an empty path writes nothing.
  struct Paths {
    std::string metrics;
    std::string trace;
    std::string coverage;
  };
  // The files rendered at one instant. `metrics` is rendered whenever
  // metrics are collected (serve snapshots embed it); `trace` and
  // `coverage` only when their file is requested.
  struct Files {
    std::string metrics;
    std::string trace;
    std::string coverage;
  };
  // A merged report whose fold is still to come (a live serve session).
  struct PendingFold {
    const CampaignReport& report;
    const BugConfig& bugs;
    const CacheStats* cache_stats;
  };

  // Collects every sink whose path is set, plus those in `collect`.
  explicit RunSinks(Paths paths = {}, unsigned collect = 0);
  // Worker `index`'s bundle of `run`: its own registry and map for each of
  // those `run` collects, and a buffer of `run`'s trace collector.
  RunSinks(RunSinks& run, int index);
  // Requested files never written (the command threw first) are written
  // best-effort here: the failed runs are where telemetry helps most.
  ~RunSinks();
  RunSinks(const RunSinks&) = delete;
  RunSinks& operator=(const RunSinks&) = delete;

  // Turns on more sinks: what the bundle's owner needs beyond the files
  // (serve --status-dir embeds metrics in its snapshots; shard workers
  // always ship metrics and coverage). Call before the run starts.
  void Collect(unsigned sinks);

  // The sinks; null when off.
  MetricsRegistry* metrics() { return metrics_ ? &*metrics_ : nullptr; }
  const MetricsRegistry* metrics() const { return metrics_ ? &*metrics_ : nullptr; }
  CoverageMap* coverage() { return coverage_ ? &*coverage_ : nullptr; }
  const CoverageMap* coverage() const { return coverage_ ? &*coverage_ : nullptr; }
  TraceCollector* trace() { return trace_ ? &*trace_ : nullptr; }

  // Installs `sinks` (null = none) as this thread's sinks for a scope.
  class Scope {
   public:
    explicit Scope(RunSinks* sinks);

   private:
    ScopedMetricsSink metrics_;
    ScopedCoverageSink coverage_;
    ScopedTraceSink trace_;
  };

  // Merges a worker's (or shard's) raw telemetry into the collected sinks;
  // null arguments are skipped. Merging in worker-index order keeps the
  // deterministic sections identical for any --jobs and shard topology.
  void Merge(const MetricsRegistry* metrics, const CoverageMap* coverage);

  // The end-of-run fold, once per run, on the merged report: its
  // campaign/... counters plus, when `cache_stats` is non-null, the cache
  // counters into metrics, and the campaign-level domains into coverage.
  void Fold(const CampaignReport& report, const BugConfig& bugs, const CacheStats* cache_stats);

  // Renders the files; metrics.json carries the process's resource
  // footprint. With `pending` set and no Fold yet, metrics and coverage show
  // it folded into copies, so the in-place fold still happens only once.
  Files Render(const PendingFold* pending = nullptr) const;
  // Writes `files` to the requested paths; false when any write failed.
  bool Flush(const Files& files) const;
  // The final write: renders and writes every requested file, throwing
  // CompileError naming the first one that cannot be written.
  void Write();

 private:
  bool WritesFiles() const {
    return !paths_.metrics.empty() || !paths_.trace.empty() || !paths_.coverage.empty();
  }
  // The first requested path whose write failed; empty on success.
  std::string WriteFiles(const Files& files) const;

  Paths paths_;
  std::optional<MetricsRegistry> metrics_;
  std::optional<CoverageMap> coverage_;
  std::optional<TraceCollector> trace_;
  // What Scope installs: the root bundle's own buffer of trace_, or the
  // worker's buffer of its run's collector.
  TraceBuffer* trace_buffer_ = nullptr;
  bool folded_ = false;
  bool written_ = false;
};

// The per-program detection machinery of the end-to-end bug-finding
// campaign: translation validation over the open pass pipeline (§5) and
// generated test packets replayed on every selected registered target
// (§6). The campaign driver that generates the random programs (§4) and
// owns the program stream is ParallelCampaign (src/runtime/); its results
// feed the Table 2 / Table 3 benchmarks.
class Campaign {
 public:
  explicit Campaign(CampaignOptions options) : options_(std::move(options)) {}

  // Runs all three detection techniques on one program, recording findings
  // into `report`. Const and self-contained, so concurrent calls on one
  // Campaign are safe as long as each carries its own `cache` (or none).
  void TestProgram(const Program& program, const BugConfig& bugs, int program_index,
                   CampaignReport& report, ValidationCache* cache = nullptr) const;

  // The targets this campaign replays on (options.targets resolved against
  // the registry; throws CompileError on an unknown name).
  std::vector<const Target*> SelectedTargets() const;

  // The generator options this campaign actually runs: the configured base,
  // reshaped by the single selected target's GeneratorBias when exactly one
  // back end is targeted (and bias_generator is on).
  GeneratorOptions EffectiveGeneratorOptions() const;

 private:
  void AttributeCrash(Finding& finding, const std::string& message) const;
  void AttributeTvFinding(Finding& finding, const TvReport& tv_report, const BugConfig& bugs,
                          const std::string& pass_name, ValidationCache* cache) const;
  void AttributeBlackBox(Finding& finding, const BugConfig& bugs, const Target& target,
                         const Program& program, const PacketTest& test) const;
  static void Record(CampaignReport& report, Finding finding);

  CampaignOptions options_;
};

}  // namespace gauntlet

#endif  // SRC_GAUNTLET_CAMPAIGN_H_
