// Serial vs parallel campaign wall-clock: the same 40-program,
// full-catalogue workload through ParallelCampaign at --jobs 1 and
// --jobs 4, gating on stable distinct-bug coverage across jobs counts.
// (Raw finding counts are wall-clock-budget-dependent on this workload —
// which pass pairs fit a program's 1500ms TV budget varies with machine
// load — so the strict bit-identity gates live where the budgets are off:
// tests/runtime_test.cc, tests/obs_test.cc, and the telemetry section
// below.)
//
// The second section gates the telemetry subsystem: a budget-free workload
// with metrics + tracing + coverage enabled must stay within 5% (plus a
// small absolute slack for sub-second runs) of the plain run, with
// bit-identical findings.

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "src/cache/verdict_cache.h"
#include "src/runtime/parallel_campaign.h"

int main() {
  using namespace gauntlet;
  using Clock = std::chrono::steady_clock;

  ParallelCampaignOptions options;
  options.campaign.seed = 2024;
  options.campaign.num_programs = 40;
  options.campaign.generator.backend = GeneratorBackend::kTofino;
  options.campaign.generator.p_wide_arith = 20;
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;
  const BugConfig bugs = BugConfig::All();

  std::printf("=== parallel campaign scaling: %d programs, full catalogue ===\n",
              options.campaign.num_programs);
  std::printf("%-7s %-12s %-10s %-14s %s\n", "jobs", "wall ms", "speedup", "findings",
              "distinct bugs");

  double serial_ms = 0;
  size_t serial_findings = 0;
  size_t serial_distinct = 0;
  for (const int jobs : {1, 2, 4}) {
    options.jobs = jobs;
    const auto start = Clock::now();
    const CampaignReport report = ParallelCampaign(options).Run(bugs);
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(Clock::now() -
                                                                              start)
            .count();
    if (jobs == 1) {
      serial_ms = ms;
      serial_findings = report.findings.size();
      serial_distinct = report.DistinctCount();
    }
    std::printf("%-7d %-12.0f %-10.2f %-14zu %zu\n", jobs, ms,
                ms > 0 ? serial_ms / ms : 0.0, report.findings.size(),
                report.DistinctCount());
    if (report.DistinctCount() != serial_distinct) {
      std::printf("DETERMINISM VIOLATION: jobs=%d distinct bugs differ from jobs=1\n", jobs);
      return 1;
    }
    if (report.findings.size() != serial_findings) {
      // A budget boundary moved under load; coverage above already matched.
      std::printf("note: jobs=%d finding count %zu != jobs=1 count %zu "
                  "(wall-clock TV budget boundary)\n",
                  jobs, report.findings.size(), serial_findings);
    }
  }

  // --- telemetry overhead gate ---------------------------------------------
  // A separate workload with the wall-clock solver budgets off (conflict
  // budgets stay), as in runtime_test.cc: findings must be bit-identical
  // between the plain and instrumented runs, and with budgets on a query
  // timing out under contention on a slow runner would break that identity
  // for reasons unrelated to telemetry. Best-of-3 for both configurations
  // so a single scheduler hiccup cannot fail the gate; fresh
  // registries/collectors per timed run so no state carries over.
  std::printf("\n=== telemetry overhead: metrics + trace + live snapshots on ===\n");
  // Fresh options: the default generator, not the wide-arith Tofino skew —
  // budget-free equivalence proofs over wide arithmetic take minutes, and
  // this section times the telemetry delta, not the solver.
  ParallelCampaignOptions overhead_options;
  overhead_options.campaign.seed = 2024;
  overhead_options.campaign.num_programs = 24;
  overhead_options.campaign.testgen.max_tests = 6;
  overhead_options.campaign.testgen.max_decisions = 5;
  overhead_options.campaign.testgen.query_time_limit_ms = 0;
  overhead_options.campaign.tv.query_time_limit_ms = 0;
  overhead_options.campaign.tv.program_budget_ms = 0;
  overhead_options.jobs = 4;
  BugConfig overhead_bugs;
  overhead_bugs.Enable(BugId::kPredicationLostElse);
  overhead_bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  const int rounds = 3;

  auto best_plain_ms = 0.0;
  size_t plain_findings = 0;
  for (int round = 0; round < rounds; ++round) {
    const auto start = Clock::now();
    const CampaignReport report = ParallelCampaign(overhead_options).Run(overhead_bugs);
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(Clock::now() -
                                                                              start)
            .count();
    if (round == 0 || ms < best_plain_ms) {
      best_plain_ms = ms;
    }
    plain_findings = report.findings.size();
  }

  // The instrumented run also publishes live status snapshots at a hot
  // interval (100ms vs the 1s default): the background emitter's cost —
  // provider copies under the live mutex plus atomic file writes — must fit
  // inside the same overhead envelope as the in-process telemetry.
  const std::string status_dir =
      (std::filesystem::temp_directory_path() / "gauntlet_bench_status").string();
  auto best_traced_ms = 0.0;
  size_t traced_findings = 0;
  uint64_t programs_metric = 0;
  for (int round = 0; round < rounds; ++round) {
    std::filesystem::remove_all(status_dir);
    RunSinks sinks({}, RunSinks::kMetrics | RunSinks::kTrace | RunSinks::kCoverage);
    ParallelCampaignOptions instrumented = overhead_options;
    instrumented.campaign.sinks = &sinks;
    instrumented.status_dir = status_dir;
    instrumented.snapshot_interval_ms = 100;
    const auto start = Clock::now();
    CacheStats stats;
    const CampaignReport report = ParallelCampaign(instrumented).Run(overhead_bugs, &stats);
    sinks.Fold(report, overhead_bugs, instrumented.campaign.use_cache ? &stats : nullptr);
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(Clock::now() -
                                                                              start)
            .count();
    if (round == 0 || ms < best_traced_ms) {
      best_traced_ms = ms;
    }
    traced_findings = report.findings.size();
    programs_metric = sinks.metrics()->Value("campaign/programs_generated");
  }
  std::filesystem::remove_all(status_dir);

  const double overhead = best_plain_ms > 0 ? best_traced_ms / best_plain_ms : 1.0;
  std::printf("%-16s %-12.0f\n", "plain ms", best_plain_ms);
  std::printf("%-16s %-12.0f (%.2fx)\n", "telemetry ms", best_traced_ms, overhead);

  if (traced_findings != plain_findings) {
    std::printf("TELEMETRY VIOLATION: findings differ with telemetry on (%zu vs %zu)\n",
                traced_findings, plain_findings);
    return 1;
  }
  if (programs_metric != static_cast<uint64_t>(overhead_options.campaign.num_programs)) {
    std::printf("TELEMETRY VIOLATION: programs_generated metric %llu != %d requested\n",
                static_cast<unsigned long long>(programs_metric),
                overhead_options.campaign.num_programs);
    return 1;
  }
  // 5% relative plus 50ms absolute: the absolute term keeps sub-second runs
  // from failing on a single-millisecond wobble the ratio can't absorb.
  if (best_traced_ms > best_plain_ms * 1.05 + 50.0) {
    std::printf("TELEMETRY OVERHEAD VIOLATION: %.0fms vs %.0fms plain (> 5%% + 50ms)\n",
                best_traced_ms, best_plain_ms);
    return 1;
  }
  return 0;
}
