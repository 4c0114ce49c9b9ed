// Reproduces Table 3: distribution of detected bugs across compiler
// locations (front end / mid end / back end).
//
// Shape target (paper): front end 33, mid end 13, back ends 32 — i.e. the
// front end dominates, the mid end contributes a substantial minority, and
// the closed Tofino back end holds most back-end bugs.

#include <cstdio>

#include "src/runtime/parallel_campaign.h"

int main() {
  using namespace gauntlet;

  ParallelCampaignOptions options;
  options.campaign.seed = 3;
  options.campaign.num_programs = 40;
  options.campaign.generator.backend = GeneratorBackend::kTofino;
  options.campaign.generator.p_wide_arith = 20;
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;
  std::printf("running find->fix campaign rounds (%d programs each, full catalogue)...\n\n",
              options.campaign.num_programs);
  const FindFixResult result = RunFindFixCampaign(options, BugConfig::All(), 6);

  auto at = [&](BugLocation location) {
    int count = 0;
    for (const BugId bug : result.found) {
      count += GetBugInfo(bug).location == location ? 1 : 0;
    }
    return count;
  };
  const int front = at(BugLocation::kFrontEnd);
  const int mid = at(BugLocation::kMidEnd);
  const int bmv2 = at(BugLocation::kBackEndBmv2);
  const int tofino = at(BugLocation::kBackEndTofino);
  const int ebpf = at(BugLocation::kBackEndEbpf);

  std::printf("=== Table 3: distribution of bugs (this reproduction) ===\n");
  std::printf("%-12s %6s %6s %8s %6s %7s\n", "location", "P4C", "BMv2", "Tofino", "eBPF",
              "total");
  std::printf("%-12s %6d %6s %8s %6s %7d\n", "front end", front, "-", "-", "-", front);
  std::printf("%-12s %6d %6s %8s %6s %7d\n", "mid end", mid, "-", "-", "-", mid);
  std::printf("%-12s %6s %6d %8d %6d %7d\n", "back end", "-", bmv2, tofino, ebpf,
              bmv2 + tofino + ebpf);
  std::printf("%-12s %6d %6d %8d %6d %7zu\n", "total", front + mid, bmv2, tofino, ebpf,
              result.found.size());

  std::printf("\npaper (Table 3): front 33, mid 13, back 32 (BMv2 4 + Tofino 28)\n");
  std::printf("shape checks:\n");
  std::printf("  front end has the most bugs: %s\n",
              (front >= mid && front >= bmv2 && front >= tofino) ? "yes" : "NO");
  std::printf("  Tofino >= BMv2 among back ends: %s\n", tofino >= bmv2 ? "yes" : "NO");
  std::printf("  mid end contributes but fewer than front: %s\n",
              (mid > 0 && mid <= front) ? "yes" : "NO");

  std::printf("\nfindings by detection method (all rounds):\n");
  std::map<std::string, int> by_method;
  int programs = 0;
  int crashing = 0;
  int semantic = 0;
  int tests = 0;
  for (const CampaignReport& report : result.rounds) {
    for (const Finding& finding : report.findings) {
      ++by_method[DetectionMethodToString(finding.method)];
    }
    programs += report.programs_generated;
    crashing += report.programs_with_crash;
    semantic += report.programs_with_semantic;
    tests += report.tests_generated;
  }
  for (const auto& [method, count] : by_method) {
    std::printf("  %-24s %d\n", method.c_str(), count);
  }
  std::printf("\nprograms: %d generated, %d crashing, %d with semantic diffs, %d tests\n",
              programs, crashing, semantic, tests);
  return 0;
}
