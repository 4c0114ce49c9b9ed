// Reproduces Table 2: the bug-summary matrix (crash/semantic ×
// filed/confirmed/fixed × P4C/BMv2/Tofino).
//
// The campaign fuzzes random programs against a compiler carrying the full
// seeded-fault catalogue; detected faults are "filed". Re-detecting a filed
// fault on an independent campaign (different seed) "confirms" it. Finally,
// each confirmed fault is disabled (the fix) and the reproducing campaign
// is re-run to verify the finding disappears ("fixed").
//
// Shape target (paper): P4C dominates the counts; crash and semantic bugs
// are both plentiful; Tofino bugs are found despite the closed back end.

#include <cstdio>

#include "src/runtime/parallel_campaign.h"

int main() {
  using namespace gauntlet;

  ParallelCampaignOptions options;
  options.campaign.seed = 2020;
  options.campaign.num_programs = 40;
  options.campaign.generator.backend = GeneratorBackend::kTofino;  // superset skeleton
  options.campaign.generator.p_wide_arith = 20;
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;

  // "Filing" runs the paper's 4-month loop in miniature: find bugs, fix
  // them, fuzz again — crash bugs surface first, semantic bugs once the
  // crashes stop pre-empting the pipeline (§7.1).
  std::printf("filing: find -> fix -> repeat over the full fault catalogue...\n");
  const FindFixResult filing = RunFindFixCampaign(options, BugConfig::All(), 6);
  const std::set<BugId>& filed = filing.found;
  std::vector<Finding> all_findings;
  int undef_divergences = 0;
  for (const CampaignReport& report : filing.rounds) {
    undef_divergences += report.undef_divergences;
    for (const Finding& finding : report.findings) {
      if (all_findings.size() < 64) {
        all_findings.push_back(finding);
      }
    }
  }

  // Confirmation: an independent find->fix sequence (fresh seeds) must
  // re-detect each filed fault.
  std::printf("confirming with an independent campaign sequence...\n");
  ParallelCampaignOptions confirm_options = options;
  confirm_options.campaign.seed = 7100;
  const std::set<BugId> independent =
      RunFindFixCampaign(confirm_options, BugConfig::All(), 6).found;
  std::set<BugId> confirmed;
  for (const BugId bug : filed) {
    if (independent.count(bug) > 0) {
      confirmed.insert(bug);
    }
  }

  // Fixing: disable all confirmed faults and verify they are gone.
  BugConfig after_fixes = BugConfig::All();
  for (const BugId bug : confirmed) {
    after_fixes.Disable(bug);
  }
  std::printf("verifying fixes (confirmed faults disabled)...\n\n");
  const CampaignReport fixed_report = ParallelCampaign(options).Run(after_fixes);
  std::set<BugId> fixed;
  for (const BugId bug : confirmed) {
    if (fixed_report.distinct_bugs.count(bug) == 0) {
      fixed.insert(bug);
    }
  }

  auto count = [](const std::set<BugId>& bugs, BugKind kind,
                  std::initializer_list<BugLocation> locations) {
    int total = 0;
    for (const BugId bug : bugs) {
      const BugInfo& info = GetBugInfo(bug);
      if (info.kind != kind) {
        continue;
      }
      for (const BugLocation location : locations) {
        total += info.location == location ? 1 : 0;
      }
    }
    return total;
  };
  const auto kP4c = {BugLocation::kFrontEnd, BugLocation::kMidEnd};
  const auto kBmv2 = {BugLocation::kBackEndBmv2};
  const auto kTofino = {BugLocation::kBackEndTofino};
  const auto kEbpf = {BugLocation::kBackEndEbpf};

  std::printf("=== Table 2: bug summary (this reproduction) ===\n");
  std::printf("%-10s %-10s %6s %6s %8s %6s\n", "bug type", "status", "P4C", "BMv2", "Tofino",
              "eBPF");
  std::printf("%-10s %-10s %6d %6d %8d %6d\n", "crash", "filed",
              count(filed, BugKind::kCrash, kP4c),
              count(filed, BugKind::kCrash, kBmv2),
              count(filed, BugKind::kCrash, kTofino),
              count(filed, BugKind::kCrash, kEbpf));
  std::printf("%-10s %-10s %6d %6d %8d %6d\n", "crash", "confirmed",
              count(confirmed, BugKind::kCrash, kP4c), count(confirmed, BugKind::kCrash, kBmv2),
              count(confirmed, BugKind::kCrash, kTofino),
              count(confirmed, BugKind::kCrash, kEbpf));
  std::printf("%-10s %-10s %6d %6d %8d %6d\n", "crash", "fixed",
              count(fixed, BugKind::kCrash, kP4c), count(fixed, BugKind::kCrash, kBmv2),
              count(fixed, BugKind::kCrash, kTofino),
              count(fixed, BugKind::kCrash, kEbpf));
  std::printf("%-10s %-10s %6d %6d %8d %6d\n", "semantic", "filed",
              count(filed, BugKind::kSemantic, kP4c),
              count(filed, BugKind::kSemantic, kBmv2),
              count(filed, BugKind::kSemantic, kTofino),
              count(filed, BugKind::kSemantic, kEbpf));
  std::printf("%-10s %-10s %6d %6d %8d %6d\n", "semantic", "confirmed",
              count(confirmed, BugKind::kSemantic, kP4c),
              count(confirmed, BugKind::kSemantic, kBmv2),
              count(confirmed, BugKind::kSemantic, kTofino),
              count(confirmed, BugKind::kSemantic, kEbpf));
  std::printf("%-10s %-10s %6d %6d %8d %6d\n", "semantic", "fixed",
              count(fixed, BugKind::kSemantic, kP4c), count(fixed, BugKind::kSemantic, kBmv2),
              count(fixed, BugKind::kSemantic, kTofino),
              count(fixed, BugKind::kSemantic, kEbpf));
  std::printf("total distinct bugs filed: %zu (of %zu seeded)\n\n", filed.size(),
              BugCatalogue().size());

  std::printf("paper (Table 2, absolute numbers differ; shape comparison):\n");
  std::printf("  crash    filed 26/2/25, confirmed 25/2/20, fixed 21/2/4\n");
  std::printf("  semantic filed 26/2/10, confirmed 21/2/8, fixed 15/2/0\n");
  std::printf("  shape checks: P4C>=BMv2 in every row: %s; Tofino crash+semantic found: %s\n",
              count(filed, BugKind::kCrash, kP4c) >=
                          count(filed, BugKind::kCrash, kBmv2) &&
                      count(filed, BugKind::kSemantic, kP4c) >=
                          count(filed, BugKind::kSemantic, kBmv2)
                  ? "yes"
                  : "NO",
              count(filed, BugKind::kCrash, kTofino) > 0 &&
                      count(filed, BugKind::kSemantic, kTofino) > 0
                  ? "yes"
                  : "NO");

  std::printf("\nper-finding log (first 12):\n");
  int printed = 0;
  for (const Finding& finding : all_findings) {
    if (printed++ >= 12) {
      break;
    }
    std::printf("  prog %3d  %-22s %-9s %-24s %s\n", finding.program_index,
                DetectionMethodToString(finding.method).c_str(),
                finding.kind == BugKind::kCrash ? "crash" : "semantic",
                finding.component.c_str(),
                finding.attributed.has_value() ? BugIdToString(*finding.attributed).c_str()
                                               : "(unattributed)");
  }
  std::printf("suspicious undefined-value divergences reported: %d (cf. Fig. 5e warning)\n",
              undef_divergences);
  return 0;
}
