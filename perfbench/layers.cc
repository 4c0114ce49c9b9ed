#include "perfbench/layers.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <utility>

#include "src/cache/cache_file.h"
#include "src/dist/shard.h"
#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/gen/generator.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/passes/pass.h"
#include "src/runtime/corpus.h"
#include "src/runtime/parallel_campaign.h"
#include "src/support/error.h"
#include "src/typecheck/typecheck.h"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using gauntlet::MetricsRegistry;

namespace {

double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

double SpanMs(const MetricsRegistry& registry, const std::string& span) {
  return static_cast<double>(registry.Value("time/" + span + "/micros")) / 1000.0;
}

// Runs `body` with `registry` installed as this thread's metrics sink and
// returns its wall time in milliseconds.
template <typename Body>
double Scoped(MetricsRegistry& registry, Body&& body) {
  gauntlet::ScopedMetricsSink sink(&registry);
  const Clock::time_point start = Clock::now();
  body();
  return Ms(Clock::now() - start);
}

template <typename Body>
double Timed(Body&& body) {
  const Clock::time_point start = Clock::now();
  body();
  return Ms(Clock::now() - start);
}

std::string FindingLine(const gauntlet::Finding& finding) {
  return std::to_string(finding.program_index) + " " +
         gauntlet::DetectionMethodToString(finding.method) + " " + finding.component + " " +
         (finding.attributed ? gauntlet::BugIdToString(*finding.attributed) : "-");
}

}  // namespace

std::string LayerPass::CounterKey() const {
  std::ostringstream out;
  out << tv_solves << ' ' << tv_propagations << ' ' << tv_conflicts << ' ' << tv_decisions << ' '
      << testgen_solves << ' ' << testgen_propagations << ' ' << testgen_conflicts << ' '
      << testgen_decisions << ' ' << max_vars << ' ' << propagations_saved << ' ' << pairs << ' '
      << changed_versions << ' ' << paths << ' ' << tests << ' ' << packets;
  return out.str();
}

LayerPass RunLayerPass(const Workload& workload, uint64_t seed) {
  LayerPass pass;
  const gauntlet::CampaignOptions options = MakeCampaignOptions(workload, seed);
  const gauntlet::BugConfig bugs = MakeBugs(workload);
  const gauntlet::Campaign campaign(options);
  const std::vector<const gauntlet::Target*> targets = campaign.SelectedTargets();
  const gauntlet::GeneratorOptions generator = campaign.EffectiveGeneratorOptions();
  const gauntlet::TranslationValidator validator(gauntlet::PassManager::StandardPipeline(),
                                                 options.tv);
  const gauntlet::TestCaseGenerator testgen(options.testgen);
  gauntlet::ValidationCache cache;
  MetricsRegistry tv_total;
  MetricsRegistry testgen_total;
  MetricsRegistry rerun_total;

  const Clock::time_point pass_start = Clock::now();
  for (int index = 0; index < workload.programs; ++index) {
    gauntlet::ProgramPtr program;
    pass.gen_ms += Timed([&] {
      gauntlet::GeneratorOptions per_program = generator;
      per_program.seed = gauntlet::ParallelCampaign::ProgramSeed(seed, index);
      program = gauntlet::ProgramGenerator(per_program).Generate();
    });
    cache.BeginProgram(gauntlet::HashProgram(*program));

    // Translation validation. The pair spans are named per pass, and a
    // pass appears at most once per program, so a per-program registry
    // yields each pair's time.
    MetricsRegistry tv;
    gauntlet::TvReport tv_report;
    pass.validate_ms +=
        Scoped(tv, [&] { tv_report = validator.Validate(*program, bugs, {}, &cache); });
    bool attribute = tv_report.crashed;
    for (const auto& [name, metric] : tv.metrics()) {
      if (name.rfind("time/tv:", 0) == 0 && name.size() > 7 &&
          name.compare(name.size() - 7, 7, "/micros") == 0) {
        const double ms = static_cast<double>(metric.value) / 1000.0;
        pass.compare_ms += ms;
        pass.pair_ms_max = std::max(pass.pair_ms_max, ms);
      }
    }
    tv_total.MergeFrom(tv);
    for (const gauntlet::TvPassResult& result : tv_report.pass_results) {
      ++pass.pairs;
      switch (result.verdict) {
        case gauntlet::TvVerdict::kEquivalent:
          ++pass.pairs_equivalent;
          break;
        case gauntlet::TvVerdict::kUndefDivergence:
          ++pass.pairs_undef;
          break;
        case gauntlet::TvVerdict::kSemanticDiff:
          ++pass.pairs_semantic_diff;
          attribute = true;
          break;
        case gauntlet::TvVerdict::kStructuralMismatch:
          pass.pairs_budget_exhausted += result.detail.find("budget") != std::string::npos;
          break;
        case gauntlet::TvVerdict::kInvalidEmit:
          attribute = true;
          break;
      }
    }
    pass.changed_versions += tv_report.versions.empty() ? 0 : tv_report.versions.size() - 1;

    // The print/re-parse round trip Validate runs inside each pair span,
    // repeated here on the retained versions so it can be timed on its own.
    pass.print_parse_ms += Timed([&] {
      for (size_t i = 1; i < tv_report.versions.size(); ++i) {
        try {
          gauntlet::ProgramPtr reparsed =
              gauntlet::Parser::ParseString(gauntlet::PrintProgram(*tv_report.versions[i].second));
          gauntlet::TypeCheck(*reparsed);
        } catch (const std::exception&) {
          // An invalid emit; Validate already reported it.
        }
      }
    });

    // Test generation.
    std::vector<gauntlet::PacketTest> tests;
    pass.testgen_ms += Scoped(testgen_total, [&] {
      try {
        tests = testgen.Generate(*program, &cache);
      } catch (const gauntlet::UnsupportedError&) {
        // Outside the supported fragment: no packet tests, as in a campaign.
      }
    });

    // Every selected target: compile, then replay the tests.
    for (const gauntlet::Target* target : targets) {
      std::unique_ptr<gauntlet::Executable> executable;
      try {
        pass.compile_ms += Timed([&] { executable = target->Compile(*program, bugs); });
      } catch (const std::exception&) {
        attribute = true;
        continue;
      }
      std::vector<std::pair<gauntlet::PacketTest, gauntlet::PacketTestOutcome>> failures;
      pass.execute_ms += Timed([&] { failures = gauntlet::RunPacketTests(*executable, tests); });
      pass.packets += tests.size();
      attribute = attribute || !failures.empty();
    }

    // Attribution runs only inside Campaign::TestProgram; re-run the
    // program there and keep just its `attribute` spans and findings.
    if (attribute) {
      ++pass.reruns;
      gauntlet::CampaignReport slot;
      {
        gauntlet::ScopedMetricsSink sink(&rerun_total);
        campaign.TestProgram(*program, bugs, index, slot, &cache);
      }
      pass.findings.Merge(std::move(slot));
    }
  }
  pass.wall_ms = Ms(Clock::now() - pass_start);

  pass.typecheck_ms = SpanMs(tv_total, "typecheck");
  pass.passes_ms = SpanMs(tv_total, "passes");
  pass.tv_smt_ms = SpanMs(tv_total, "smt-encode") + SpanMs(tv_total, "smt-solve");
  pass.enumerate_ms = SpanMs(testgen_total, "testgen-enumerate");
  pass.witness_ms = SpanMs(testgen_total, "testgen-witness");
  pass.attribute_ms = SpanMs(rerun_total, "attribute");
  pass.encode_ms = SpanMs(tv_total, "smt-encode") + SpanMs(testgen_total, "smt-encode");
  pass.solve_ms = SpanMs(tv_total, "smt-solve") + SpanMs(testgen_total, "smt-solve");
  pass.tv_solves = tv_total.Value("smt/solves");
  pass.tv_propagations = tv_total.Value("smt/propagations");
  pass.tv_conflicts = tv_total.Value("smt/conflicts");
  pass.tv_decisions = tv_total.Value("smt/decisions");
  pass.testgen_solves = testgen_total.Value("smt/solves");
  pass.testgen_propagations = testgen_total.Value("smt/propagations");
  pass.testgen_conflicts = testgen_total.Value("smt/conflicts");
  pass.testgen_decisions = testgen_total.Value("smt/decisions");
  pass.max_vars = std::max(tv_total.Value("smt/max_vars"), testgen_total.Value("smt/max_vars"));
  pass.propagations_saved =
      tv_total.Value("smt/propagations_saved") + testgen_total.Value("smt/propagations_saved");
  pass.paths = testgen_total.Value("testgen/paths");
  pass.tests = testgen_total.Value("testgen/tests");
  return pass;
}

std::vector<std::string> CheckLayerPass(const KnownAnswers& answers, const LayerPass& pass,
                                        const gauntlet::CampaignReport& untraced) {
  std::vector<std::string> problems;
  const auto expect = [&problems](const std::string& what, uint64_t got, uint64_t want) {
    if (got != want) {
      problems.push_back("traced " + what + " = " + std::to_string(got) + ", expected " +
                         std::to_string(want));
    }
  };
  expect("pass pairs", pass.pairs, static_cast<uint64_t>(answers.pairs));
  expect("equivalent pairs", pass.pairs_equivalent, static_cast<uint64_t>(answers.pairs_equivalent));
  expect("undef-divergence pairs", pass.pairs_undef, static_cast<uint64_t>(answers.pairs_undef));
  expect("semantic-diff pairs", pass.pairs_semantic_diff,
         static_cast<uint64_t>(answers.pairs_semantic_diff));
  expect("budget-exhausted pairs", pass.pairs_budget_exhausted, 0);
  expect("findings", pass.findings.findings.size(), untraced.findings.size());
  const size_t common = std::min(pass.findings.findings.size(), untraced.findings.size());
  for (size_t i = 0; i < common; ++i) {
    const std::string traced = FindingLine(pass.findings.findings[i]);
    const std::string expected = FindingLine(untraced.findings[i]);
    if (traced != expected) {
      problems.push_back("traced finding #" + std::to_string(i) + " '" + traced +
                         "' differs from the campaign's '" + expected + "'");
      break;
    }
  }
  return problems;
}

ArtifactProbe ProbeArtifacts(const RunDirs& dirs) {
  ArtifactProbe probe;
  probe.cache_file_load_ms = Timed([&] {
    gauntlet::ValidationCache cache;
    if (gauntlet::LoadValidationCacheFile(dirs.cache_file, cache)) {
      probe.cache_file_bytes = fs::file_size(dirs.cache_file);
    }
  });
  probe.shard_load_ms = Timed([&] {
    if (!fs::is_directory(dirs.shards)) {
      return;
    }
    for (const fs::directory_entry& entry : fs::directory_iterator(dirs.shards)) {
      if (entry.path().extension() == ".result") {
        probe.shard_result_bytes += entry.file_size();
        gauntlet::LoadShardResultFile(entry.path().string());
      }
    }
  });
  probe.corpus_load_ms = Timed([&] {
    if (fs::is_directory(dirs.corpus)) {
      gauntlet::ListCorpus(dirs.corpus);
    }
  });
  probe.status_collect_ms = Timed([&] {
    if (fs::is_directory(dirs.status)) {
      gauntlet::CollectFleetStatus(dirs.status, gauntlet::kDefaultStallThresholdMs);
    }
  });
  return probe;
}

}  // namespace perfbench
