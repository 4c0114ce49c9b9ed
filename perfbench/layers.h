#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workload.h"

namespace perfbench {

// What one traced pass over a workload's programs measured. Times are the
// benchmark's own timers around each layer's public entry point, or the
// program's existing span totals read back through a MetricsRegistry sink
// scoped around that call; counts are the program's work counters.
struct LayerPass {
  double wall_ms = 0;

  double gen_ms = 0;       // ProgramGenerator::Generate
  double validate_ms = 0;  // TranslationValidator::Validate
  double typecheck_ms = 0;     // `typecheck` span inside Validate
  double passes_ms = 0;        // `passes` span inside Validate
  double compare_ms = 0;       // `tv:<pass>` pair spans inside Validate
  double pair_ms_max = 0;      // slowest single pass pair
  double print_parse_ms = 0;   // PrintProgram + Parser::ParseString + TypeCheck per version
  double tv_smt_ms = 0;        // smt-encode + smt-solve inside Validate
  double testgen_ms = 0;   // TestCaseGenerator::Generate
  double enumerate_ms = 0;     // `testgen-enumerate` span
  double witness_ms = 0;       // `testgen-witness` span
  double compile_ms = 0;   // Target::Compile, every selected target
  double execute_ms = 0;   // RunPacketTests, every selected target
  double attribute_ms = 0; // `attribute` spans of Campaign::TestProgram reruns
  double encode_ms = 0;    // smt-encode, validate + testgen scopes
  double solve_ms = 0;     // smt-solve, validate + testgen scopes

  // Work counters (deterministic for the same code and programs).
  uint64_t tv_solves = 0, tv_propagations = 0, tv_conflicts = 0, tv_decisions = 0;
  uint64_t testgen_solves = 0, testgen_propagations = 0, testgen_conflicts = 0,
           testgen_decisions = 0;
  uint64_t max_vars = 0;
  uint64_t propagations_saved = 0;
  uint64_t pairs = 0, pairs_equivalent = 0, pairs_undef = 0, pairs_semantic_diff = 0;
  uint64_t pairs_budget_exhausted = 0;
  uint64_t changed_versions = 0;
  uint64_t paths = 0, tests = 0, packets = 0;
  uint64_t reruns = 0;
  gauntlet::CampaignReport findings;  // from the TestProgram reruns

  // The layers the untraced campaign also runs, end to end.
  double LayerSumMs() const {
    return gen_ms + validate_ms + testgen_ms + compile_ms + execute_ms + attribute_ms;
  }
  // The counters that must repeat exactly, as one comparable string.
  std::string CounterKey() const;
};

// Takes every program of the workload through the public entry points in
// the order Campaign::TestProgram calls them, with the campaign's options
// and one ValidationCache for the pass. Programs that yield something to
// attribute are re-run through Campaign::TestProgram (sharing that cache) to
// time attribution, which has no public entry point of its own.
LayerPass RunLayerPass(const Workload& workload, uint64_t seed);

// Mismatches between the traced pass and the known answers / the untraced
// run's findings (empty = consistent).
std::vector<std::string> CheckLayerPass(const KnownAnswers& answers, const LayerPass& pass,
                                        const gauntlet::CampaignReport& untraced);

// Loads the files an untraced fault-fleet run left behind, timing each
// reader. A workload that writes no such file reads nothing (its timers
// cover only the existence checks).
struct ArtifactProbe {
  uint64_t cache_file_bytes = 0;
  double cache_file_load_ms = 0;
  uint64_t shard_result_bytes = 0;
  double shard_load_ms = 0;
  double corpus_load_ms = 0;
  double status_collect_ms = 0;
};
ArtifactProbe ProbeArtifacts(const RunDirs& dirs);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
