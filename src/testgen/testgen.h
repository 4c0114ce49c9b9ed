#ifndef SRC_TESTGEN_TESTGEN_H_
#define SRC_TESTGEN_TESTGEN_H_

#include <vector>

#include "src/ast/program.h"
#include "src/target/stf.h"

namespace gauntlet {

class ValidationCache;

struct TestGenOptions {
  // Upper bound on generated test cases per program (path explosion guard,
  // §6.2: "the number of paths can be exponential in the length of the
  // program").
  size_t max_tests = 32;
  // Depth cap on the decision-condition enumeration. The N-entry table
  // encoding contributes more conditions per table (per-slot wins, slot
  // overlaps, action selections) than the old single-entry hit condition,
  // so the cap is sized to keep two multi-entry tables fully enumerable.
  size_t max_decisions = 16;
  // Ask the solver for non-zero packet bytes where possible, so that
  // zero-initializing targets cannot mask miscompilations (§6.2 and the
  // Fig. 5c discussion).
  bool prefer_nonzero = true;
  // Wall-clock budget per solver query (path probes and witness solves);
  // 0 = unlimited. Paths whose queries exhaust the budget are skipped, like
  // the silently-dropped test cases of §8.
  uint64_t query_time_limit_ms = 250;
  // Symbolic entry slots per table (src/table/entry_set.h; paper Fig. 3
  // generalized). With >= 2, path enumeration can solve for hits on
  // different installed entries, populated-table misses, and overlapping
  // (shadowed) entries *before* any packet exists — the scenarios that
  // expose priority-inversion and map-key back-end faults. 1 recovers the
  // paper's single-entry encoding (the bench_table_model baseline).
  size_t symbolic_table_entries = 2;
  // Assumption-trail reuse in the path-probe solver (--no-incremental turns
  // it off). The probe solver only answers feasibility questions — every
  // byte that reaches a test comes from the separate witness solver, whose
  // configuration is fixed — so the generated tests are byte-identical
  // either way; only the enumeration cost changes.
  bool incremental_solving = true;
};

// What one program's path enumeration covered: decision depth, enumerated
// path count, and which table/parser scenarios the surviving tests realize.
// Derived from the enumerated paths and witness models, which replay
// bit-exactly for any --jobs value and with the cache on or off, so every
// field is deterministic. The campaign merges this into the "path-shape" /
// "table-config" coverage domains and the fault-trigger exercise
// predicates.
struct PathCoverageSummary {
  size_t decisions = 0;
  size_t paths = 0;
  size_t tests = 0;
  bool parser_reject = false;       // some surviving test drops in the parser
  bool table_hit = false;           // some test hits an installed entry
  bool table_miss = false;          // some test misses a populated table
  bool multi_entry = false;         // some test installs >= 2 slots in one table
  bool non_first_slot_win = false;  // winner preceded by another installed slot
  bool overlap = false;             // >= 2 installed slots match one lookup key
  bool divergent_overlap = false;   // overlapping slots select different actions
  bool keyless_table = false;
  bool multi_byte_key_hit = false;      // hit matched on a byte-aligned key >= 16 bits
  bool multi_byte_action_data = false;  // hit supplies byte-aligned data >= 16 bits
};

// Symbolic-execution-based test-case generation (paper Figure 4 and §6):
// interprets the *source* program into SMT formulas, enumerates feasible
// paths through its decision conditions, and for each path solves for an
// input packet + table configuration, computing the expected output packet
// from the same formulas. The resulting PacketTests run against black-box
// targets (Tofino) whose intermediate representations are inaccessible.
//
// Undefined values are pinned to zero, matching BMv2/Tofino-simulator
// zero-initialization (the paper's choice 2 in §6.2: "ascribe specific
// values to undefined variables and check if these values conform with the
// implementation of the particular target").
class TestCaseGenerator {
 public:
  explicit TestCaseGenerator(TestGenOptions options = {}) : options_(options) {}

  // Requires a package with at least parser + ingress + deparser. May throw
  // UnsupportedError for constructs outside the supported fragment
  // (paper §8); callers treat that as "no tests for this program".
  //
  // `cache` is accepted so campaign callers can thread one worker cache
  // through both techniques, but test generation currently memoizes
  // nothing in it: the generated tests never depend on it.
  //
  // With a non-null `coverage`, fills in the path/table scenario summary
  // and records the "path-shape" / "table-config" coverage domains into the
  // thread-local coverage sink (when one is installed).
  std::vector<PacketTest> Generate(const Program& program, ValidationCache* cache = nullptr,
                                   PathCoverageSummary* coverage = nullptr) const;

 private:
  TestGenOptions options_;
};

}  // namespace gauntlet

#endif  // SRC_TESTGEN_TESTGEN_H_
