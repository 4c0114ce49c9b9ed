#ifndef SRC_SMT_BITBLAST_H_
#define SRC_SMT_BITBLAST_H_

#include <unordered_map>
#include <vector>

#include "src/smt/expr.h"
#include "src/smt/sat.h"

namespace gauntlet {

// Lowers SMT expressions into CNF over a SatSolver via Tseitin encoding.
// Bit-vectors become little-endian literal vectors; word-level operators
// become gate networks (ripple-carry adders, shift-add multipliers, barrel
// shifters, ripple comparators). One BitBlaster per solve; memoizes per
// SmtRef so shared subgraphs are encoded once.
//
// With `strash` on, the AND/XOR/MUX gates are additionally structurally
// hashed (AIG-style, Kuehlmann et al., TCAD '02): each gate's operands are
// normalized (sorted, negations pulled to the output) and looked up before
// a fresh variable is minted, so two word-level subgraphs that lower to the
// same gates over the same literals share one copy — a miter of two
// bit-identical multipliers collapses to a constant instead of a hard SAT
// instance. Tseitin definitions are unconditional level-0 clauses, so a
// gate minted for one incremental solve stays valid for every later one.
//
// Strashing changes the CNF (fewer variables, different numbering) and so
// the models the SAT core lands on. Only solvers whose sole output is
// SAT/UNSAT turn it on; solvers whose model is an artifact (witnesses,
// counterexamples) keep the verbatim encoding.
class BitBlaster {
 public:
  BitBlaster(const SmtContext& context, SatSolver& solver, bool strash = false);

  // Encodes a boolean expression and returns its literal.
  Lit BlastBool(SmtRef ref);
  // Encodes a bit-vector expression; result[0] is the least significant bit.
  std::vector<Lit> BlastVector(SmtRef ref);

  // Asserts that a boolean expression holds.
  void Assert(SmtRef ref) { solver_.AddClause({BlastBool(ref)}); }

  // After a kSat solve: concrete value of an encoded bit-vector variable.
  // Variables never encoded default to zero.
  uint64_t VarValue(uint32_t var_id) const;
  bool BoolVarValue(uint32_t var_id) const;

  // Gate constructors with constant folding against the constant-true
  // literal (and, with strash on, structural hashing).
  Lit TrueLit() const { return true_lit_; }
  Lit FalseLit() const { return ~true_lit_; }
  Lit MkAnd(Lit a, Lit b);
  Lit MkOr(Lit a, Lit b) { return ~MkAnd(~a, ~b); }
  Lit MkXor(Lit a, Lit b);
  Lit MkMux(Lit cond, Lit then_lit, Lit else_lit);
  Lit MkIff(Lit a, Lit b) { return ~MkXor(a, b); }

 private:
  // A normalized gate: AND (a, b, kAndTag), XOR (a, b, kXorTag) or MUX
  // (cond, then, else). The tags are codes no literal reaches.
  struct GateKey {
    uint32_t a = 0;
    uint32_t b = 0;
    uint32_t c = 0;
    friend bool operator==(const GateKey&, const GateKey&) = default;
  };
  struct GateKeyHash {
    size_t operator()(const GateKey& key) const;
  };
  static constexpr uint32_t kAndTag = ~uint32_t{0};
  static constexpr uint32_t kXorTag = ~uint32_t{0} - 1;

  // Returns the strashed gate for `key`, or mints a fresh output literal,
  // records it under `key` (strash on) and sets `*minted`.
  Lit GateOutput(const GateKey& key, bool* minted);

  std::vector<Lit> AddVectors(const std::vector<Lit>& a, const std::vector<Lit>& b, Lit carry_in);
  std::vector<Lit> NegateVector(const std::vector<Lit>& a);
  std::vector<Lit> MulVectors(const std::vector<Lit>& a, const std::vector<Lit>& b);
  // The shift-add multiplier proper: row i adds (a << i) masked by b[i].
  std::vector<Lit> MulRows(const std::vector<Lit>& a, const std::vector<Lit>& b);
  std::vector<Lit> ShiftVector(const std::vector<Lit>& value, const std::vector<Lit>& amount,
                               bool left);
  Lit UltVectors(const std::vector<Lit>& a, const std::vector<Lit>& b, bool or_equal);
  Lit EqVectors(const std::vector<Lit>& a, const std::vector<Lit>& b);

  // Lowers a gate node (every non-leaf op that builds gates, as opposed to
  // pure bit wiring): blasts the children, then constructs the gates.
  // Boolean-sorted nodes return a single-literal vector.
  std::vector<Lit> BlastGateNode(const SmtNode& node);

  const SmtContext& context_;
  SatSolver& solver_;
  Lit true_lit_;
  bool strash_ = false;
  std::unordered_map<GateKey, Lit, GateKeyHash> gates_;          // strash table
  std::unordered_map<uint32_t, std::vector<Lit>> vector_cache_;  // SmtRef.index -> bits
  std::unordered_map<uint32_t, Lit> bool_cache_;                 // SmtRef.index -> lit
  std::unordered_map<uint32_t, std::vector<Lit>> var_bits_;      // var_id -> bits
  std::unordered_map<uint32_t, Lit> bool_var_lits_;              // var_id -> lit
};

}  // namespace gauntlet

#endif  // SRC_SMT_BITBLAST_H_
