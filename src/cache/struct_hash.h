#ifndef SRC_CACHE_STRUCT_HASH_H_
#define SRC_CACHE_STRUCT_HASH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/smt/expr.h"

namespace gauntlet {

// ---------------------------------------------------------------------------
// Structural fingerprints of SmtExpr DAGs.
//
// Consecutive pipeline versions share almost all of their block semantics,
// so translation validation and test generation keep re-encoding formulas
// whose sub-DAGs were already processed — in an earlier query, an earlier
// pass pair, or an earlier program on the same campaign worker. A
// fingerprint gives those sub-DAGs a context-independent identity the
// memoization layers (verdict_cache, summary_cache) can key on.
//
// Fingerprints are 128 bits: the tables they key can hold millions of
// entries over a long campaign, and a collision silently reuses the wrong
// cached artifact, so the collision probability must stay negligible at
// that scale (~2^-64 per pair).
// ---------------------------------------------------------------------------

struct Fingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool IsValid() const { return hi != 0 || lo != 0; }
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  friend bool operator<(const Fingerprint& a, const Fingerprint& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

struct FingerprintHash {
  size_t operator()(const Fingerprint& fp) const {
    return static_cast<size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

// Order-sensitive combiner (also used to build pair/sequence keys on top of
// node fingerprints, e.g. the verdict cache's (before, after) key).
Fingerprint CombineFingerprints(const Fingerprint& a, const Fingerprint& b);

// Fingerprint of a raw string (output leaf names, block roles).
Fingerprint FingerprintOfString(const std::string& text);

// Computes canonical fingerprints for the nodes of one SmtContext, memoized
// per node index. Free variables are hashed by *name* and width — not by
// var_id — so structurally identical sub-DAGs in different contexts
// (different programs on one campaign worker, the TV context vs. the
// testgen context) agree on their fingerprints.
//
// Commutative operators (add, mul, and, or, xor, eq, iff, bool and/or)
// hash their operands order-independently, so `a + b` and `b + a` share a
// fingerprint. This is the *semantic* identity the verdict and summary
// caches key on: fingerprint equality implies input-output equivalence.
class StructHasher {
 public:
  explicit StructHasher(const SmtContext& context) : context_(context) {}

  Fingerprint Hash(SmtRef ref);

 private:
  Fingerprint Compute(SmtRef ref);

  const SmtContext& context_;
  std::vector<Fingerprint> memo_;  // by node index; {0,0} = not yet hashed
};

}  // namespace gauntlet

#endif  // SRC_CACHE_STRUCT_HASH_H_
