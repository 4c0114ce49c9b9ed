#include "src/cache/struct_hash.h"

namespace gauntlet {

namespace {

// Two independent 64-bit mix streams make up the 128-bit fingerprint. The
// mixers are splitmix64 finalizers with distinct multipliers; each input
// word is folded into both halves with different pre-whitening so the
// halves never degenerate into copies of each other.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Fingerprint Fold(Fingerprint fp, uint64_t word) {
  fp.hi = Mix(fp.hi ^ (word * 0x9e3779b97f4a7c15ULL));
  fp.lo = Mix(fp.lo ^ (word + 0xd1b54a32d192ed03ULL));
  return fp;
}

Fingerprint Seed(uint64_t tag) {
  Fingerprint fp;
  fp.hi = Mix(tag + 0x2545f4914f6cdd1dULL);
  fp.lo = Mix(tag + 0x5851f42d4c957f2dULL);
  return fp;
}

// A fingerprint of all zeros doubles as the memo's "not yet hashed" mark,
// so a computed fingerprint must never be the zero value.
Fingerprint Finalize(Fingerprint fp) {
  if (!fp.IsValid()) {
    fp.lo = 1;
  }
  return fp;
}

bool IsCommutative(SmtOp op) {
  switch (op) {
    case SmtOp::kAdd:
    case SmtOp::kMul:
    case SmtOp::kAnd:
    case SmtOp::kOr:
    case SmtOp::kXor:
    case SmtOp::kEq:
    case SmtOp::kBoolAnd:
    case SmtOp::kBoolOr:
    case SmtOp::kBoolEq:
      return true;
    default:
      return false;
  }
}

}  // namespace

Fingerprint CombineFingerprints(const Fingerprint& a, const Fingerprint& b) {
  Fingerprint fp = Fold(Fold(Seed(0x70616972 /* "pair" */), a.hi), a.lo);
  return Finalize(Fold(Fold(fp, b.hi), b.lo));
}

Fingerprint FingerprintOfString(const std::string& text) {
  Fingerprint fp = Seed(0x737472 /* "str" */);
  fp = Fold(fp, text.size());
  for (char c : text) {
    fp = Fold(fp, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return Finalize(fp);
}

Fingerprint StructHasher::Hash(SmtRef ref) {
  GAUNTLET_BUG_CHECK(ref.IsValid(), "hashing an invalid SmtRef");
  if (memo_.size() <= ref.index) {
    memo_.resize(context_.NodeCount() + 1);
  }
  if (memo_[ref.index].IsValid()) {
    return memo_[ref.index];
  }
  // Compute recurses through Hash; re-index afterwards rather than holding
  // a reference across a possible memo_ reallocation.
  const Fingerprint fp = Compute(ref);
  memo_[ref.index] = fp;
  return fp;
}

Fingerprint StructHasher::Compute(SmtRef ref) {
  const SmtNode& node = context_.node(ref);
  Fingerprint fp = Seed(static_cast<uint64_t>(node.op));
  fp = Fold(fp, node.width);
  switch (node.op) {
    case SmtOp::kConst:
    case SmtOp::kBoolConst:
      fp = Fold(fp, node.bits);
      break;
    case SmtOp::kVar:
    case SmtOp::kBoolVar: {
      // By name, not var_id: identically named inputs in different contexts
      // must agree (that is what lets persisted fingerprints span runs).
      const Fingerprint name = FingerprintOfString(context_.VarName(node.var_id));
      fp = Fold(Fold(fp, name.hi), name.lo);
      break;
    }
    case SmtOp::kExtract:
      fp = Fold(Fold(fp, node.aux0), node.aux1);
      break;
    default:
      break;
  }
  if (IsCommutative(node.op) && node.args.size() == 2) {
    Fingerprint a = Hash(node.args[0]);
    Fingerprint b = Hash(node.args[1]);
    if (b < a) {
      std::swap(a, b);
    }
    fp = Fold(Fold(Fold(Fold(fp, a.hi), a.lo), b.hi), b.lo);
    return Finalize(fp);
  }
  for (const SmtRef& arg : node.args) {
    const Fingerprint child = Hash(arg);
    fp = Fold(Fold(fp, child.hi), child.lo);
  }
  return Finalize(fp);
}

}  // namespace gauntlet
