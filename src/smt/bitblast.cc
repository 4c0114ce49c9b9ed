#include "src/smt/bitblast.h"

#include <algorithm>

namespace gauntlet {

BitBlaster::BitBlaster(const SmtContext& context, SatSolver& solver, bool strash)
    : context_(context), solver_(solver), strash_(strash) {
  true_lit_ = Lit(solver_.NewVar(), false);
  solver_.AddClause({true_lit_});
}

size_t BitBlaster::GateKeyHash::operator()(const GateKey& key) const {
  uint64_t h = ((uint64_t{key.a} << 32) | key.b) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 29) ^ key.c) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<size_t>(h ^ (h >> 32));
}

Lit BitBlaster::GateOutput(const GateKey& key, bool* minted) {
  *minted = true;
  if (!strash_) {
    return Lit(solver_.NewVar(), false);
  }
  auto [it, inserted] = gates_.try_emplace(key);
  if (inserted) {
    it->second = Lit(solver_.NewVar(), false);
  } else {
    *minted = false;
  }
  return it->second;
}

Lit BitBlaster::MkAnd(Lit a, Lit b) {
  if (a == FalseLit() || b == FalseLit()) {
    return FalseLit();
  }
  if (a == TrueLit()) {
    return b;
  }
  if (b == TrueLit()) {
    return a;
  }
  if (a == b) {
    return a;
  }
  if (a == ~b) {
    return FalseLit();
  }
  if (strash_ && b.code < a.code) {
    std::swap(a, b);
  }
  bool minted = false;
  const Lit out = GateOutput({a.code, b.code, kAndTag}, &minted);
  if (minted) {
    solver_.AddClause({~a, ~b, out});
    solver_.AddClause({a, ~out});
    solver_.AddClause({b, ~out});
  }
  return out;
}

Lit BitBlaster::MkXor(Lit a, Lit b) {
  if (a == FalseLit()) {
    return b;
  }
  if (b == FalseLit()) {
    return a;
  }
  if (a == TrueLit()) {
    return ~b;
  }
  if (b == TrueLit()) {
    return ~a;
  }
  if (a == b) {
    return FalseLit();
  }
  if (a == ~b) {
    return TrueLit();
  }
  // Strash key: both operands positive (their negations flip the output),
  // in literal order.
  bool flip = false;
  if (strash_) {
    flip = a.negated() != b.negated();
    a = Lit(a.var(), false);
    b = Lit(b.var(), false);
    if (b.code < a.code) {
      std::swap(a, b);
    }
  }
  bool minted = false;
  const Lit out = GateOutput({a.code, b.code, kXorTag}, &minted);
  if (minted) {
    solver_.AddClause({~a, ~b, ~out});
    solver_.AddClause({a, b, ~out});
    solver_.AddClause({~a, b, out});
    solver_.AddClause({a, ~b, out});
  }
  return flip ? ~out : out;
}

Lit BitBlaster::MkMux(Lit cond, Lit then_lit, Lit else_lit) {
  if (cond == TrueLit()) {
    return then_lit;
  }
  if (cond == FalseLit()) {
    return else_lit;
  }
  if (then_lit == else_lit) {
    return then_lit;
  }
  // Strash key: a positive condition (a negated one swaps the branches) and
  // a positive then-branch (negating both branches negates the output).
  bool flip = false;
  if (strash_) {
    if (cond.negated()) {
      cond = ~cond;
      std::swap(then_lit, else_lit);
    }
    if (then_lit.negated()) {
      then_lit = ~then_lit;
      else_lit = ~else_lit;
      flip = true;
    }
  }
  bool minted = false;
  const Lit out = GateOutput({cond.code, then_lit.code, else_lit.code}, &minted);
  if (minted) {
    solver_.AddClause({~cond, ~then_lit, out});
    solver_.AddClause({~cond, then_lit, ~out});
    solver_.AddClause({cond, ~else_lit, out});
    solver_.AddClause({cond, else_lit, ~out});
  }
  return flip ? ~out : out;
}

std::vector<Lit> BitBlaster::AddVectors(const std::vector<Lit>& a, const std::vector<Lit>& b,
                                        Lit carry_in) {
  GAUNTLET_BUG_CHECK(a.size() == b.size(), "adder width mismatch");
  std::vector<Lit> sum(a.size());
  Lit carry = carry_in;
  for (size_t i = 0; i < a.size(); ++i) {
    const Lit axb = MkXor(a[i], b[i]);
    sum[i] = MkXor(axb, carry);
    // carry_out = (a & b) | (carry & (a ^ b))
    carry = MkOr(MkAnd(a[i], b[i]), MkAnd(carry, axb));
  }
  return sum;
}

std::vector<Lit> BitBlaster::NegateVector(const std::vector<Lit>& a) {
  std::vector<Lit> inverted(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    inverted[i] = ~a[i];
  }
  std::vector<Lit> zero(a.size(), FalseLit());
  return AddVectors(inverted, zero, TrueLit());
}

namespace {

size_t ConstantBits(const std::vector<Lit>& bits, Lit true_lit) {
  return static_cast<size_t>(std::count_if(bits.begin(), bits.end(), [true_lit](Lit bit) {
    return bit.var() == true_lit.var();
  }));
}

}  // namespace

std::vector<Lit> BitBlaster::MulVectors(const std::vector<Lit>& a, const std::vector<Lit>& b) {
  // Shift-add rows are not symmetric in the operands, so strash alone
  // cannot merge x*y with y*x. Strashing solvers therefore order the
  // operands canonically: the one with more constant bits selects the rows
  // (a constant-false row adds nothing), ties broken by literal codes.
  if (strash_) {
    const size_t a_constants = ConstantBits(a, true_lit_);
    const size_t b_constants = ConstantBits(b, true_lit_);
    const auto codes_less = [](const std::vector<Lit>& x, const std::vector<Lit>& y) {
      return std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end(),
                                          [](Lit l, Lit r) { return l.code < r.code; });
    };
    if (a_constants > b_constants || (a_constants == b_constants && codes_less(b, a))) {
      return MulRows(b, a);
    }
  }
  return MulRows(a, b);
}

std::vector<Lit> BitBlaster::MulRows(const std::vector<Lit>& a, const std::vector<Lit>& b) {
  const size_t width = a.size();
  std::vector<Lit> acc(width, FalseLit());
  for (size_t i = 0; i < width; ++i) {
    // acc += (a << i) & replicate(b[i])
    std::vector<Lit> addend(width, FalseLit());
    for (size_t j = i; j < width; ++j) {
      addend[j] = MkAnd(a[j - i], b[i]);
    }
    acc = AddVectors(acc, addend, FalseLit());
  }
  return acc;
}

std::vector<Lit> BitBlaster::ShiftVector(const std::vector<Lit>& value,
                                         const std::vector<Lit>& amount, bool left) {
  const size_t width = value.size();
  std::vector<Lit> current = value;
  // Barrel shifter over the amount's bits. Stages whose shift quantity
  // meets or exceeds the width clear the result (P4 shift semantics).
  for (size_t stage = 0; stage < amount.size(); ++stage) {
    const uint64_t shift_by = uint64_t{1} << stage;
    std::vector<Lit> shifted(width, FalseLit());
    if (shift_by < width) {
      for (size_t i = 0; i < width; ++i) {
        if (left) {
          if (i >= shift_by) {
            shifted[i] = current[i - shift_by];
          }
        } else {
          if (i + shift_by < width) {
            shifted[i] = current[i + shift_by];
          }
        }
      }
    }
    // else: shifted stays all zero
    for (size_t i = 0; i < width; ++i) {
      current[i] = MkMux(amount[stage], shifted[i], current[i]);
    }
    if (stage > 63) {
      break;
    }
  }
  return current;
}

Lit BitBlaster::UltVectors(const std::vector<Lit>& a, const std::vector<Lit>& b, bool or_equal) {
  // Ripple from LSB: result = (a_i < b_i) | ((a_i == b_i) & result_below).
  Lit result = or_equal ? TrueLit() : FalseLit();
  for (size_t i = 0; i < a.size(); ++i) {
    const Lit lt = MkAnd(~a[i], b[i]);
    const Lit eq = MkIff(a[i], b[i]);
    result = MkOr(lt, MkAnd(eq, result));
  }
  return result;
}

Lit BitBlaster::EqVectors(const std::vector<Lit>& a, const std::vector<Lit>& b) {
  Lit result = TrueLit();
  for (size_t i = 0; i < a.size(); ++i) {
    result = MkAnd(result, MkIff(a[i], b[i]));
  }
  return result;
}

std::vector<Lit> BitBlaster::BlastGateNode(const SmtNode& node) {
  std::vector<std::vector<Lit>> kids;
  kids.reserve(node.args.size());
  for (const SmtRef& arg : node.args) {
    if (context_.IsBool(arg)) {
      kids.push_back({BlastBool(arg)});
    } else {
      kids.push_back(BlastVector(arg));
    }
  }
  std::vector<Lit> bits;
  switch (node.op) {
    case SmtOp::kAdd:
      bits = AddVectors(kids[0], kids[1], FalseLit());
      break;
    case SmtOp::kSub: {
      std::vector<Lit> rhs = kids[1];
      for (Lit& lit : rhs) {
        lit = ~lit;
      }
      bits = AddVectors(kids[0], rhs, TrueLit());
      break;
    }
    case SmtOp::kMul:
      bits = MulVectors(kids[0], kids[1]);
      break;
    case SmtOp::kAnd: {
      bits.resize(kids[0].size());
      for (size_t i = 0; i < bits.size(); ++i) {
        bits[i] = MkAnd(kids[0][i], kids[1][i]);
      }
      break;
    }
    case SmtOp::kOr: {
      bits.resize(kids[0].size());
      for (size_t i = 0; i < bits.size(); ++i) {
        bits[i] = MkOr(kids[0][i], kids[1][i]);
      }
      break;
    }
    case SmtOp::kXor: {
      bits.resize(kids[0].size());
      for (size_t i = 0; i < bits.size(); ++i) {
        bits[i] = MkXor(kids[0][i], kids[1][i]);
      }
      break;
    }
    case SmtOp::kNeg:
      bits = NegateVector(kids[0]);
      break;
    case SmtOp::kShl:
      bits = ShiftVector(kids[0], kids[1], /*left=*/true);
      break;
    case SmtOp::kShr:
      bits = ShiftVector(kids[0], kids[1], /*left=*/false);
      break;
    case SmtOp::kIte: {
      const Lit cond = kids[0][0];
      bits.resize(kids[1].size());
      for (size_t i = 0; i < bits.size(); ++i) {
        bits[i] = MkMux(cond, kids[1][i], kids[2][i]);
      }
      break;
    }
    case SmtOp::kEq:
      bits = {EqVectors(kids[0], kids[1])};
      break;
    case SmtOp::kUlt:
      bits = {UltVectors(kids[0], kids[1], /*or_equal=*/false)};
      break;
    case SmtOp::kUle:
      bits = {UltVectors(kids[0], kids[1], /*or_equal=*/true)};
      break;
    case SmtOp::kBoolAnd:
      bits = {MkAnd(kids[0][0], kids[1][0])};
      break;
    case SmtOp::kBoolOr:
      bits = {MkOr(kids[0][0], kids[1][0])};
      break;
    case SmtOp::kBoolEq:
      bits = {MkIff(kids[0][0], kids[1][0])};
      break;
    case SmtOp::kBoolIte:
      bits = {MkMux(kids[0][0], kids[1][0], kids[2][0])};
      break;
    default:
      GAUNTLET_BUG_CHECK(false, "BlastGateNode on a wiring/leaf node");
  }
  return bits;
}

std::vector<Lit> BitBlaster::BlastVector(SmtRef ref) {
  auto cached = vector_cache_.find(ref.index);
  if (cached != vector_cache_.end()) {
    return cached->second;
  }
  const SmtNode& node = context_.node(ref);
  std::vector<Lit> bits;
  switch (node.op) {
    case SmtOp::kConst: {
      bits.resize(node.width);
      for (uint32_t i = 0; i < node.width; ++i) {
        bits[i] = ((node.bits >> i) & 1) != 0 ? TrueLit() : FalseLit();
      }
      break;
    }
    case SmtOp::kVar: {
      auto it = var_bits_.find(node.var_id);
      if (it == var_bits_.end()) {
        std::vector<Lit> fresh(node.width);
        for (uint32_t i = 0; i < node.width; ++i) {
          fresh[i] = Lit(solver_.NewVar(), false);
        }
        it = var_bits_.emplace(node.var_id, std::move(fresh)).first;
      }
      bits = it->second;
      break;
    }
    // Pure bit wiring: no gates, no clauses.
    case SmtOp::kNot: {
      const std::vector<Lit> a = BlastVector(node.args[0]);
      bits.resize(a.size());
      for (size_t i = 0; i < a.size(); ++i) {
        bits[i] = ~a[i];
      }
      break;
    }
    case SmtOp::kConcat: {
      const std::vector<Lit> high = BlastVector(node.args[0]);
      const std::vector<Lit> low = BlastVector(node.args[1]);
      bits = low;
      bits.insert(bits.end(), high.begin(), high.end());
      break;
    }
    case SmtOp::kExtract: {
      const std::vector<Lit> base = BlastVector(node.args[0]);
      bits.assign(base.begin() + node.aux1, base.begin() + node.aux0 + 1);
      break;
    }
    case SmtOp::kZext: {
      bits = BlastVector(node.args[0]);
      bits.resize(node.width, FalseLit());
      break;
    }
    case SmtOp::kTrunc: {
      const std::vector<Lit> base = BlastVector(node.args[0]);
      bits.assign(base.begin(), base.begin() + node.width);
      break;
    }
    case SmtOp::kAdd:
    case SmtOp::kSub:
    case SmtOp::kMul:
    case SmtOp::kAnd:
    case SmtOp::kOr:
    case SmtOp::kXor:
    case SmtOp::kNeg:
    case SmtOp::kShl:
    case SmtOp::kShr:
    case SmtOp::kIte:
      bits = BlastGateNode(node);
      break;
    default:
      GAUNTLET_BUG_CHECK(false, "BlastVector on boolean-sorted node");
  }
  GAUNTLET_BUG_CHECK(bits.size() == node.width, "blasted width mismatch");
  return vector_cache_.emplace(ref.index, std::move(bits)).first->second;
}

Lit BitBlaster::BlastBool(SmtRef ref) {
  auto cached = bool_cache_.find(ref.index);
  if (cached != bool_cache_.end()) {
    return cached->second;
  }
  const SmtNode& node = context_.node(ref);
  Lit lit;
  switch (node.op) {
    case SmtOp::kBoolConst:
      lit = node.bits != 0 ? TrueLit() : FalseLit();
      break;
    case SmtOp::kBoolVar: {
      auto it = bool_var_lits_.find(node.var_id);
      if (it == bool_var_lits_.end()) {
        it = bool_var_lits_.emplace(node.var_id, Lit(solver_.NewVar(), false)).first;
      }
      lit = it->second;
      break;
    }
    case SmtOp::kBoolNot:
      lit = ~BlastBool(node.args[0]);
      break;
    case SmtOp::kEq:
    case SmtOp::kUlt:
    case SmtOp::kUle:
    case SmtOp::kBoolAnd:
    case SmtOp::kBoolOr:
    case SmtOp::kBoolEq:
    case SmtOp::kBoolIte:
      lit = BlastGateNode(node)[0];
      break;
    default:
      GAUNTLET_BUG_CHECK(false, "BlastBool on bit-vector-sorted node");
  }
  bool_cache_.emplace(ref.index, lit);
  return lit;
}

uint64_t BitBlaster::VarValue(uint32_t var_id) const {
  auto it = var_bits_.find(var_id);
  if (it == var_bits_.end()) {
    return 0;
  }
  uint64_t value = 0;
  for (size_t i = 0; i < it->second.size(); ++i) {
    const Lit lit = it->second[i];
    bool bit;
    if (lit == true_lit_) {
      bit = true;
    } else if (lit == ~true_lit_) {
      bit = false;
    } else {
      bit = solver_.ValueOf(lit.var()) != lit.negated();
    }
    if (bit) {
      value |= uint64_t{1} << i;
    }
  }
  return value;
}

bool BitBlaster::BoolVarValue(uint32_t var_id) const {
  auto it = bool_var_lits_.find(var_id);
  if (it == bool_var_lits_.end()) {
    return false;
  }
  const Lit lit = it->second;
  return solver_.ValueOf(lit.var()) != lit.negated();
}

}  // namespace gauntlet
