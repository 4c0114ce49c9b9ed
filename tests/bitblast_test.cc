// Structural hashing ("strash") in the bit-blaster: each normalized gate is
// minted once, a miter of two bit-identical multipliers collapses without
// any search, and on random formulas the strashed encoding agrees with the
// verbatim one while never using more variables. The last test pins the
// campaign query strashing exists for: the heavy-tail workload's
// EliminateSlices pass pair (campaign seed 7, program 18), which the
// verbatim encoding turned into a 64,666-conflict SAT solve.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/gauntlet/campaign.h"
#include "src/gen/generator.h"
#include "src/runtime/parallel_campaign.h"
#include "src/smt/bitblast.h"
#include "src/smt/evaluator.h"
#include "src/smt/solver.h"
#include "src/support/rng.h"
#include "src/tv/validator.h"

namespace gauntlet {
namespace {

TEST(BitBlasterTest, StrashReturnsOneLiteralPerNormalizedGate) {
  SmtContext ctx;
  SatSolver sat;
  BitBlaster blaster(ctx, sat, /*strash=*/true);
  const Lit a(sat.NewVar(), false);
  const Lit b(sat.NewVar(), false);
  const Lit c(sat.NewVar(), false);
  const uint32_t inputs = sat.VarCount();

  const Lit and_ab = blaster.MkAnd(a, b);
  EXPECT_EQ(blaster.MkAnd(a, b), and_ab);
  EXPECT_EQ(blaster.MkAnd(b, a), and_ab);
  EXPECT_EQ(blaster.MkOr(~a, ~b), ~and_ab);  // De Morgan: the same AND gate

  const Lit xor_ab = blaster.MkXor(a, b);
  EXPECT_EQ(blaster.MkXor(b, a), xor_ab);
  EXPECT_EQ(blaster.MkXor(~a, b), ~xor_ab);
  EXPECT_EQ(blaster.MkXor(b, ~a), ~xor_ab);
  EXPECT_EQ(blaster.MkXor(~a, ~b), xor_ab);
  EXPECT_EQ(blaster.MkIff(a, b), ~xor_ab);

  const Lit mux = blaster.MkMux(c, a, b);
  EXPECT_EQ(blaster.MkMux(c, a, b), mux);
  EXPECT_EQ(blaster.MkMux(~c, b, a), mux);     // negated condition swaps
  EXPECT_EQ(blaster.MkMux(c, ~a, ~b), ~mux);   // negated data negates
  EXPECT_EQ(blaster.MkMux(~c, ~b, ~a), ~mux);

  // One variable per distinct gate, however often it was asked for.
  EXPECT_EQ(sat.VarCount(), inputs + 3);
  // Different gates stay different.
  EXPECT_NE(blaster.MkAnd(a, ~b), and_ab);
  EXPECT_NE(blaster.MkMux(c, b, a), mux);

  // The verbatim encoding mints a fresh variable on every call.
  SatSolver plain_sat;
  BitBlaster plain(ctx, plain_sat);
  const Lit p(plain_sat.NewVar(), false);
  const Lit q(plain_sat.NewVar(), false);
  EXPECT_NE(plain.MkAnd(p, q), plain.MkAnd(q, p));
  EXPECT_NE(plain.MkXor(p, q), plain.MkXor(p, q));
}

TEST(BitBlasterTest, CommutedMultiplierMiterIsUnsatWithoutSearch) {
  // x*y != y*x is unsatisfiable. Verbatim, it is two shift-add multipliers
  // over distinct gates — exponential for CDCL. Strashed (with the
  // multiplier's canonical operand order), both products are the same
  // literals, so the miter folds to false before the search starts.
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 16);
  const SmtRef y = ctx.Var("y", 16);
  const SmtRef miter = ctx.BoolNot(ctx.Eq(ctx.Mul(x, y), ctx.Mul(y, x)));

  SatSolver single_sat;
  BitBlaster single(ctx, single_sat, /*strash=*/true);
  single.BlastVector(ctx.Mul(x, y));

  SmtSolver solver(ctx);
  solver.set_strash(true);
  solver.Assert(miter);
  EXPECT_EQ(solver.Check(), CheckResult::kUnsat);
  EXPECT_EQ(solver.last_conflicts(), 0u);
  EXPECT_EQ(solver.last_sat_vars(), single_sat.VarCount());

  // Verbatim, the same miter carries two multipliers (not solved here: at
  // 16 bits that takes seconds).
  SatSolver verbatim_sat;
  BitBlaster verbatim(ctx, verbatim_sat);
  verbatim.Assert(miter);
  const uint32_t shared = 1 + 2 * 16;  // constant true + the input bits
  EXPECT_GT(verbatim_sat.VarCount(), shared + 2 * (single_sat.VarCount() - shared));

  // At a width where search is cheap, the verbatim encoding still proves
  // the miter — by search, not by folding.
  SmtContext narrow;
  const SmtRef nx = narrow.Var("x", 6);
  const SmtRef ny = narrow.Var("y", 6);
  SmtSolver verbatim_solver(narrow);
  verbatim_solver.Assert(narrow.BoolNot(narrow.Eq(narrow.Mul(nx, ny), narrow.Mul(ny, nx))));
  EXPECT_EQ(verbatim_solver.Check(), CheckResult::kUnsat);
  EXPECT_GT(verbatim_solver.last_conflicts(), 0u);
}

// A random 5-bit term over `vars`. With `swap`, every commutative operator
// takes its operands in the other order: the same draws build a
// semantically equal but structurally different twin.
SmtRef RandomTerm(SmtContext& ctx, Rng& rng, const std::vector<SmtRef>& vars, int depth,
                  bool swap) {
  constexpr uint32_t kWidth = 5;
  if (depth == 0 || rng.Below(4) == 0) {
    if (rng.Below(3) == 0) {
      return ctx.Const(kWidth, rng.Below(1u << kWidth));
    }
    return vars[rng.Below(vars.size())];
  }
  const uint64_t op = rng.Below(10);
  SmtRef a = RandomTerm(ctx, rng, vars, depth - 1, swap);
  SmtRef b = RandomTerm(ctx, rng, vars, depth - 1, swap);
  const SmtRef left = swap ? b : a;
  const SmtRef right = swap ? a : b;
  switch (op) {
    case 0:
      return ctx.Add(left, right);
    case 1:
      return ctx.Mul(left, right);
    case 2:
      return ctx.And(left, right);
    case 3:
      return ctx.Or(left, right);
    case 4:
      return ctx.Xor(left, right);
    case 5:
      return ctx.Sub(a, b);
    case 6:
      return ctx.Shl(a, b);
    case 7:
      return ctx.Shr(a, b);
    case 8:
      return ctx.Concat(ctx.Extract(a, 4, 2), ctx.Extract(b, 1, 0));
    default:
      return ctx.Ite(ctx.Ult(a, b), ctx.Neg(a), b);
  }
}

TEST(BitBlasterTest, StrashAgreesWithVerbatimOnRandomFormulas) {
  // Even rounds: a miter of a term against its commuted twin (UNSAT).
  // Odd rounds: a random comparison of two independent terms (either).
  Rng rng(20261018);
  int sat_count = 0;
  int unsat_count = 0;
  for (int round = 0; round < 200; ++round) {
    SmtContext ctx;
    const std::vector<SmtRef> vars = {ctx.Var("x", 5), ctx.Var("y", 5), ctx.Var("z", 5)};
    SmtRef formula;
    if (round % 2 == 0) {
      const uint64_t seed = rng.Next();
      Rng first(seed);
      Rng second(seed);
      formula = ctx.BoolNot(ctx.Eq(RandomTerm(ctx, first, vars, 3, /*swap=*/false),
                                   RandomTerm(ctx, second, vars, 3, /*swap=*/true)));
    } else {
      const SmtRef a = RandomTerm(ctx, rng, vars, 3, false);
      const SmtRef b = RandomTerm(ctx, rng, vars, 3, false);
      formula = rng.Below(2) == 0 ? ctx.Eq(a, b) : ctx.Ult(a, b);
    }

    SmtSolver verbatim(ctx);
    verbatim.Assert(formula);
    SmtSolver strashed(ctx);
    strashed.set_strash(true);
    strashed.Assert(formula);
    const CheckResult expected = verbatim.Check();
    ASSERT_EQ(strashed.Check(), expected) << "round " << round;
    EXPECT_LE(strashed.last_sat_vars(), verbatim.last_sat_vars()) << "round " << round;
    if (expected == CheckResult::kSat) {
      ++sat_count;
      EXPECT_TRUE(ModelEvaluator(ctx, strashed.ExtractModel()).EvalBool(formula))
          << "round " << round;
    } else {
      ++unsat_count;
    }
  }
  // Both verdicts are exercised.
  EXPECT_GT(sat_count, 20);
  EXPECT_GT(unsat_count, 100);
}

TEST(TvStrashRegressionTest, HeavyTailEliminateSlicesPairNeedsFewConflicts) {
  // Program 18 of campaign seed 7, generated exactly as the campaign does
  // (effective generator options + the per-index program seed), validated
  // under the heavy-tail workload's two back-end faults. Before and after
  // EliminateSlices, one slice reads as concat-of-extracts and as
  // mask-or-shift over a 16-bit product: bit-identical logic, which the
  // verbatim encoding lowered to two multipliers (64,666 conflicts). The
  // conflict budget makes "at most 1,000" the pass condition.
  CampaignOptions options;
  options.seed = 7;
  options.num_programs = 40;
  GeneratorOptions generator = Campaign(options).EffectiveGeneratorOptions();
  generator.seed = ParallelCampaign::ProgramSeed(7, 18);
  const ProgramPtr program = ProgramGenerator(generator).Generate();

  BugConfig bugs;
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  bugs.Enable(BugId::kTofinoPhvNarrowWide);
  TvOptions tv;
  tv.conflict_budget = 1000;
  tv.query_time_limit_ms = 0;
  tv.program_budget_ms = 0;
  const TvReport report =
      TranslationValidator(PassManager::StandardPipeline(), tv).Validate(*program, bugs);
  ASSERT_FALSE(report.crashed) << report.crash_message;
  const TvPassResult* pair = nullptr;
  for (const TvPassResult& result : report.pass_results) {
    if (result.pass_name == "EliminateSlices") {
      pair = &result;
    }
  }
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair->verdict, TvVerdict::kEquivalent) << pair->detail;
}

}  // namespace
}  // namespace gauntlet
