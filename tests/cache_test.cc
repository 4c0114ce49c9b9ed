// The src/cache/ memoization subsystem: structural-hash properties
// (commutative normalization, cross-context stability), verdict-cache
// short-circuits, block-summary memoization, cross-run cache files, and the
// end-to-end guarantee the whole subsystem is built around — campaign
// reports, TV verdicts and generated tests are bit-identical with caching
// on or off.

#include <gtest/gtest.h>

#include "src/cache/cache_file.h"
#include "src/cache/summary_cache.h"
#include "src/cache/verdict_cache.h"
#include "src/frontend/parser.h"
#include "src/runtime/parallel_campaign.h"
#include "src/smt/solver.h"
#include "src/sym/interpreter.h"
#include "src/target/stf.h"
#include "src/testgen/testgen.h"
#include "src/tv/validator.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {
namespace {

// --- structural hashing ----------------------------------------------------

TEST(StructHashTest, CanonicalModeNormalizesCommutativeOps) {
  SmtContext ctx;
  const SmtRef a = ctx.Var("a", 8);
  const SmtRef b = ctx.Var("b", 8);
  StructHasher canonical(ctx);

  EXPECT_EQ(canonical.Hash(ctx.Add(a, b)), canonical.Hash(ctx.Add(b, a)));
  EXPECT_EQ(canonical.Hash(ctx.Mul(a, b)), canonical.Hash(ctx.Mul(b, a)));
  EXPECT_EQ(canonical.Hash(ctx.Xor(a, b)), canonical.Hash(ctx.Xor(b, a)));
  // Non-commutative operators are never normalized.
  EXPECT_NE(canonical.Hash(ctx.Sub(a, b)), canonical.Hash(ctx.Sub(b, a)));
  EXPECT_NE(canonical.Hash(ctx.Ult(a, b)), canonical.Hash(ctx.Ult(b, a)));
  EXPECT_NE(canonical.Hash(ctx.Shl(a, b)), canonical.Hash(ctx.Shl(b, a)));
}

TEST(StructHashTest, DistinctStructuresGetDistinctFingerprints) {
  SmtContext ctx;
  const SmtRef a = ctx.Var("a", 16);
  const SmtRef b = ctx.Var("b", 16);
  StructHasher hasher(ctx);
  EXPECT_NE(hasher.Hash(ctx.Add(a, b)), hasher.Hash(ctx.Mul(a, b)));
  EXPECT_NE(hasher.Hash(ctx.Const(16, 3)), hasher.Hash(ctx.Const(16, 4)));
  EXPECT_NE(hasher.Hash(ctx.Const(16, 3)), hasher.Hash(ctx.Const(8, 3)));
  EXPECT_NE(hasher.Hash(ctx.Extract(a, 7, 0)), hasher.Hash(ctx.Extract(a, 15, 8)));
  EXPECT_NE(hasher.Hash(a), hasher.Hash(b));
}

TEST(StructHashTest, FingerprintsAreStableAcrossContextsByVariableName) {
  // Two contexts interning the same structure under the same names must
  // agree — this is what lets one worker's cache span programs. A third
  // context with a different variable name must not collide.
  Fingerprint first;
  {
    SmtContext ctx;
    StructHasher hasher(ctx);
    first = hasher.Hash(ctx.Add(ctx.Var("hdr.h0.f0", 8), ctx.Const(8, 7)));
  }
  SmtContext ctx2;
  // Interleave an unrelated variable so the var_ids differ from context 1.
  ctx2.Var("unrelated", 4);
  StructHasher hasher2(ctx2);
  EXPECT_EQ(first, hasher2.Hash(ctx2.Add(ctx2.Var("hdr.h0.f0", 8), ctx2.Const(8, 7))));
  EXPECT_NE(first, hasher2.Hash(ctx2.Add(ctx2.Var("hdr.h0.f1", 8), ctx2.Const(8, 7))));
}

// --- verdict cache ---------------------------------------------------------

const char* kMultiPassProgram = R"(
bit<8> helper(in bit<8> v) { return v + 8w3; }
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) {
  action flip() {
    if (hdr.h.a == 8w0) { hdr.h.b = 8w1; } else { hdr.h.b = helper(hdr.h.a); }
  }
  table t {
    key = { hdr.h.a : exact; }
    actions = { flip; NoAction; }
    default_action = flip();
  }
  apply { t.apply(); }
}
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)";

void ExpectSameVerdicts(const TvReport& a, const TvReport& b) {
  ASSERT_EQ(a.pass_results.size(), b.pass_results.size());
  for (size_t i = 0; i < a.pass_results.size(); ++i) {
    EXPECT_EQ(a.pass_results[i].pass_name, b.pass_results[i].pass_name);
    EXPECT_EQ(a.pass_results[i].verdict, b.pass_results[i].verdict) << "pair " << i;
    EXPECT_EQ(a.pass_results[i].detail, b.pass_results[i].detail) << "pair " << i;
  }
}

// A program whose predicated if/else the seeded Predication fault provably
// miscompiles (the detection-matrix trigger shape): guarantees a
// kSemanticDiff pair in the validation below.
const char* kPredicationProgram = R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) {
  action flip() {
    if (hdr.h.a == 8w0) { hdr.h.b = 8w1; } else { hdr.h.b = 8w2; }
  }
  table t {
    key = { hdr.h.a : exact; }
    actions = { flip; NoAction; }
    default_action = flip();
  }
  apply { t.apply(); }
}
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)";

TEST(VerdictCacheTest, RevalidationSkipsItsQueries) {
  auto program = Parser::ParseString(kPredicationProgram);
  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  const TranslationValidator validator(PassManager::StandardPipeline());

  const TvReport uncached = validator.Validate(*program, bugs);

  ValidationCache cache;
  const TvReport first = validator.Validate(*program, bugs, /*stop_after_pass=*/{}, &cache);
  ExpectSameVerdicts(uncached, first);
  ASSERT_TRUE(first.HasSemanticDiff());

  // The find-fix / attribution pattern: the same program validated again
  // against the same cache answers every pair from the verdict cache.
  const CacheStats before = cache.Stats();
  const TvReport second = validator.Validate(*program, bugs, /*stop_after_pass=*/{}, &cache);
  ExpectSameVerdicts(uncached, second);
  const CacheStats after = cache.Stats();
  EXPECT_GT(after.verdict_hits + after.pairs_short_circuited,
            before.verdict_hits + before.pairs_short_circuited);
  EXPECT_GE(after.queries_skipped, before.queries_skipped);
}

TEST(VerdictCacheTest, CanonicallyIdenticalPairShortCircuits) {
  // A pure commutative rewrite: hash-consing sees different DAGs, the
  // canonical fingerprint proves equivalence without any SAT query.
  auto before = Parser::ParseString(
      "control ig(inout bit<8> x, inout bit<8> y) { apply { x = x + y; } }\n"
      "package main { ingress = ig; }\n");
  auto after = Parser::ParseString(
      "control ig(inout bit<8> x, inout bit<8> y) { apply { x = y + x; } }\n"
      "package main { ingress = ig; }\n");
  TypeCheck(*before);
  TypeCheck(*after);

  const TvPassResult uncached =
      TranslationValidator::CompareVersions(*before, *after, "Commute");
  EXPECT_EQ(uncached.verdict, TvVerdict::kEquivalent);

  ValidationCache cache;
  const TvPassResult cached =
      TranslationValidator::CompareVersions(*before, *after, "Commute", &cache);
  EXPECT_EQ(cached.verdict, TvVerdict::kEquivalent);
  EXPECT_EQ(cache.Stats().pairs_short_circuited, 1u);
}

TEST(VerdictCacheTest, BeginProgramScopesVerdictsButKeepsSummaryFingerprints) {
  auto program = Parser::ParseString(kMultiPassProgram);
  ValidationCache cache;
  const TranslationValidator validator(PassManager::StandardPipeline());
  validator.Validate(*program, BugConfig::None(), /*stop_after_pass=*/{}, &cache);
  const auto fingerprints = cache.summaries().stored_fingerprints();
  ASSERT_FALSE(fingerprints.empty());
  const size_t verdicts = cache.verdicts().size();
  cache.BeginProgram();
  // Summary fingerprints are keyed by block content, so they outlive the
  // program scope; verdicts do not.
  EXPECT_EQ(cache.summaries().stored_fingerprints(), fingerprints);
  EXPECT_EQ(cache.verdicts().size(), 0u);
  // Counters survive the scope boundary (every stored verdict was a miss).
  EXPECT_GE(cache.Stats().verdict_misses, verdicts);
}

// --- block-summary memoization (src/cache/summary_cache) -------------------

TEST(SummaryCacheTest, UnchangedBlocksInterpretOncePerContext) {
  // Validating a multi-pass program interprets many versions whose parser
  // and deparser never change: the summary cache must hit for them, and the
  // verdicts must match a run with memoization off.
  auto program = Parser::ParseString(kMultiPassProgram);
  const TranslationValidator validator(PassManager::StandardPipeline());

  TvOptions no_memo;
  no_memo.memoize_block_summaries = false;
  const TranslationValidator baseline(PassManager::StandardPipeline(), no_memo);

  ValidationCache memo_cache;
  ValidationCache plain_cache;
  const TvReport memoized =
      validator.Validate(*program, BugConfig::None(), /*stop_after_pass=*/{}, &memo_cache);
  const TvReport plain =
      baseline.Validate(*program, BugConfig::None(), /*stop_after_pass=*/{}, &plain_cache);
  ExpectSameVerdicts(memoized, plain);
  EXPECT_GT(memo_cache.Stats().summary_hits, 0u);
  EXPECT_GT(memo_cache.Stats().summary_misses, 0u);
  // With memoization off the subsystem is fully bypassed.
  EXPECT_EQ(plain_cache.Stats().summary_hits, 0u);
  EXPECT_EQ(plain_cache.Stats().summary_misses, 0u);
  EXPECT_EQ(plain_cache.Stats().summary_fps_reused, 0u);
}

TEST(SummaryCacheTest, KeySeparatesRoleEnvironmentAndBlockSource) {
  auto program = Parser::ParseString(kMultiPassProgram);
  TypeCheck(*program);
  const Fingerprint env = BlockEnvironmentFingerprint(*program, /*table_entries=*/1);

  // A different table-entry count encodes differently: new environment.
  EXPECT_NE(env, BlockEnvironmentFingerprint(*program, /*table_entries=*/2));

  // Changing a top-level function (a helper a block may call) changes the
  // environment even though no block body changed.
  auto changed = Parser::ParseString(
      std::string(kMultiPassProgram).replace(std::string(kMultiPassProgram).find("8w3"), 3,
                                             "8w4"));
  TypeCheck(*changed);
  EXPECT_NE(env, BlockEnvironmentFingerprint(*changed, /*table_entries=*/1));

  // Distinct package blocks get distinct keys; every key is valid.
  std::vector<Fingerprint> keys;
  for (const PackageBlock& block : program->package()) {
    const Fingerprint key = BlockSummaryKey(env, *program, block);
    ASSERT_TRUE(key.IsValid());
    for (const Fingerprint& previous : keys) {
      EXPECT_FALSE(key == previous);
    }
    keys.push_back(key);
  }

  // A dangling block declaration cannot be keyed.
  PackageBlock missing{BlockRole::kIngress, "no_such_control"};
  EXPECT_FALSE(BlockSummaryKey(env, *program, missing).IsValid());
}

TEST(SummaryCacheTest, HitReturnsTheIdenticalSemantics) {
  // Two interpretations of the same block in one context produce the same
  // SmtRefs (hash-consing + per-call undef numbering), which is exactly why
  // a summary hit is invisible: check that equivalence holds end to end by
  // comparing the memoized Validate against itself re-run in a new context.
  auto program = Parser::ParseString(kPredicationProgram);
  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  const TranslationValidator validator(PassManager::StandardPipeline());
  const TvReport cold = validator.Validate(*program, bugs);
  ValidationCache cache;
  const TvReport memoized = validator.Validate(*program, bugs, /*stop_after_pass=*/{}, &cache);
  ExpectSameVerdicts(cold, memoized);
  ASSERT_TRUE(memoized.HasSemanticDiff());
  // The semantic-diff witness — the most model-sensitive output — matches.
  const TvPassResult* cold_diff = cold.FirstNonEquivalent();
  const TvPassResult* memo_diff = memoized.FirstNonEquivalent();
  ASSERT_NE(cold_diff, nullptr);
  ASSERT_NE(memo_diff, nullptr);
  EXPECT_EQ(cold_diff->counterexample.bit_values, memo_diff->counterexample.bit_values);
  EXPECT_EQ(cold_diff->counterexample.bool_values, memo_diff->counterexample.bool_values);
}

// --- cross-run persistence (src/cache/cache_file) --------------------------

TEST(CacheFileTest, RoundTripRestoresProgramScopedVerdictsAndSummaries) {
  // Populate a cache the way a campaign does: validate a program under a
  // program key, then serialize and reload into a fresh cache.
  auto program = Parser::ParseString(kMultiPassProgram);
  ValidationCache original;
  original.BeginProgram(/*program_key=*/0x1234);
  const TranslationValidator validator(PassManager::StandardPipeline());
  validator.Validate(*program, BugConfig::None(), /*stop_after_pass=*/{}, &original);
  ASSERT_GT(original.verdicts().size(), 0u);
  ASSERT_FALSE(original.summaries().stored_fingerprints().empty());
  const size_t verdict_count = original.verdicts().size();

  std::stringstream stream;
  SaveValidationCaches({&original}, stream);

  ValidationCache reloaded;
  LoadValidationCache(stream, reloaded);
  EXPECT_EQ(reloaded.summaries().stored_fingerprints(),
            original.summaries().stored_fingerprints());
  ASSERT_EQ(reloaded.stored_verdicts().count(0x1234), 1u);
  EXPECT_EQ(reloaded.stored_verdicts().at(0x1234).size(), verdict_count);

  // The verdicts are program-scoped: entering a different program preloads
  // nothing, entering the stored key preloads everything.
  reloaded.BeginProgram(0x9999);
  EXPECT_EQ(reloaded.verdicts().size(), 0u);
  reloaded.BeginProgram(0x1234);
  EXPECT_EQ(reloaded.verdicts().size(), verdict_count);

  // A warm re-validation answers every pass pair from the reloaded state
  // with the identical verdicts.
  const TvReport cold = validator.Validate(*program, BugConfig::None());
  const TvReport warm =
      validator.Validate(*program, BugConfig::None(), /*stop_after_pass=*/{}, &reloaded);
  ASSERT_EQ(warm.pass_results.size(), cold.pass_results.size());
  for (size_t i = 0; i < warm.pass_results.size(); ++i) {
    EXPECT_EQ(warm.pass_results[i].verdict, cold.pass_results[i].verdict);
    EXPECT_EQ(warm.pass_results[i].pass_name, cold.pass_results[i].pass_name);
  }
}

TEST(CacheFileTest, SemanticDiffWitnessSurvivesTheRoundTrip) {
  // A stored kSemanticDiff entry must reload with its witness model intact —
  // the reuse path hands the witness back instead of re-solving for one.
  VerdictCache::Entry entry;
  entry.queries = 2;
  entry.result.pass_name = "Predication";
  entry.result.verdict = TvVerdict::kSemanticDiff;
  entry.result.detail = "solver found a disagreeing input";
  entry.result.counterexample.bit_values.emplace("hdr.h.a", BitValue(8, 0xab));
  entry.result.counterexample.bool_values.emplace("hdr.h.$valid", true);
  ValidationCache original;
  original.PreloadVerdict(7, Fingerprint{1, 2}, entry);

  std::stringstream stream;
  SaveValidationCaches({&original}, stream);
  ValidationCache reloaded;
  LoadValidationCache(stream, reloaded);

  const auto& group = reloaded.stored_verdicts().at(7);
  ASSERT_EQ(group.size(), 1u);
  const VerdictCache::Entry& back = group.at(Fingerprint{1, 2});
  EXPECT_EQ(back.queries, 2u);
  EXPECT_EQ(back.result.verdict, TvVerdict::kSemanticDiff);
  EXPECT_EQ(back.result.detail, "solver found a disagreeing input");
  EXPECT_EQ(back.result.counterexample.bit_values.at("hdr.h.a").bits(), 0xabu);
  EXPECT_TRUE(back.result.counterexample.bool_values.at("hdr.h.$valid"));
}

TEST(CacheFileTest, SummaryFingerprintsSurviveTheRoundTrip) {
  // A validated program records block-summary → semantics fingerprints; the
  // v2 cache file persists them so a warm run can skip the canonical DAG
  // hashing behind version fingerprints.
  auto program = Parser::ParseString(kMultiPassProgram);
  ValidationCache original;
  const TranslationValidator validator(PassManager::StandardPipeline());
  validator.Validate(*program, BugConfig::None(), /*stop_after_pass=*/{}, &original);
  ASSERT_FALSE(original.summaries().stored_fingerprints().empty());

  std::stringstream stream;
  SaveValidationCaches({&original}, stream);
  ValidationCache reloaded;
  LoadValidationCache(stream, reloaded);
  EXPECT_EQ(reloaded.summaries().stored_fingerprints(),
            original.summaries().stored_fingerprints());

  // A warm validation against the reloaded table reuses stored fingerprints
  // and reaches identical verdicts.
  const TvReport cold = validator.Validate(*program, BugConfig::None());
  const TvReport warm =
      validator.Validate(*program, BugConfig::None(), /*stop_after_pass=*/{}, &reloaded);
  ExpectSameVerdicts(cold, warm);
  EXPECT_GT(reloaded.Stats().summary_fps_reused, 0u);
}

TEST(CacheFileTest, VersionOneFilesStillLoad) {
  // A v1 file (no summaries section) is a valid cold start for the summary
  // layer; its blast/verdict sections load normally.
  std::stringstream v1(
      "gauntletcache 1\n"
      "blast 0\n"
      "programs 1\n"
      "prog 7 1\n"
      "1 2 2 0 - - 0 0\n");
  ValidationCache cache;
  LoadValidationCache(v1, cache);
  EXPECT_EQ(cache.stored_verdicts().at(7).size(), 1u);
  EXPECT_TRUE(cache.summaries().stored_fingerprints().empty());
}

TEST(CacheFileTest, MalformedInputFailsLoudly) {
  ValidationCache cache;
  {
    std::stringstream garbage("not a cache file\n");
    EXPECT_THROW(LoadValidationCache(garbage, cache), CompileError);
  }
  {
    std::stringstream wrong_version("gauntletcache 99\n");
    EXPECT_THROW(LoadValidationCache(wrong_version, cache), CompileError);
  }
  {
    std::stringstream truncated("gauntletcache 1\nblast 2\n1 2 0 0 0 0 0 0\n");
    EXPECT_THROW(LoadValidationCache(truncated, cache), CompileError);
  }
  // A missing file is a cold start, not an error.
  EXPECT_FALSE(LoadValidationCacheFile("/nonexistent/gauntlet.cache", cache));
}

// Loads `text` as a cache file into a fresh cache; a CompileError is the
// only acceptable failure (anything else escapes and fails the test).
void LoadCacheText(const std::string& text) {
  std::stringstream stream(text);
  ValidationCache cache;
  LoadValidationCache(stream, cache);
}

TEST(CacheFileTest, VersionThreeFilesCarryNoTemplateSection) {
  const std::string body = "programs 1\nprog 7 1\n1 2 2 0 - - 0 0\nsummaries 1\n1 2 3 4\n";
  ValidationCache cache;
  std::stringstream v3("gauntletcache 3\n" + body);
  LoadValidationCache(v3, cache);
  EXPECT_EQ(cache.stored_verdicts().at(7).size(), 1u);
  EXPECT_EQ(cache.summaries().stored_fingerprints().size(), 1u);
  // The section v1/v2 files carry is not part of v3.
  EXPECT_THROW(LoadCacheText("gauntletcache 3\nblast 0\n" + body), CompileError);
}

TEST(CacheFileTest, UntrustedCountsNeverSizeAnAllocation) {
  // A count far past what the line holds must fail as a file error, not as
  // a bad_alloc/length_error from sizing a vector by it.
  for (const char* count : {"1000000000000", "-1", "18446744073709551615"}) {
    EXPECT_THROW(LoadCacheText(std::string("gauntletcache 2\nblast 1\n1 2 0 0 0 ") + count +
                               " 0 0\nprograms 0\nsummaries 0\n"),
                 CompileError)
        << count;
  }
}

TEST(CacheFileTest, NumeralsMustBeWholeUnsignedTokens) {
  const std::string head = "gauntletcache 2\nblast 0\nprograms 0\nsummaries 1\n";
  LoadCacheText(head + "1 2 3 4\n");  // the well-formed baseline loads
  EXPECT_THROW(LoadCacheText(head + "-5 2 3 4\n"), CompileError);  // not 2^64-5
  EXPECT_THROW(LoadCacheText(head + "1 2 3 7x\n"), CompileError);  // not 7
  EXPECT_THROW(LoadCacheText(head + "1 2 3 +4\n"), CompileError);
  EXPECT_THROW(LoadCacheText(head + "1 2 3 18446744073709551616\n"), CompileError);
}

TEST(CacheFileTest, TrailingTokensAndLinesAreRejected) {
  EXPECT_THROW(LoadCacheText("gauntletcache 2 extra\nblast 0\nprograms 0\nsummaries 0\n"),
               CompileError);
  EXPECT_THROW(LoadCacheText("gauntletcache 2\nblast 0\nprograms 0\nsummaries 1\n1 2 3 4 5\n"),
               CompileError);
  EXPECT_THROW(LoadCacheText("gauntletcache 2\nblast 0\nprograms 0\nsummaries 0\nextra\n"),
               CompileError);
}

TEST(CacheFileTest, WitnessWidthsAreRangeChecked) {
  const auto with_witness = [](const std::string& width_and_bits) {
    return "gauntletcache 2\nblast 0\nprograms 1\nprog 7 1\n1 2 2 1 - - 1 6e " +
           width_and_bits + " 0\nsummaries 0\n";
  };
  LoadCacheText(with_witness("8 255"));  // the well-formed baseline loads
  for (const char* bad : {"0 5", "65 1", "4294967304 1", "8 256"}) {
    EXPECT_THROW(LoadCacheText(with_witness(bad)), CompileError) << bad;
  }
}

TEST(CacheFileTest, NarrowFieldsAreRangeChecked) {
  // A 32-bit query count or literal past its range must not wrap silently.
  EXPECT_THROW(LoadCacheText("gauntletcache 2\nblast 0\nprograms 1\nprog 7 1\n"
                             "1 2 4294967298 0 - - 0 0\nsummaries 0\n"),
               CompileError);
  EXPECT_THROW(LoadCacheText("gauntletcache 2\nblast 1\n1 2 4294967296 0 0 0 0 0\n"
                             "programs 0\nsummaries 0\n"),
               CompileError);
}

TEST(CacheFileTest, InconsistentBlastTemplatesAreRejected) {
  const auto with_template = [](const std::string& body) {
    return "gauntletcache 2\nblast 1\n1 2 " + body + "\nprograms 0\nsummaries 0\n";
  };
  // 1 input, 1 fresh literal, one 2-literal clause over slots 1 and 2,
  // output slot 2: replayable.
  LoadCacheText(with_template("1 1 1 2 -1 2 2 2 4 1 4"));
  // A clause reading past the literal stream, a literal naming a slot that
  // does not exist yet, and a fresh count that disagrees with the events.
  EXPECT_THROW(LoadCacheText(with_template("1 1 1 2 -1 3 2 2 4 1 4")), CompileError);
  EXPECT_THROW(LoadCacheText(with_template("1 1 1 2 -1 2 2 2 6 1 4")), CompileError);
  EXPECT_THROW(LoadCacheText(with_template("1 0 1 2 -1 2 2 2 4 1 4")), CompileError);
}

// --- end-to-end bit-identity ----------------------------------------------

void ExpectIdenticalReports(const CampaignReport& a, const CampaignReport& b) {
  EXPECT_EQ(a.programs_generated, b.programs_generated);
  EXPECT_EQ(a.programs_with_crash, b.programs_with_crash);
  EXPECT_EQ(a.programs_with_semantic, b.programs_with_semantic);
  EXPECT_EQ(a.tests_generated, b.tests_generated);
  EXPECT_EQ(a.undef_divergences, b.undef_divergences);
  EXPECT_EQ(a.structural_mismatches, b.structural_mismatches);
  EXPECT_EQ(a.distinct_bugs, b.distinct_bugs);
  EXPECT_EQ(a.unattributed_components, b.unattributed_components);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    const Finding& fa = a.findings[i];
    const Finding& fb = b.findings[i];
    EXPECT_EQ(fa.program_index, fb.program_index);
    EXPECT_EQ(fa.method, fb.method);
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.component, fb.component);
    EXPECT_EQ(fa.attributed, fb.attributed);
    EXPECT_EQ(fa.detail, fb.detail);
    EXPECT_EQ(fa.repro_test.has_value(), fb.repro_test.has_value());
    if (fa.repro_test.has_value() && fb.repro_test.has_value()) {
      EXPECT_EQ(EmitStf(*fa.repro_test), EmitStf(*fb.repro_test));
    }
  }
}

TEST(CacheIdentityTest, TestgenOutputIsBitIdenticalWithAndWithoutCache) {
  auto program = Parser::ParseString(kMultiPassProgram);
  TypeCheck(*program);
  const std::vector<PacketTest> plain = TestCaseGenerator().Generate(*program);
  ValidationCache cache;
  // Warm the cache through the validator, then generate twice: a cache the
  // validator filled must not perturb a single test.
  TranslationValidator(PassManager::StandardPipeline())
      .Validate(*program, BugConfig::None(), /*stop_after_pass=*/{}, &cache);
  const std::vector<PacketTest> warm = TestCaseGenerator().Generate(*program, &cache);
  const std::vector<PacketTest> cached = TestCaseGenerator().Generate(*program, &cache);
  EXPECT_EQ(EmitStf(plain), EmitStf(warm));
  EXPECT_EQ(EmitStf(plain), EmitStf(cached));
  EXPECT_GT(cache.Stats().verdict_hits + cache.Stats().pairs_short_circuited, 0u);
}

TEST(CacheIdentityTest, CampaignReportsAreBitIdenticalWithAndWithoutCache) {
  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  bugs.Enable(BugId::kTypeCheckerShiftCrash);

  ParallelCampaignOptions options;
  options.campaign.seed = 77;
  options.campaign.num_programs = 14;
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;
  // Unlimited wall clocks (conflict budgets still bound the work): the
  // cached run finishing faster — or ctest load slowing either run — must
  // not be able to change a verdict or drop a path through a time budget.
  options.campaign.tv.program_budget_ms = 0;
  options.campaign.tv.query_time_limit_ms = 0;
  options.campaign.testgen.query_time_limit_ms = 0;
  options.jobs = 4;

  ParallelCampaignOptions no_cache = options;
  no_cache.campaign.use_cache = false;

  CacheStats stats;
  const CampaignReport cached = ParallelCampaign(options).Run(bugs, &stats);
  const CampaignReport plain = ParallelCampaign(no_cache).Run(bugs);
  ExpectIdenticalReports(cached, plain);
  ASSERT_FALSE(cached.findings.empty());
  EXPECT_GT(stats.verdict_hits + stats.pairs_short_circuited, 0u);

  // And the cached run stays jobs-count deterministic.
  ParallelCampaignOptions serial = options;
  serial.jobs = 1;
  const CampaignReport one_job = ParallelCampaign(serial).Run(bugs);
  ExpectIdenticalReports(cached, one_job);
}

TEST(CacheIdentityTest, CampaignReportsAreBitIdenticalWithIncrementalOnOrOff) {
  // The incremental solver hot path (assumption-trail reuse + block-summary
  // memoization) changes the work, never the bytes: reports must match for
  // every combination of the mode and the worker count.
  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);

  ParallelCampaignOptions options;
  options.campaign.seed = 91;
  options.campaign.num_programs = 12;
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;
  // Unlimited wall clocks: a faster mode must not fit more work into a
  // time budget (the conflict budgets still bound the work; they are
  // deterministic by construction).
  options.campaign.tv.program_budget_ms = 0;
  options.campaign.tv.query_time_limit_ms = 0;
  options.campaign.testgen.query_time_limit_ms = 0;
  options.jobs = 1;

  ParallelCampaignOptions no_incremental = options;
  no_incremental.campaign.testgen.incremental_solving = false;
  no_incremental.campaign.tv.memoize_block_summaries = false;

  const CampaignReport on_serial = ParallelCampaign(options).Run(bugs);
  const CampaignReport off_serial = ParallelCampaign(no_incremental).Run(bugs);
  ExpectIdenticalReports(on_serial, off_serial);
  ASSERT_FALSE(on_serial.findings.empty());

  options.jobs = 8;
  no_incremental.jobs = 8;
  const CampaignReport on_parallel = ParallelCampaign(options).Run(bugs);
  const CampaignReport off_parallel = ParallelCampaign(no_incremental).Run(bugs);
  ExpectIdenticalReports(on_serial, on_parallel);
  ExpectIdenticalReports(on_serial, off_parallel);
}

}  // namespace
}  // namespace gauntlet
