// Deterministic mutation fuzzing of every on-disk format reader: the cache
// file, the shard result, snapshot/heartbeat/coverage JSON, the corpus
// manifest, and the mini-corpus reproducer triples (P4, STF, finding.json).
//
// The committed fixtures under testdata/formats/ were written by a release
// of the writers; each current-version fixture must load and re-serialize
// byte-identically, and an older version the reader still accepts must
// re-serialize to its current-version twin. Then every fixture is mutated
// by seeded truncations,
// byte flips and splices. Each mutant must either load and round-trip (its
// re-serialization loads back to the same bytes) or be rejected cleanly: a
// CompileError, or false plus an error message. Any other exception fails
// the test, and a crash or hang fails the test binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/cache/cache_file.h"
#include "src/cache/verdict_cache.h"
#include "src/dist/shard.h"
#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/obs/coverage.h"
#include "src/obs/health.h"
#include "src/obs/snapshot.h"
#include "src/runtime/corpus.h"
#include "src/support/error.h"
#include "src/support/file_io.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/target/stf.h"

namespace gauntlet {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerFixture = 300;

// Loads `text` and re-serializes it; nullopt when the reader rejected the
// text cleanly (false + a non-empty error, or a CompileError).
using RoundTrip = std::function<std::optional<std::string>(const std::string&)>;

// Adapts a `bool Parse(text, T*, error*)` / `std::string Render(T)` pair.
template <typename T>
RoundTrip JsonRoundTrip(bool (*parse)(const std::string&, T*, std::string*),
                        std::string (*render)(const T&)) {
  return [parse, render](const std::string& text) -> std::optional<std::string> {
    T value;
    std::string error;
    if (!parse(text, &value, &error)) {
      EXPECT_FALSE(error.empty()) << "rejected without an error message";
      return std::nullopt;
    }
    return render(value);
  };
}

// Adapts a reader that throws CompileError on malformed input.
RoundTrip ThrowingRoundTrip(std::function<std::string(const std::string&)> round_trip) {
  return [round_trip](const std::string& text) -> std::optional<std::string> {
    try {
      return round_trip(text);
    } catch (const CompileError&) {
      return std::nullopt;
    }
  };
}

std::string CacheRoundTrip(const std::string& text) {
  std::istringstream in(text);
  ValidationCache cache;
  LoadValidationCache(in, cache);
  std::ostringstream out;
  SaveValidationCaches({&cache}, out);
  return out.str();
}

std::string ShardRoundTrip(const std::string& text) {
  std::istringstream in(text);
  const ShardResult result = LoadShardResult(in);
  std::ostringstream out;
  SaveShardResult(result, out);
  return out.str();
}

std::string ProgramRoundTrip(const std::string& text) {
  return PrintProgram(*Parser::ParseString(text));
}

std::string StfRoundTrip(const std::string& text) { return EmitStf(ParseStf(text)); }

std::string Fixture(const std::string& relative) {
  return ReadFile(std::string(GAUNTLET_TESTDATA_DIR) + "/" + relative);
}

// One seeded mutation: truncation, byte flip, or a splice of a span of the
// text over another position.
std::string Mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  if (out.empty()) {
    return out;
  }
  const auto pick = [&rng](size_t bound) {
    return static_cast<size_t>(rng.Next() % static_cast<uint64_t>(bound));
  };
  switch (rng.Next() % 4) {
    case 0:
      out.resize(pick(out.size()));
      break;
    case 1:
      out[pick(out.size())] = static_cast<char>(rng.Next() & 0xff);
      break;
    case 2: {
      // A printable-byte flip: keeps tokens tokens, so the reader's deeper
      // checks (numerals, escapes, counts) see the damage.
      static const std::string kBytes = "0123456789-+x \n\"\\{}[],:abcdefu";
      out[pick(out.size())] = kBytes[pick(kBytes.size())];
      break;
    }
    default: {
      const size_t from = pick(out.size());
      const size_t length = 1 + pick(std::min<size_t>(64, out.size() - from));
      const std::string span = out.substr(from, length);
      const size_t to = pick(out.size());
      out.replace(to, pick(std::min<size_t>(64, out.size() - to) + 1), span);
      break;
    }
  }
  return out;
}

// The fixture must round-trip to `expected` (a current-version fixture: to
// itself); every mutant must round-trip to a fixed point or be rejected
// cleanly.
void FuzzFormat(const std::string& name, const std::string& fixture, const RoundTrip& round_trip,
                uint64_t seed, const std::string& expected) {
  SCOPED_TRACE(name);
  const std::optional<std::string> exact = round_trip(fixture);
  ASSERT_TRUE(exact.has_value()) << "fixture rejected";
  EXPECT_EQ(*exact, expected);

  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerFixture; ++i) {
    std::string mutant = Mutate(fixture, rng);
    if (rng.Next() % 4 == 0) {
      mutant = Mutate(mutant, rng);  // some mutants carry two defects
    }
    const std::optional<std::string> first = round_trip(mutant);
    if (!first.has_value()) {
      continue;
    }
    ++accepted;
    const std::optional<std::string> second = round_trip(*first);
    ASSERT_TRUE(second.has_value()) << "mutant " << i << ": re-serialization rejected\n"
                                    << *first;
    EXPECT_EQ(*second, *first) << "mutant " << i << ": no fixed point";
  }
  // Nothing to assert about the accepted share: byte flips inside strings
  // or numerals are legitimate values. It is printed for the log.
  std::printf("%s: %d of %d mutants accepted\n", name.c_str(), accepted, kMutantsPerFixture);
}

void FuzzFormat(const std::string& name, const std::string& fixture, const RoundTrip& round_trip,
                uint64_t seed) {
  FuzzFormat(name, fixture, round_trip, seed, fixture);
}

TEST(CodecFuzzTest, CacheFileV3) {
  FuzzFormat("cache-v3.cache", Fixture("formats/cache-v3.cache"),
             ThrowingRoundTrip(CacheRoundTrip), 1);
}

// A v2 file still loads (its blast templates are validated and dropped) and
// re-serializes as v3. Both fixtures were written by the same campaign, so
// the v2 file's verdict and summary sections come back as the v3 file.
TEST(CodecFuzzTest, CacheFileV2) {
  FuzzFormat("cache-v2.cache", Fixture("formats/cache-v2.cache"),
             ThrowingRoundTrip(CacheRoundTrip), 8, Fixture("formats/cache-v3.cache"));
}

TEST(CodecFuzzTest, ShardResultV2) {
  FuzzFormat("shard-v2.result", Fixture("formats/shard-v2.result"),
             ThrowingRoundTrip(ShardRoundTrip), 2);
}

// v1 carried the blast-template counters in its "cache" line, which has as
// many fields as v2's: only the version check keeps an old worker's result
// from loading with its counters misread.
TEST(CodecFuzzTest, ShardResultV1) {
  std::istringstream in(Fixture("formats/shard-v1.result"));
  EXPECT_THROW(LoadShardResult(in), CompileError);
}

TEST(CodecFuzzTest, Snapshots) {
  const RoundTrip round_trip = JsonRoundTrip<Snapshot>(ParseSnapshotJson, SnapshotJson);
  FuzzFormat("snapshot-coordinator.json", Fixture("formats/snapshot-coordinator.json"),
             round_trip, 3);
  FuzzFormat("snapshot-worker.json", Fixture("formats/snapshot-worker.json"), round_trip, 4);
}

TEST(CodecFuzzTest, Heartbeat) {
  FuzzFormat("heartbeat.json", Fixture("formats/heartbeat.json"),
             JsonRoundTrip<Heartbeat>(ParseHeartbeatJson, HeartbeatJson), 5);
}

TEST(CodecFuzzTest, Coverage) {
  FuzzFormat("coverage.json", Fixture("formats/coverage.json"),
             JsonRoundTrip<CoverageMap>(ParseCoverageJson, CoverageJson), 6);
}

TEST(CodecFuzzTest, CorpusManifest) {
  FuzzFormat("manifest.json", Fixture("formats/manifest.json"),
             JsonRoundTrip<CorpusManifest>(ParseCorpusManifestJson, CorpusManifestJson), 7);
}

const char* const kMiniCorpusKeys[] = {
    "bmv2-miss-runs-first-action",
    "ebpf-parser-extract-reversed",
    "tofino-action-data-endian-swap",
};

TEST(CodecFuzzTest, MiniCorpusProgramsAndStf) {
  uint64_t seed = 10;
  for (const char* key : kMiniCorpusKeys) {
    const std::string base = std::string("mini-corpus/") + key;
    FuzzFormat(base + ".p4", Fixture(base + ".p4"), ThrowingRoundTrip(ProgramRoundTrip),
               seed++);
    FuzzFormat(base + ".stf", Fixture(base + ".stf"), ThrowingRoundTrip(StfRoundTrip), seed++);
  }
}

// finding.json has no reader of its own: the legacy-directory migration
// reads it (best effort) into a manifest entry. The round trip is therefore
// "triple directory -> manifest", through the same strict JSON reader.
TEST(CodecFuzzTest, MiniCorpusFindingJson) {
  const fs::path dir = fs::temp_directory_path() / "gauntlet_codec_fuzz_findings";
  uint64_t seed = 20;
  for (const char* key : kMiniCorpusKeys) {
    const std::string base = std::string("mini-corpus/") + key;
    const std::string fixture = Fixture(base + ".finding.json");
    fs::remove_all(dir);
    fs::create_directories(dir);
    ASSERT_TRUE(WriteFile((dir / (std::string(key) + ".p4")).string(), Fixture(base + ".p4")));
    ASSERT_TRUE(WriteFile((dir / (std::string(key) + ".stf")).string(), Fixture(base + ".stf")));
    const auto migrate = [&](const std::string& finding_json) {
      EXPECT_TRUE(WriteFile((dir / (std::string(key) + ".finding.json")).string(), finding_json));
      const CorpusManifest manifest = LoadCorpusManifest(dir.string());
      EXPECT_NE(manifest.Find(key), nullptr);
      return manifest.Find(key) == nullptr ? CorpusManifestEntry{} : *manifest.Find(key);
    };

    // Unmutated: every metadata field comes back.
    const JsonValue finding = JsonValue::Parse(fixture);
    const CorpusManifestEntry entry = migrate(fixture);
    EXPECT_EQ(entry.method, finding.Find("method")->AsString());
    EXPECT_EQ(entry.kind, finding.Find("kind")->AsString());
    EXPECT_EQ(entry.component, finding.Find("component")->AsString());
    EXPECT_EQ(entry.attributed, finding.Find("attributed")->AsString());
    EXPECT_EQ(static_cast<uint64_t>(entry.program_index), finding.Find("program_index")->AsU64());

    // Mutated: metadata is best effort, so the migration never fails, and a
    // mutant the JSON reader rejects leaves the entry's defaults.
    Rng rng(seed++);
    for (int i = 0; i < kMutantsPerFixture; ++i) {
      const std::string mutant = Mutate(fixture, rng);
      const CorpusManifestEntry fuzzed = migrate(mutant);
      std::string error;
      if (!ReadJson(mutant, [](const JsonValue&) {}, &error)) {
        EXPECT_TRUE(fuzzed.method.empty() && fuzzed.kind.empty()) << "mutant " << i;
      }
    }
  }
  fs::remove_all(dir);
}

// A nesting bomb in any JSON reader fails on the depth cap, never on the
// stack.
TEST(CodecFuzzTest, NestingBombsFailCleanly) {
  for (const std::string& bomb :
       {std::string(1 << 20, '['), std::string(1 << 20, '{'),
        "{\"version\": 1, \"a\": " + std::string(1 << 20, '[') + std::string(1 << 20, ']') + "}"}) {
    Snapshot snapshot;
    Heartbeat heartbeat;
    CoverageMap coverage;
    CorpusManifest manifest;
    std::string error;
    EXPECT_FALSE(ParseSnapshotJson(bomb, &snapshot, &error));
    EXPECT_FALSE(ParseHeartbeatJson(bomb, &heartbeat, &error));
    EXPECT_FALSE(ParseCoverageJson(bomb, &coverage, &error));
    EXPECT_FALSE(ParseCorpusManifestJson(bomb, &manifest, &error));
    EXPECT_THROW(JsonValue::Parse(bomb), CompileError);
  }
}

}  // namespace
}  // namespace gauntlet
