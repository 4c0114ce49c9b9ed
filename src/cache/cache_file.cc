#include "src/cache/cache_file.h"

#include <fstream>
#include <map>
#include <memory>
#include <vector>

#include "src/cache/verdict_cache.h"
#include "src/support/bit_value.h"
#include "src/support/error.h"
#include "src/support/record.h"

namespace gauntlet {

namespace {

constexpr const char* kMagic = "gauntletcache";
// v2 added the "summaries" section (block summary key → canonical
// semantics fingerprint); v3 dropped the "blast" section of the retired
// blast-template cache. v1 and v2 files still load: their templates are
// parsed as strictly as ever and then dropped, and a v1 file simply carries
// no summary fingerprints.
constexpr int kVersion = 3;

// Parses one v1/v2 blast-template line and drops it. The structural check
// is the one the template replayer relied on — events are -1 (fresh
// literal) or a clause size, the counts match the streams, and every
// literal names a tape slot that exists at the point it is read — so a
// corrupt old file still fails the load instead of loading silently.
void SkipBlastTemplate(RecordReader& reader) {
  reader.U64("fingerprint hi");
  reader.U64("fingerprint lo");
  uint64_t tape = 1 + uint64_t{reader.Read<uint32_t>("input count")};
  const uint32_t fresh_count = reader.Read<uint32_t>("fresh count");
  const uint32_t clause_count = reader.Read<uint32_t>("clause count");
  std::vector<int32_t> events(reader.InlineCount("event count"));
  for (int32_t& event : events) {
    event = reader.Read<int32_t>("event");
  }
  std::vector<uint32_t> clause_lits(reader.InlineCount("clause literal count"));
  for (uint32_t& lit : clause_lits) {
    lit = reader.Read<uint32_t>("literal");
  }
  std::vector<uint32_t> outputs(reader.InlineCount("output count"));
  for (uint32_t& output : outputs) {
    output = reader.Read<uint32_t>("output");
  }

  const auto consistent = [&] {
    uint64_t fresh = 0;
    uint64_t clauses = 0;
    size_t lit = 0;
    for (const int32_t event : events) {
      if (event == -1) {
        ++tape;
        ++fresh;
        continue;
      }
      if (event < 0 || static_cast<size_t>(event) > clause_lits.size() - lit) {
        return false;
      }
      ++clauses;
      for (int32_t i = 0; i < event; ++i, ++lit) {
        if ((clause_lits[lit] >> 1) >= tape) {
          return false;
        }
      }
    }
    for (const uint32_t output : outputs) {
      if ((output >> 1) >= tape) {
        return false;
      }
    }
    return fresh == fresh_count && clauses == clause_count && lit == clause_lits.size();
  };
  if (!consistent()) {
    reader.Fail("expected a consistent blast template");
  }
}

void WriteVerdict(std::ostream& out, const Fingerprint& key, const VerdictCache::Entry& entry) {
  const TvPassResult& result = entry.result;
  out << key.hi << ' ' << key.lo << ' ' << entry.queries << ' '
      << static_cast<int>(result.verdict) << ' ' << HexToken(result.pass_name) << ' '
      << HexToken(result.detail) << ' ' << result.counterexample.bit_values.size();
  for (const auto& [name, value] : result.counterexample.bit_values) {
    out << ' ' << HexToken(name) << ' ' << value.width() << ' ' << value.bits();
  }
  out << ' ' << result.counterexample.bool_values.size();
  for (const auto& [name, value] : result.counterexample.bool_values) {
    out << ' ' << HexToken(name) << ' ' << (value ? 1 : 0);
  }
  out << '\n';
}

}  // namespace

void SaveValidationCaches(const std::vector<ValidationCache*>& caches, std::ostream& out) {
  // Merge per-worker state: verdicts dedup by (program, key).
  std::map<uint64_t, std::map<Fingerprint, const VerdictCache::Entry*>> verdicts;
  std::map<Fingerprint, Fingerprint> summary_fps;
  for (ValidationCache* cache : caches) {
    cache->Seal();
    for (const auto& [program_key, entries] : cache->stored_verdicts()) {
      auto& group = verdicts[program_key];
      for (const auto& [key, entry] : entries) {
        group.emplace(key, &entry);
      }
    }
    for (const auto& [key, fp] : cache->summaries().stored_fingerprints()) {
      // Key → fingerprint is functional, so first-wins dedup is exact.
      summary_fps.emplace(key, fp);
    }
  }

  out << kMagic << ' ' << kVersion << '\n';
  out << "programs " << verdicts.size() << '\n';
  for (const auto& [program_key, entries] : verdicts) {
    out << "prog " << program_key << ' ' << entries.size() << '\n';
    for (const auto& [key, entry] : entries) {
      WriteVerdict(out, key, *entry);
    }
  }
  out << "summaries " << summary_fps.size() << '\n';
  for (const auto& [key, fp] : summary_fps) {
    out << key.hi << ' ' << key.lo << ' ' << fp.hi << ' ' << fp.lo << '\n';
  }
}

void LoadValidationCache(std::istream& in, ValidationCache& cache) {
  RecordReader reader(in, "cache file");
  reader.RequireLine("header");
  reader.ExpectWord(kMagic);
  const uint64_t version = reader.U64("version");
  if (version < 1 || version > static_cast<uint64_t>(kVersion)) {
    throw CompileError("cache file version " + std::to_string(version) +
                       " is not supported (expected 1.." + std::to_string(kVersion) + ")");
  }

  if (version < 3) {
    reader.RequireLine("blast section");
    reader.ExpectWord("blast");
    const uint64_t template_count = reader.U64("template count");
    for (uint64_t i = 0; i < template_count; ++i) {
      reader.RequireLine("blast template");
      SkipBlastTemplate(reader);
    }
  }

  reader.RequireLine("programs section");
  reader.ExpectWord("programs");
  const uint64_t program_count = reader.U64("program count");
  for (uint64_t p = 0; p < program_count; ++p) {
    reader.RequireLine("program group");
    reader.ExpectWord("prog");
    const uint64_t program_key = reader.U64("program key");
    const uint64_t entry_count = reader.U64("entry count");
    for (uint64_t e = 0; e < entry_count; ++e) {
      reader.RequireLine("verdict entry");
      Fingerprint key;
      key.hi = reader.U64("verdict key hi");
      key.lo = reader.U64("verdict key lo");
      VerdictCache::Entry entry;
      entry.queries = reader.Read<uint32_t>("query count");
      const uint64_t verdict = reader.U64("verdict code");
      if (verdict > static_cast<uint64_t>(TvVerdict::kInvalidEmit)) {
        reader.Fail("unknown verdict code " + std::to_string(verdict));
      }
      entry.result.verdict = static_cast<TvVerdict>(verdict);
      entry.result.pass_name = reader.HexString("pass name");
      entry.result.detail = reader.HexString("detail");
      const uint64_t bit_count = reader.U64("bit witness count");
      for (uint64_t b = 0; b < bit_count; ++b) {
        std::string name = reader.HexString("witness name");
        const uint32_t width = reader.Read<uint32_t>("witness width");
        const uint64_t bits = reader.U64("witness bits");
        if (width < 1 || width > BitValue::kMaxWidth || bits > BitValue::MaskFor(width)) {
          reader.Fail("expected a witness width in 1..64 holding its bits");
        }
        entry.result.counterexample.bit_values.emplace(std::move(name), BitValue(width, bits));
      }
      const uint64_t bool_count = reader.U64("bool witness count");
      for (uint64_t b = 0; b < bool_count; ++b) {
        std::string name = reader.HexString("witness name");
        entry.result.counterexample.bool_values.emplace(std::move(name),
                                                        reader.Read<bool>("witness bool"));
      }
      cache.PreloadVerdict(program_key, key, std::move(entry));
    }
  }

  if (version >= 2) {
    reader.RequireLine("summaries section");
    reader.ExpectWord("summaries");
    const uint64_t summary_count = reader.U64("summary count");
    for (uint64_t s = 0; s < summary_count; ++s) {
      reader.RequireLine("summary fingerprint");
      Fingerprint key;
      key.hi = reader.U64("summary key hi");
      key.lo = reader.U64("summary key lo");
      Fingerprint fp;
      fp.hi = reader.U64("semantics fingerprint hi");
      fp.lo = reader.U64("semantics fingerprint lo");
      cache.summaries().RecordSemanticsFingerprint(key, fp);
    }
  }
  reader.Finish();
}

bool LoadValidationCacheFile(const std::string& path, ValidationCache& cache) {
  std::ifstream in(path);
  if (!in) {
    return false;  // cold start
  }
  LoadValidationCache(in, cache);
  return true;
}

void SaveValidationCacheFile(const std::string& path,
                             const std::vector<ValidationCache*>& caches) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw CompileError("cannot write cache file '" + path + "'");
  }
  SaveValidationCaches(caches, out);
  out.flush();
  if (!out) {
    throw CompileError("failed writing cache file '" + path + "'");
  }
}

int MergeValidationCacheFiles(const std::string& destination,
                              const std::vector<std::string>& sources) {
  std::vector<std::unique_ptr<ValidationCache>> loaded;
  for (const std::string& source : sources) {
    auto cache = std::make_unique<ValidationCache>();
    if (LoadValidationCacheFile(source, *cache)) {
      loaded.push_back(std::move(cache));
    }
  }
  std::vector<ValidationCache*> pointers;
  pointers.reserve(loaded.size());
  for (const auto& cache : loaded) {
    pointers.push_back(cache.get());
  }
  SaveValidationCacheFile(destination, pointers);
  return static_cast<int>(loaded.size());
}

}  // namespace gauntlet
