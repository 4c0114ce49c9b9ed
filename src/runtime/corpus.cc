#include "src/runtime/corpus.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/gen/generator.h"
#include "src/obs/coverage.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/file_io.h"
#include "src/support/json.h"
#include "src/target/target.h"

namespace gauntlet {

namespace {

namespace fs = std::filesystem;

// File-name- and JSON-safe slug: catalogue names are already kebab-case;
// component strings can hold arbitrary crash-site text.
std::string Sanitize(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '-');
  }
  return out.empty() ? std::string("finding") : out;
}

std::string FindingJson(const std::string& key, const Finding& finding) {
  std::ostringstream json;
  json << "{\n"
       << "  \"key\": " << JsonQuoted(key) << ",\n"
       << "  \"program_index\": " << finding.program_index << ",\n"
       << "  \"method\": \"" << DetectionMethodToString(finding.method) << "\",\n"
       << "  \"kind\": \"" << (finding.kind == BugKind::kCrash ? "crash" : "semantic")
       << "\",\n"
       << "  \"component\": " << JsonQuoted(finding.component) << ",\n"
       << "  \"attributed\": ";
  if (finding.attributed.has_value()) {
    json << "\"" << BugIdToString(*finding.attributed) << "\"";
  } else {
    json << "null";
  }
  json << ",\n"
       << "  \"detail\": " << JsonQuoted(finding.detail) << "\n"
       << "}\n";
  return json.str();
}

std::string FingerprintToHex(const Fingerprint& fingerprint) {
  char buffer[33];
  std::snprintf(buffer, sizeof(buffer), "%016llx%016llx",
                static_cast<unsigned long long>(fingerprint.hi),
                static_cast<unsigned long long>(fingerprint.lo));
  return buffer;
}

bool FingerprintFromHex(const std::string& hex, Fingerprint* out) {
  if (hex.size() != 32) {
    return false;
  }
  uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    const char* begin = hex.data() + w * 16;
    const auto [end, ec] = std::from_chars(begin, begin + 16, words[w], 16);
    if (ec != std::errc() || end != begin + 16) {
      return false;
    }
  }
  out->hi = words[0];
  out->lo = words[1];
  return true;
}

// Recovers a manifest entry's finding metadata from a stored finding.json
// (the legacy-directory migration path). Unknown fields are skipped;
// missing fields stay default — an old triple with a sparse finding.json is
// still indexable.
void ParseFindingMetadata(const std::string& text, CorpusManifestEntry* entry) {
  CorpusManifestEntry parsed = *entry;
  const bool ok = ReadJson(
      text,
      [&parsed](const JsonValue& root) {
        for (const auto& [field, value] : root.AsObject()) {
          if (field == "method") {
            parsed.method = value.AsString();
          } else if (field == "kind") {
            parsed.kind = value.AsString();
          } else if (field == "component") {
            parsed.component = value.AsString();
          } else if (field == "attributed" && !value.is_null()) {
            parsed.attributed = value.AsString();
          } else if (field == "program_index") {
            parsed.program_index = value.AsInt<int>();
          }
        }
      },
      nullptr);
  if (ok) {
    *entry = std::move(parsed);
  }
}

const char* kManifestFileName = "manifest.json";

// Scans a flat directory for reproducer triples (no manifest involved).
std::vector<std::string> ScanTripleKeys(const std::string& directory) {
  std::vector<std::string> keys;
  if (!fs::is_directory(directory)) {
    return keys;
  }
  for (const fs::directory_entry& file : fs::directory_iterator(directory)) {
    const fs::path path = file.path();
    if (path.extension() != ".p4") {
      continue;
    }
    fs::path stf = path;
    stf.replace_extension(".stf");
    if (fs::exists(stf)) {
      keys.push_back(path.stem().string());
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Reads a stored reproducer's program and STF; both must be readable (the
// manifest or the directory scan promised them).
CorpusEntry ReadReproducer(const std::string& directory, const std::string& key) {
  CorpusEntry entry;
  entry.key = key;
  const std::string base = (fs::path(directory) / key).string();
  entry.program_text = ReadFile(base + ".p4");
  entry.stf_text = ReadFile(base + ".stf");
  return entry;
}

}  // namespace

// --- manifest ---------------------------------------------------------------

void CorpusManifest::Insert(CorpusManifestEntry entry) {
  const std::string key = entry.key;
  const Fingerprint fingerprint = entry.fingerprint;
  if (entries_.emplace(key, std::move(entry)).second) {
    by_fingerprint_.emplace(fingerprint, key);
  }
}

const CorpusManifestEntry* CorpusManifest::Find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

const CorpusManifestEntry* CorpusManifest::FindByFingerprint(
    const Fingerprint& fingerprint) const {
  const auto it = by_fingerprint_.find(fingerprint);
  return it == by_fingerprint_.end() ? nullptr : Find(it->second);
}

Fingerprint FingerprintReproducer(const std::string& program_text,
                                  const std::string& stf_text) {
  // Order-sensitive combine: (program, stf) and (stf, program) must not
  // collide, and the empty-STF crash triples still get distinct prints.
  return CombineFingerprints(FingerprintOfString(program_text),
                             FingerprintOfString(stf_text));
}

std::string CorpusManifestJson(const CorpusManifest& manifest) {
  std::ostringstream json;
  json << "{\n  \"version\": " << kCorpusManifestVersion << ",\n  \"entries\": {";
  bool first = true;
  for (const auto& [key, entry] : manifest.entries()) {
    json << (first ? "\n" : ",\n");
    first = false;
    json << "    " << JsonQuoted(key) << ": {\n"
         << "      \"attributed\": " << JsonQuoted(entry.attributed) << ",\n"
         << "      \"component\": " << JsonQuoted(entry.component) << ",\n"
         << "      \"fingerprint\": \"" << FingerprintToHex(entry.fingerprint) << "\",\n"
         << "      \"kind\": " << JsonQuoted(entry.kind) << ",\n"
         << "      \"method\": " << JsonQuoted(entry.method) << ",\n"
         << "      \"program_index\": " << entry.program_index << "\n"
         << "    }";
  }
  json << (first ? "},\n" : "\n  },\n");
  json << "  \"total\": " << manifest.size() << "\n}\n";
  return json.str();
}

bool ParseCorpusManifestJson(const std::string& text, CorpusManifest* out,
                             std::string* error) {
  CorpusManifest manifest;
  const bool ok = ReadJson(
      text,
      [&manifest](const JsonValue& root) {
        RequireJsonVersion(root, "manifest", kCorpusManifestVersion);
        const JsonValue* entries = root.Find("entries");
        const JsonValue* total = root.Find("total");
        if (entries == nullptr || total == nullptr || root.AsObject().size() != 3) {
          throw CompileError("manifest: expected exactly version, entries and total");
        }
        for (const auto& [key, fields] : entries->AsObject()) {
          CorpusManifestEntry entry;
          entry.key = key;
          for (const auto& [field, value] : fields.AsObject()) {
            if (field == "program_index") {
              entry.program_index = value.AsInt<int>();
            } else if (field == "fingerprint") {
              if (!FingerprintFromHex(value.AsString(), &entry.fingerprint)) {
                throw CompileError("malformed fingerprint in entry '" + key + "'");
              }
            } else if (field == "attributed") {
              entry.attributed = value.AsString();
            } else if (field == "component") {
              entry.component = value.AsString();
            } else if (field == "kind") {
              entry.kind = value.AsString();
            } else if (field == "method") {
              entry.method = value.AsString();
            } else {
              throw CompileError("unknown field '" + field + "' in entry '" + key + "'");
            }
          }
          manifest.Insert(std::move(entry));
        }
        if (total->AsU64() != static_cast<uint64_t>(manifest.size())) {
          throw CompileError("manifest total " + std::to_string(total->AsU64()) + " but " +
                             std::to_string(manifest.size()) + " entries");
        }
      },
      error);
  if (ok) {
    *out = std::move(manifest);
  }
  return ok;
}

bool CorpusHasManifest(const std::string& directory) {
  return fs::exists(fs::path(directory) / kManifestFileName);
}

CorpusManifest LoadCorpusManifest(const std::string& directory) {
  CorpusManifest manifest;
  const fs::path manifest_path = fs::path(directory) / kManifestFileName;
  if (fs::exists(manifest_path)) {
    std::string text;
    std::string error = "unreadable";
    if (!ReadFile(manifest_path.string(), &text) ||
        !ParseCorpusManifestJson(text, &manifest, &error)) {
      // Fail loudly: a corrupt index silently rebuilt could mask a key that
      // was deliberately stored, breaking cross-run dedup.
      throw CompileError("corpus: cannot parse '" + manifest_path.string() + "': " + error);
    }
    return manifest;
  }
  // Migration path: index a legacy flat directory by reading each triple
  // once. finding.json is optional — a bare program/STF pair still indexes.
  for (const std::string& key : ScanTripleKeys(directory)) {
    const CorpusEntry triple = ReadReproducer(directory, key);
    CorpusManifestEntry entry;
    entry.key = key;
    entry.fingerprint = FingerprintReproducer(triple.program_text, triple.stf_text);
    std::string finding_json;
    if (ReadFile((fs::path(directory) / (key + ".finding.json")).string(), &finding_json)) {
      ParseFindingMetadata(finding_json, &entry);
    }
    manifest.Insert(std::move(entry));
  }
  return manifest;
}

void SaveCorpusManifest(const std::string& directory, const CorpusManifest& manifest) {
  const fs::path path = fs::path(directory) / kManifestFileName;
  if (!WriteFile(path.string(), CorpusManifestJson(manifest))) {
    throw CompileError("corpus: cannot write '" + path.string() + "'");
  }
}

// --- store ------------------------------------------------------------------

CorpusStore::CorpusStore(std::string directory) : directory_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec || !fs::is_directory(directory_)) {
    throw CompileError("corpus: cannot create directory '" + directory_ + "'");
  }
  manifest_ = LoadCorpusManifest(directory_);
  // Opening a populated legacy directory persists the rebuilt index, so the
  // migration cost (one full read) is paid exactly once.
  if (!manifest_.empty() && !CorpusHasManifest(directory_)) {
    SaveCorpusManifest(directory_, manifest_);
  }
}

std::string CorpusStore::KeyFor(const Finding& finding) {
  if (finding.attributed.has_value()) {
    return Sanitize(BugIdToString(*finding.attributed));
  }
  return "unattributed-" + Sanitize(finding.component);
}

std::string CorpusStore::Add(const Program& program, const Finding& finding) {
  const std::string key = KeyFor(finding);
  const fs::path base = fs::path(directory_) / key;
  std::lock_guard<std::mutex> lock(mutex_);
  if (manifest_.HasKey(key)) {
    return "";
  }
  const std::string program_text = PrintProgram(program);
  const std::string stf =
      finding.repro_test.has_value() ? EmitStf(*finding.repro_test) : std::string();
  for (const auto& [extension, content] :
       {std::pair{".p4", program_text}, std::pair{".stf", stf},
        std::pair{".finding.json", FindingJson(key, finding)}}) {
    if (!WriteFile(base.string() + extension, content)) {
      throw CompileError("corpus: cannot write '" + base.string() + extension + "'");
    }
  }
  CorpusManifestEntry entry;
  entry.key = key;
  entry.fingerprint = FingerprintReproducer(program_text, stf);
  entry.program_index = finding.program_index;
  entry.method = DetectionMethodToString(finding.method);
  entry.kind = finding.kind == BugKind::kCrash ? "crash" : "semantic";
  entry.component = finding.component;
  entry.attributed =
      finding.attributed.has_value() ? BugIdToString(*finding.attributed) : std::string();
  manifest_.Insert(std::move(entry));
  // Rewriting the whole index per Add keeps it crash-consistent; the JSON
  // render is linear in corpus size and Add only fires for *new* distinct
  // bugs, which are rare by definition.
  SaveCorpusManifest(directory_, manifest_);
  ++stored_;
  return key;
}

int CorpusStore::stored_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stored_;
}

bool CorpusStore::HasKey(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifest_.HasKey(key);
}

int MergeCorpusStores(const std::string& destination,
                      const std::vector<std::string>& shard_directories) {
  std::error_code ec;
  fs::create_directories(destination, ec);
  if (ec || !fs::is_directory(destination)) {
    throw CompileError("corpus: cannot create directory '" + destination + "'");
  }
  CorpusManifest merged = LoadCorpusManifest(destination);
  int copied = 0;
  for (const std::string& shard_dir : shard_directories) {
    const CorpusManifest shard = LoadCorpusManifest(shard_dir);
    for (const auto& [key, entry] : shard.entries()) {
      if (merged.HasKey(key)) {
        continue;  // earliest shard wins — the single-process dedup order
      }
      for (const char* extension : {".p4", ".stf", ".finding.json"}) {
        const fs::path source = fs::path(shard_dir) / (key + extension);
        const fs::path target = fs::path(destination) / (key + extension);
        if (fs::exists(source) &&
            !fs::copy_file(source, target, fs::copy_options::overwrite_existing, ec)) {
          throw CompileError("corpus: cannot copy '" + source.string() + "': " + ec.message());
        }
      }
      merged.Insert(entry);
      ++copied;
    }
  }
  if (!merged.empty()) {
    SaveCorpusManifest(destination, merged);
  }
  return copied;
}

int CountCorpus(const std::string& directory) {
  if (CorpusHasManifest(directory)) {
    return LoadCorpusManifest(directory).size();
  }
  return static_cast<int>(ScanTripleKeys(directory).size());
}

std::vector<CorpusEntry> ListCorpus(const std::string& directory) {
  std::vector<CorpusEntry> entries;
  std::vector<std::string> keys;
  if (CorpusHasManifest(directory)) {
    const CorpusManifest manifest = LoadCorpusManifest(directory);
    for (const auto& [key, entry] : manifest.entries()) {
      keys.push_back(key);
    }
  } else {
    keys = ScanTripleKeys(directory);
  }
  for (const std::string& key : keys) {
    const fs::path base = fs::path(directory) / key;
    if (fs::exists(base.string() + ".p4") && fs::exists(base.string() + ".stf")) {
      entries.push_back(ReadReproducer(directory, key));
    }
  }
  return entries;
}

ReplayOutcome ReplayTests(const Program& program, const std::vector<PacketTest>& tests,
                          const BugConfig& bugs, const std::vector<std::string>& targets) {
  ReplayOutcome outcome;
  for (const Target* target : TargetRegistry::Resolve(targets)) {
    std::unique_ptr<Executable> executable;
    {
      TraceSpan span(std::string("compile:") + target->name(), "target");
      executable = target->Compile(program, bugs);
    }
    TraceSpan span(std::string("execute:") + target->name(), "target");
    for (const PacketTest& test : tests) {
      ++outcome.tests_run;
      const PacketTestOutcome result = RunPacketTest(*executable, test);
      if (!result.passed) {
        ++outcome.failures;
        outcome.failure_details.push_back(std::string(target->name()) + " " + test.name +
                                          ": " + result.detail);
      }
    }
  }
  CountMetric("replay/tests_run", MetricScope::kTiming, static_cast<uint64_t>(outcome.tests_run));
  CountMetric("replay/test_failures", MetricScope::kTiming,
              static_cast<uint64_t>(outcome.failures));
  return outcome;
}

ReplayOutcome ReplayStfText(const std::string& program_text, const std::string& stf_text,
                            const BugConfig& bugs, const std::vector<std::string>& targets) {
  const ProgramPtr program = Parser::ParseString(program_text);
  if (CurrentCoverage() != nullptr) {
    // Replay runs no symbolic enumeration, so the construct census is the
    // only coverage domain a corpus replay can populate.
    RecordConstructCoverage(CensusProgram(*program));
  }
  const std::vector<PacketTest> tests = ParseStf(stf_text);
  return ReplayTests(*program, tests, bugs, targets);
}

CorpusReplaySummary ReplayCorpus(const std::string& directory, const BugConfig& bugs,
                                 const std::vector<std::string>& targets,
                                 const std::function<void(int, int)>& progress) {
  CorpusReplaySummary summary;
  for (const CorpusEntry& entry : ListCorpus(directory)) {
    TraceSpan span("replay:" + entry.key, "replay");
    CorpusReplayResult result;
    result.key = entry.key;
    try {
      result.outcome = ReplayStfText(entry.program_text, entry.stf_text, bugs, targets);
    } catch (const CompilerBugError& error) {
      // The compile itself still aborts: this is a live crash reproducer.
      ++result.outcome.failures;
      result.outcome.failure_details.push_back(std::string("compile crash: ") + error.what());
    }
    ++summary.entries;
    summary.failed_entries += result.outcome.passed() ? 0 : 1;
    summary.results.push_back(std::move(result));
    if (progress) {
      progress(summary.entries, summary.failed_entries);
    }
  }
  CountMetric("replay/entries", MetricScope::kTiming, static_cast<uint64_t>(summary.entries));
  CountMetric("replay/failed_entries", MetricScope::kTiming,
              static_cast<uint64_t>(summary.failed_entries));
  return summary;
}

}  // namespace gauntlet
