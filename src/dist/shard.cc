#include "src/dist/shard.h"

#include <fstream>
#include <utility>

#include "src/passes/bugs.h"
#include "src/runtime/parallel_campaign.h"
#include "src/support/error.h"
#include "src/support/record.h"

namespace gauntlet {

namespace {

constexpr const char* kMagic = "gauntletshard";
// v2 rewrote the "cache" line: the blast-template counters went, the
// block-summary counters came. v1 results are rejected.
constexpr int kVersion = 2;

}  // namespace

std::vector<ShardRange> PartitionIndexSpace(int total, int shards) {
  if (total < 0) {
    throw CompileError("cannot partition a negative program count");
  }
  if (shards < 1) {
    throw CompileError("shard count must be >= 1");
  }
  std::vector<ShardRange> ranges;
  ranges.reserve(static_cast<size_t>(shards));
  const int base = total / shards;
  const int extra = total % shards;  // the first `extra` shards take one more
  int begin = 0;
  for (int i = 0; i < shards; ++i) {
    const int size = base + (i < extra ? 1 : 0);
    ranges.push_back(ShardRange{i, begin, begin + size});
    begin += size;
  }
  return ranges;
}

void SaveShardResult(const ShardResult& result, std::ostream& out) {
  const CampaignReport& report = result.report;
  out << kMagic << ' ' << kVersion << '\n';
  out << "range " << result.range.index << ' ' << result.range.begin << ' '
      << result.range.end << '\n';
  out << "counters " << report.programs_generated << ' ' << report.programs_with_crash << ' '
      << report.programs_with_semantic << ' ' << report.tests_generated << ' '
      << report.undef_divergences << ' ' << report.structural_mismatches << '\n';
  out << "findings " << report.findings.size() << '\n';
  for (const Finding& finding : report.findings) {
    out << "find " << finding.program_index << ' ' << DetectionMethodToString(finding.method)
        << ' ' << (finding.kind == BugKind::kCrash ? "crash" : "semantic") << ' '
        << HexToken(finding.component) << ' '
        << (finding.attributed.has_value() ? BugIdToString(*finding.attributed) : "-") << ' '
        << HexToken(finding.detail) << '\n';
  }
  out << "latency " << report.latency.size() << '\n';
  for (const auto& [bug, lat] : report.latency) {
    out << "lat " << BugIdToString(bug) << ' ' << lat.first_program_index << ' '
        << lat.tests_at_detection << ' ' << lat.findings << ' ' << lat.wall_micros << '\n';
  }
  out << "distinct " << report.distinct_bugs.size() << '\n';
  for (const BugId bug : report.distinct_bugs) {
    out << "bug " << BugIdToString(bug) << '\n';
  }
  out << "unattributed " << report.unattributed_components.size() << '\n';
  for (const std::string& component : report.unattributed_components) {
    out << "comp " << HexToken(component) << '\n';
  }
  out << "metrics " << result.metrics.metrics().size() << '\n';
  for (const auto& [name, metric] : result.metrics.metrics()) {
    out << "met " << HexToken(name) << ' ' << static_cast<int>(metric.scope) << ' '
        << static_cast<int>(metric.kind) << ' ' << metric.value << ' ' << metric.bounds.size();
    for (const uint64_t bound : metric.bounds) {
      out << ' ' << bound;
    }
    out << ' ' << metric.counts.size();
    for (const uint64_t count : metric.counts) {
      out << ' ' << count;
    }
    out << '\n';
  }
  size_t points = 0;
  for (const auto& [domain, entry] : result.coverage.domains()) {
    points += entry.points.size();
  }
  out << "coverage " << points << '\n';
  for (const auto& [domain, entry] : result.coverage.domains()) {
    for (const auto& [point, value] : entry.points) {
      out << "cov " << HexToken(domain) << ' ' << static_cast<int>(entry.scope) << ' '
          << HexToken(point) << ' ' << value << '\n';
    }
  }
  const CacheStats& stats = result.cache_stats;
  out << "cache " << stats.verdict_hits << ' ' << stats.verdict_misses << ' '
      << stats.queries_skipped << ' ' << stats.pairs_short_circuited << ' ' << stats.summary_hits
      << ' ' << stats.summary_misses << ' ' << stats.summary_fps_reused << '\n';
}

ShardResult LoadShardResult(std::istream& in) {
  RecordReader reader(in, "shard result");
  reader.RequireLine("header");
  reader.ExpectWord(kMagic);
  const uint64_t version = reader.U64("version");
  if (version != static_cast<uint64_t>(kVersion)) {
    throw CompileError("shard result version " + std::to_string(version) +
                       " is not supported (expected " + std::to_string(kVersion) + ")");
  }

  ShardResult result;
  reader.RequireLine("range");
  reader.ExpectWord("range");
  result.range.index = reader.Read<int>("shard index");
  result.range.begin = reader.Read<int>("shard begin");
  result.range.end = reader.Read<int>("shard end");

  CampaignReport& report = result.report;
  reader.RequireLine("counters");
  reader.ExpectWord("counters");
  report.programs_generated = reader.Read<int>("programs generated");
  report.programs_with_crash = reader.Read<int>("programs with crash");
  report.programs_with_semantic = reader.Read<int>("programs with semantic");
  report.tests_generated = reader.Read<int>("tests generated");
  report.undef_divergences = reader.Read<int>("undef divergences");
  report.structural_mismatches = reader.Read<int>("structural mismatches");

  reader.RequireLine("findings section");
  reader.ExpectWord("findings");
  const uint64_t finding_count = reader.U64("finding count");
  for (uint64_t i = 0; i < finding_count; ++i) {
    reader.RequireLine("finding");
    reader.ExpectWord("find");
    Finding finding;
    finding.program_index = reader.Read<int>("program index");
    const std::string method(reader.Token("detection method"));
    const auto parsed_method = DetectionMethodFromString(method);
    if (!parsed_method.has_value()) {
      reader.Fail("unknown detection method '" + method + "'");
    }
    finding.method = *parsed_method;
    const std::string kind(reader.Token("finding kind"));
    if (kind != "crash" && kind != "semantic") {
      reader.Fail("unknown finding kind '" + kind + "'");
    }
    finding.kind = kind == "crash" ? BugKind::kCrash : BugKind::kSemantic;
    finding.component = reader.HexString("component");
    const std::string attributed(reader.Token("attributed fault"));
    if (attributed != "-") {
      const auto bug = BugIdFromString(attributed);
      if (!bug.has_value()) {
        reader.Fail("unknown fault '" + attributed + "'");
      }
      finding.attributed = *bug;
    }
    finding.detail = reader.HexString("detail");
    report.findings.push_back(std::move(finding));
  }

  reader.RequireLine("latency section");
  reader.ExpectWord("latency");
  const uint64_t latency_count = reader.U64("latency count");
  for (uint64_t i = 0; i < latency_count; ++i) {
    reader.RequireLine("latency entry");
    reader.ExpectWord("lat");
    const std::string name(reader.Token("fault name"));
    const auto bug = BugIdFromString(name);
    if (!bug.has_value()) {
      reader.Fail("unknown fault '" + name + "'");
    }
    DetectionLatency latency;
    latency.first_program_index = reader.Read<int>("first program index");
    latency.tests_at_detection = reader.Read<int>("tests at detection");
    latency.findings = reader.Read<int>("finding count");
    latency.wall_micros = reader.U64("wall micros");
    report.latency.emplace(*bug, latency);
  }

  reader.RequireLine("distinct section");
  reader.ExpectWord("distinct");
  const uint64_t distinct_count = reader.U64("distinct count");
  for (uint64_t i = 0; i < distinct_count; ++i) {
    reader.RequireLine("distinct bug");
    reader.ExpectWord("bug");
    const std::string name(reader.Token("fault name"));
    const auto bug = BugIdFromString(name);
    if (!bug.has_value()) {
      reader.Fail("unknown fault '" + name + "'");
    }
    report.distinct_bugs.insert(*bug);
  }

  reader.RequireLine("unattributed section");
  reader.ExpectWord("unattributed");
  const uint64_t component_count = reader.U64("component count");
  for (uint64_t i = 0; i < component_count; ++i) {
    reader.RequireLine("unattributed component");
    reader.ExpectWord("comp");
    report.unattributed_components.insert(
        reader.HexString("component"));
  }

  reader.RequireLine("metrics section");
  reader.ExpectWord("metrics");
  const uint64_t metric_count = reader.U64("metric count");
  for (uint64_t i = 0; i < metric_count; ++i) {
    reader.RequireLine("metric");
    reader.ExpectWord("met");
    const std::string name = reader.HexString("metric name");
    if (result.metrics.Find(name) != nullptr) {
      reader.Fail("duplicate metric '" + name + "'");  // Absorb would merge it
    }
    Metric metric;
    const uint64_t scope = reader.U64("metric scope");
    if (scope > static_cast<uint64_t>(MetricScope::kTiming)) {
      reader.Fail("unknown metric scope " + std::to_string(scope));
    }
    metric.scope = static_cast<MetricScope>(scope);
    const uint64_t kind = reader.U64("metric kind");
    if (kind > static_cast<uint64_t>(MetricKind::kHistogram)) {
      reader.Fail("unknown metric kind " + std::to_string(kind));
    }
    metric.kind = static_cast<MetricKind>(kind);
    metric.value = reader.U64("metric value");
    metric.bounds.resize(reader.InlineCount("bound count"));
    for (uint64_t& bound : metric.bounds) {
      bound = reader.U64("bound");
    }
    const uint64_t count_count = reader.InlineCount("bucket count");
    if (metric.kind == MetricKind::kHistogram && count_count != metric.bounds.size() + 1) {
      reader.Fail("histogram bucket/bound size mismatch");
    }
    metric.counts.resize(count_count);
    for (uint64_t& count : metric.counts) {
      count = reader.U64("bucket");
    }
    result.metrics.Absorb(name, metric);
  }

  reader.RequireLine("coverage section");
  reader.ExpectWord("coverage");
  const uint64_t point_count = reader.U64("coverage point count");
  for (uint64_t i = 0; i < point_count; ++i) {
    reader.RequireLine("coverage point");
    reader.ExpectWord("cov");
    const std::string domain = reader.HexString("domain");
    const uint64_t scope = reader.U64("domain scope");
    if (scope > static_cast<uint64_t>(MetricScope::kTiming)) {
      reader.Fail("unknown coverage scope " + std::to_string(scope));
    }
    const std::string point = reader.HexString("point");
    if (result.coverage.Has(domain, point)) {
      reader.Fail("duplicate coverage point '" + point + "'");
    }
    const uint64_t value = reader.U64("point value");
    result.coverage.Record(domain, point, static_cast<MetricScope>(scope), value);
  }

  reader.RequireLine("cache counters");
  reader.ExpectWord("cache");
  CacheStats& stats = result.cache_stats;
  stats.verdict_hits = reader.U64("verdict hits");
  stats.verdict_misses = reader.U64("verdict misses");
  stats.queries_skipped = reader.U64("queries skipped");
  stats.pairs_short_circuited = reader.U64("pairs short-circuited");
  stats.summary_hits = reader.U64("summary hits");
  stats.summary_misses = reader.U64("summary misses");
  stats.summary_fps_reused = reader.U64("summary fingerprints reused");
  reader.Finish();
  return result;
}

void SaveShardResultFile(const std::string& path, const ShardResult& result) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw CompileError("cannot write shard result '" + path + "'");
  }
  SaveShardResult(result, out);
  out.flush();
  if (!out) {
    throw CompileError("failed writing shard result '" + path + "'");
  }
}

ShardResult LoadShardResultFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw CompileError("cannot open shard result '" + path + "'");
  }
  return LoadShardResult(in);
}

ShardResult RunShardWorker(const ParallelCampaignOptions& options, ShardRange range,
                           const BugConfig& bugs) {
  if (range.begin < 0 || range.end < range.begin) {
    throw CompileError("invalid shard range [" + std::to_string(range.begin) + ", " +
                       std::to_string(range.end) + ")");
  }
  ShardResult result;
  result.range = range;

  ParallelCampaignOptions shard = options;
  shard.campaign.num_programs = range.size();
  shard.index_begin = range.begin;
  // Collection is observation-only (reports are bit-identical either way),
  // and the coordinator needs the raw registries to reproduce a
  // single-process --metrics-out/--coverage-out run whatever the topology.
  RunSinks own_sinks;
  RunSinks& sinks = shard.campaign.sinks != nullptr ? *shard.campaign.sinks : own_sinks;
  sinks.Collect(RunSinks::kMetrics | RunSinks::kCoverage);
  shard.campaign.sinks = &sinks;

  result.report = ParallelCampaign(shard).Run(bugs, &result.cache_stats);
  result.metrics = *sinks.metrics();
  result.coverage = *sinks.coverage();
  return result;
}

}  // namespace gauntlet
