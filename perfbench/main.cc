// perfbench: the end-to-end benchmark of the gauntlet library.
//
//   perfbench --workload <typical|heavy-tail|fault-fleet> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--held-out]
//
// --trace 0 runs the workload's campaign repeatedly, untraced, for about
// --seconds (on a workload with dominant programs, interleaved with light
// passes over its other programs) and reports the end-to-end metrics. --trace 1 runs the campaign
// once untraced, then takes its programs through each layer's public entry
// points with metrics sinks scoped around the calls, and reports the
// per-layer metrics. Either way every campaign's verdicts are checked
// against the workload's known answers; a mismatch prints `"correct":
// false` and exits 1. The last stdout line is one JSON object.
//
// The programs come from the workload's documented campaign seed (or its
// held-out seed with --held-out), never from --seed: the known answers and
// the heavy-tail query belong to those programs. --seed is echoed only.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "perfbench/layers.h"
#include "perfbench/workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Each set-up burst repeats set-up at least kSetupRepetitions times and for
// at least kSetupSeconds, at most kSetupMaxRepetitions times; the median over
// all bursts is reported.
constexpr int kSetupRepetitions = 101;
constexpr int kSetupMaxRepetitions = 10001;
constexpr double kSetupSeconds = 0.25;
constexpr double kCampaignShare = 0.7;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool held_out = false;
  std::string work_dir;
};

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--held-out]\nworkloads:",
               message.c_str());
  for (const Workload& workload : Workloads()) {
    std::fprintf(stderr, " %s", workload.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--held-out") {
      args.held_out = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace must be 0 or 1");
      }
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!have_seed || args.seconds <= 0 || args.trace < 0 || args.work_dir.empty()) {
    Usage("--seed, --seconds, --trace and --work-dir are required");
  }
  return args;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double percentile) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(percentile / 100.0 * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::string Number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Prints the metrics one per line, then the result object as the last line.
int Report(bool correct, long long attempted, long long failed,
           const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%-28s %s %s\n", metric.name.c_str(), Number(metric.value).c_str(),
                metric.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void PrintProblems(const std::string& context, const std::vector<std::string>& problems) {
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED (%s): %s\n", context.c_str(),
                 problem.c_str());
  }
}

// Pins the calling thread, and so every thread it starts from then on, to
// the CPU it is running on; `previous` receives the CPUs it was allowed
// before. Work that hands off between threads on one core then does not
// wait for the host to wake another virtual CPU, which keeps the
// microsecond-scale thread start and join inside set-up from depending on
// where the scheduler happened to place the threads. The CPU is the one the
// scheduler picked rather than a fixed one, because a fixed CPU may be the
// one that takes the disk's interrupts.
bool PinToCurrentCpu(cpu_set_t* previous) {
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof(*previous), previous) != 0) {
    return false;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

// --trace 0: set-up timing, then untraced campaigns for --seconds.
int RunUntraced(const Workload& workload, uint64_t seed, const KnownAnswers& answers,
                const Args& args) {
  bool correct = true;
  // Set-up: the same driver call with zero programs in a fresh directory —
  // pipeline and registry construction, worker pool, cache and directory
  // creation, status publishing and the (empty) merges, but no program. It
  // is measured in bursts, one before the first campaign and one after each
  // campaign, so its median covers the same stretch of the host's load as
  // the campaigns do. Each burst runs on one CPU; the campaigns get every
  // CPU back.
  std::vector<double> setup_s;
  const auto measure_setup = [&]() {
    cpu_set_t allowed;
    const bool pinned = PinToCurrentCpu(&allowed);
    const size_t before = setup_s.size();
    const Clock::time_point start = Clock::now();
    while (setup_s.size() - before < static_cast<size_t>(kSetupRepetitions) ||
           (setup_s.size() - before < static_cast<size_t>(kSetupMaxRepetitions) &&
            std::chrono::duration<double>(Clock::now() - start).count() < kSetupSeconds)) {
      const RunDirs dirs = MakeRunDirs((fs::path(args.work_dir) / "setup").string());
      const CampaignRun run = RunCampaign(workload, seed, 0, dirs);
      if (run.threw) {
        PrintProblems("set-up", {run.error});
        correct = false;
      }
      setup_s.push_back(run.wall_s);
      fs::remove_all(dirs.root);
    }
    if (pinned) {
      sched_setaffinity(0, sizeof(allowed), &allowed);
    }
  };
  measure_setup();

  std::vector<double> rate, cpu_ms, program_ms;
  // One worker completes programs in index order, so each program keeps its
  // best latency over the run: transient contention on a shared host then
  // drops out of the percentiles. Parallel workers complete out of order,
  // so their latencies are pooled instead.
  const bool in_order = workload.shards == 0 && workload.jobs == 1;
  if (in_order) {
    program_ms.assign(workload.programs, std::numeric_limits<double>::infinity());
  }
  const auto keep_best = [&program_ms](const std::vector<double>& latencies, int begin) {
    for (size_t i = 0; i < latencies.size() && begin + i < program_ms.size(); ++i) {
      program_ms[begin + i] = std::min(program_ms[begin + i], latencies[i]);
    }
  };
  // A workload with dominant programs spends about kCampaignShare of the
  // run on whole campaigns. Light passes over its other programs warm up
  // the process, follow each campaign and fill the rest of the run, so each
  // of those programs is timed many times, spread over the whole run.
  const std::vector<int>& dominant =
      args.held_out ? workload.held_out_dominant_programs : workload.dominant_programs;
  const std::vector<std::pair<int, int>> light =
      in_order && !dominant.empty() ? LightRanges(workload.programs, dominant)
                                    : std::vector<std::pair<int, int>>();
  long long attempted = 0, failed = 0;
  double measured_s = 0;

  // A light pass runs each range as its own campaign with the same global
  // program indices, so it tests exactly the programs a whole campaign
  // tests there, and must make exactly the same findings on them.
  int light_passes = 0;
  double light_s = 0;  // the last light pass's wall time
  const auto light_pass = [&]() {
    std::vector<CampaignRun> runs;
    light_s = 0;
    for (const auto& [begin, end] : light) {
      const RunDirs dirs = MakeRunDirs((fs::path(args.work_dir) / "light").string());
      runs.push_back(RunCampaign(workload, seed, end - begin, dirs, begin));
      fs::remove_all(dirs.root);
      attempted += end - begin;
      failed += FailedPrograms(runs.back(), end - begin);
      keep_best(runs.back().program_ms, begin);
      light_s += runs.back().wall_s;
    }
    measured_s += light_s;
    ++light_passes;
    return runs;
  };
  const auto check_light = [&](const std::vector<CampaignRun>& runs,
                               const gauntlet::CampaignReport& full) {
    for (size_t i = 0; i < light.size(); ++i) {
      const std::vector<std::string> problems =
          CheckRangeFindings(full, runs[i], light[i].first, light[i].second);
      PrintProblems("light pass " + std::to_string(light_passes), problems);
      correct = correct && problems.empty();
    }
  };
  std::vector<CampaignRun> warm_up;
  if (!light.empty()) {
    warm_up = light_pass();
  }

  // Whole campaigns only: stop before one that would run past --seconds.
  gauntlet::CampaignReport full_report;
  int iteration = 0;
  double last_s = 0;
  double campaigns_s = 0, light_total_s = 0;
  while (iteration == 0 || measured_s + last_s <= args.seconds) {
    const RunDirs dirs = MakeRunDirs((fs::path(args.work_dir) / "campaign").string());
    const CampaignRun run = RunCampaign(workload, seed, workload.programs, dirs);
    fs::remove_all(dirs.root);
    const std::vector<std::string> problems = CheckReport(workload, answers, run);
    PrintProblems("campaign " + std::to_string(iteration), problems);
    correct = correct && problems.empty();
    attempted += workload.programs;
    failed += FailedPrograms(run, workload.programs);
    rate.push_back(workload.programs / run.wall_s);
    cpu_ms.push_back(run.cpu_s * 1000.0 / workload.programs);
    if (in_order) {
      keep_best(run.program_ms, 0);
    } else {
      program_ms.insert(program_ms.end(), run.program_ms.begin(), run.program_ms.end());
    }
    if (iteration == 0) {
      full_report = run.report;
      if (!warm_up.empty()) {
        check_light(warm_up, full_report);
      }
    }
    measured_s += run.wall_s;
    campaigns_s += run.wall_s;
    last_s = run.wall_s;
    ++iteration;
    std::fprintf(stderr,
                 "perfbench: %s campaign %d: %.3f s wall, %.3f s cpu, %zu findings, "
                 "p50 %.3f ms, tail %.3f ms\n",
                 workload.name.c_str(), iteration, run.wall_s, run.cpu_s,
                 run.report.findings.size(), Percentile(run.program_ms, 50),
                 Percentile(run.program_ms, workload.tail_percentile));
    measure_setup();
    while (!light.empty() &&
           light_total_s < campaigns_s * (1 - kCampaignShare) / kCampaignShare &&
           measured_s + light_s <= args.seconds) {
      check_light(light_pass(), full_report);
      light_total_s += light_s;
    }
  }
  while (!light.empty() && measured_s + light_s <= args.seconds) {
    check_light(light_pass(), full_report);
  }
  std::fprintf(stderr, "perfbench: set-up x%zu: min %.6f s, median %.6f s, max %.6f s\n",
               setup_s.size(), *std::min_element(setup_s.begin(), setup_s.end()),
               Median(setup_s), *std::max_element(setup_s.begin(), setup_s.end()));
  if (light_passes > 0) {
    std::fprintf(stderr, "perfbench: %s: %d light passes, p50 %.3f ms, tail %.3f ms\n",
                 workload.name.c_str(), light_passes, Percentile(program_ms, 50),
                 Percentile(program_ms, workload.tail_percentile));
  }
  std::printf("workload %s: seed %llu (run seed %llu), %d campaigns of %d programs, "
              "%d light passes, %zu latency samples, tail = p%s\n",
              workload.name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(args.seed), iteration, workload.programs,
              light_passes, program_ms.size(), Number(workload.tail_percentile).c_str());
  const std::vector<Metric> metrics = {
      {"programs_per_s", "1/s", Median(rate)},
      {"program_ms_p50", "ms", Percentile(program_ms, 50)},
      {"program_ms_tail", "ms", Percentile(program_ms, workload.tail_percentile)},
      {"cpu_ms_per_program", "ms", Median(cpu_ms)},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"verdict_share", "share",
       attempted > 0 ? static_cast<double>(attempted - failed) / attempted : 0},
      {"setup_s", "s", Median(setup_s)},
  };
  return Report(correct, attempted, failed, metrics);
}

// --trace 1: one untraced campaign (verdicts, cache counters, files), then
// traced layer passes over the same programs until --seconds have passed.
int RunTraced(const Workload& workload, uint64_t seed, const KnownAnswers& answers,
              const Args& args) {
  const Clock::time_point start = Clock::now();
  const RunDirs dirs = MakeRunDirs((fs::path(args.work_dir) / "traced").string());
  const CampaignRun run = RunCampaign(workload, seed, workload.programs, dirs);
  std::vector<std::string> problems = CheckReport(workload, answers, run);
  PrintProblems("untraced campaign", problems);
  bool correct = problems.empty();
  const ArtifactProbe probe = ProbeArtifacts(dirs);
  fs::remove_all(dirs.root);

  std::map<std::string, std::vector<double>> per_pass;
  std::string first_counters;
  LayerPass first;
  int passes = 0;
  double last_s = 0;
  while (passes == 0 ||
         std::chrono::duration<double>(Clock::now() - start).count() + last_s <= args.seconds) {
    const LayerPass pass = RunLayerPass(workload, seed);
    problems = CheckLayerPass(answers, pass, run.report);
    if (passes == 0) {
      first = pass;
      first_counters = pass.CounterKey();
    } else if (pass.CounterKey() != first_counters) {
      problems.push_back("work counters differ between traced passes: '" + first_counters +
                         "' vs '" + pass.CounterKey() + "'");
    }
    PrintProblems("traced pass " + std::to_string(passes), problems);
    correct = correct && problems.empty();
    const std::map<std::string, double> times = {
        {"gen", pass.gen_ms},
        {"validate", pass.validate_ms},
        {"typecheck", pass.typecheck_ms},
        {"passes", pass.passes_ms},
        {"compare", pass.compare_ms},
        {"tv_smt", pass.tv_smt_ms},
        {"tv_self", pass.compare_ms - pass.tv_smt_ms - pass.print_parse_ms},
        {"pair_max", pass.pair_ms_max},
        {"print_parse", pass.print_parse_ms},
        {"testgen", pass.testgen_ms},
        {"enumerate", pass.enumerate_ms},
        {"witness", pass.witness_ms},
        {"compile", pass.compile_ms},
        {"execute", pass.execute_ms},
        {"attribute", pass.attribute_ms},
        {"encode", pass.encode_ms},
        {"solve", pass.solve_ms},
        {"sum", pass.LayerSumMs()},
    };
    for (const auto& [name, value] : times) {
      per_pass[name].push_back(value);
    }
    ++passes;
    last_s = pass.wall_ms / 1000.0;
    std::fprintf(stderr, "perfbench: %s traced pass %d: %.3f s, %llu reruns\n",
                 workload.name.c_str(), passes, pass.wall_ms / 1000.0,
                 static_cast<unsigned long long>(pass.reruns));
  }
  const auto ms = [&per_pass](const std::string& name) { return Median(per_pass[name]); };

  const gauntlet::CacheStats& cache = run.cache_stats;
  const uint64_t summary_lookups = cache.summary_hits + cache.summary_misses;
  const uint64_t blast_lookups = cache.blast_hits + cache.blast_misses;
  uint64_t unattributed = 0;
  for (const gauntlet::Finding& finding : first.findings.findings) {
    unattributed += finding.attributed.has_value() ? 0 : 1;
  }
  const double untraced_wall_ms = run.wall_s * 1000.0;
  const double untraced_cpu_ms = run.cpu_s * 1000.0;
  const std::vector<Metric> metrics = {
      {"smt.solves", "count", static_cast<double>(first.tv_solves + first.testgen_solves)},
      {"smt.propagations", "count",
       static_cast<double>(first.tv_propagations + first.testgen_propagations)},
      {"smt.conflicts", "count", static_cast<double>(first.tv_conflicts + first.testgen_conflicts)},
      {"smt.decisions", "count", static_cast<double>(first.tv_decisions + first.testgen_decisions)},
      {"smt.max_vars", "count", static_cast<double>(first.max_vars)},
      {"smt.propagations_saved", "count", static_cast<double>(first.propagations_saved)},
      {"smt.encode_ms", "ms", ms("encode")},
      {"smt.solve_ms", "ms", ms("solve")},
      {"tv.solves", "count", static_cast<double>(first.tv_solves)},
      {"tv.propagations", "count", static_cast<double>(first.tv_propagations)},
      {"testgen.solves", "count", static_cast<double>(first.testgen_solves)},
      {"testgen.propagations", "count", static_cast<double>(first.testgen_propagations)},
      {"tv.pairs", "count", static_cast<double>(first.pairs)},
      {"tv.compare_ms", "ms", ms("compare")},
      {"tv.self_ms", "ms", ms("tv_self")},
      {"tv.pair_ms_max", "ms", ms("pair_max")},
      {"testgen.generate_ms", "ms", ms("testgen")},
      {"testgen.enumerate_ms", "ms", ms("enumerate")},
      {"testgen.witness_ms", "ms", ms("witness")},
      {"testgen.paths", "count", static_cast<double>(first.paths)},
      {"testgen.tests", "count", static_cast<double>(first.tests)},
      {"testgen.tests_per_path", "ratio",
       first.paths > 0 ? static_cast<double>(first.tests) / first.paths : 0},
      {"frontend.print_parse_ms", "ms", ms("print_parse")},
      {"typecheck.ms", "ms", ms("typecheck")},
      {"passes.ms", "ms", ms("passes")},
      {"passes.changed_pairs", "count", static_cast<double>(first.changed_versions)},
      {"gen.generate_ms", "ms", ms("gen")},
      {"target.compile_ms", "ms", ms("compile")},
      {"target.execute_ms", "ms", ms("execute")},
      {"target.packets", "count", static_cast<double>(first.packets)},
      {"gauntlet.attribute_ms", "ms", ms("attribute")},
      {"gauntlet.findings", "count", static_cast<double>(first.findings.findings.size())},
      {"gauntlet.unattributed", "count", static_cast<double>(unattributed)},
      {"cache.summary_hit_ratio", "ratio",
       summary_lookups > 0 ? static_cast<double>(cache.summary_hits) / summary_lookups : 0},
      {"cache.summary_lookups", "count", static_cast<double>(summary_lookups)},
      {"cache.blast_hit_ratio", "ratio",
       blast_lookups > 0 ? static_cast<double>(cache.blast_hits) / blast_lookups : 0},
      {"cache.pairs_short_circuited", "count", static_cast<double>(cache.pairs_short_circuited)},
      {"cache.file_bytes", "bytes", static_cast<double>(probe.cache_file_bytes)},
      {"cache.file_load_ms", "ms", probe.cache_file_load_ms},
      {"dist.shard_result_bytes", "bytes", static_cast<double>(probe.shard_result_bytes)},
      {"dist.shard_load_ms", "ms", probe.shard_load_ms},
      {"runtime.cpu_utilization", "ratio",
       run.wall_s > 0 ? run.cpu_s / (run.wall_s * workload.jobs) : 0},
      {"runtime.corpus_load_ms", "ms", probe.corpus_load_ms},
      {"obs.status_collect_ms", "ms", probe.status_collect_ms},
      {"obs.trace_overhead_share", "ratio",
       untraced_cpu_ms > 0 ? ms("sum") / untraced_cpu_ms - 1 : 0},
      {"layers.sum_ms", "ms", ms("sum")},
      {"layers.untraced_wall_ms", "ms", untraced_wall_ms},
      {"layers.untraced_cpu_ms", "ms", untraced_cpu_ms},
  };

  // The layer table: where the traced time went, next to the untraced run.
  const double sum = ms("sum");
  std::printf("workload %s: seed %llu (run seed %llu), %d traced passes over %d programs, "
              "%llu attribution reruns\n",
              workload.name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(args.seed), passes, workload.programs,
              static_cast<unsigned long long>(first.reruns));
  const std::vector<std::pair<std::string, double>> layers = {
      {"gen (generate)", ms("gen")},
      {"typecheck", ms("typecheck")},
      {"passes", ms("passes")},
      {"frontend (print/parse)", ms("print_parse")},
      {"tv self (interpret/miter)", ms("tv_self")},
      {"smt in validate", ms("tv_smt")},
      {"validate, outside pairs",
       ms("validate") - ms("typecheck") - ms("passes") - ms("compare")},
      {"testgen enumerate", ms("enumerate")},
      {"testgen witness", ms("witness")},
      {"testgen other", ms("testgen") - ms("enumerate") - ms("witness")},
      {"target compile", ms("compile")},
      {"target execute", ms("execute")},
      {"gauntlet attribute", ms("attribute")},
  };
  for (const auto& [name, value] : layers) {
    std::printf("  layer %-26s %12.3f ms  %5.1f%%\n", name.c_str(), value,
                sum > 0 ? 100.0 * value / sum : 0.0);
  }
  std::printf("  layer sum %34.3f ms  untraced campaign %.3f ms wall, %.3f ms cpu\n", sum,
              untraced_wall_ms, untraced_cpu_ms);
  return Report(correct, workload.programs, FailedPrograms(run, workload.programs), metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const Workload& workload = *FindWorkload(args.workload);
  const uint64_t seed = args.held_out ? workload.held_out_seed : workload.seed;
  const KnownAnswers& answers = args.held_out ? workload.held_out_answers : workload.answers;
  // A private directory per process, removed on the way out.
  const fs::path work = fs::path(args.work_dir) / (workload.name + "-" + std::to_string(getpid()));
  Args scoped = args;
  scoped.work_dir = work.string();
  int status = 1;
  try {
    fs::create_directories(work);
    status = args.trace == 1 ? RunTraced(workload, seed, answers, scoped)
                             : RunUntraced(workload, seed, answers, scoped);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(work, ignored);
  return status;
}
