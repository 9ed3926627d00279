// awp_perfbench: the repository benchmark.
//
//   awp_perfbench --workload <wave_large|ensemble_serve|cycle_catalog>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload with tracing off and reports the end-to-end
// metrics. --trace 1 runs the per-layer probes, then the workload twice for
// half the time each — untraced, then traced — and reports the per-layer
// metrics plus the tracing overhead. The last stdout line is the JSON result; the exit code
// is nonzero when any output check fails.
//
//   awp_perfbench --print-reference   regenerates reference.hpp

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "telemetry/taxonomy.hpp"
#include "workload_defs.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "awp_perfbench: %s\nusage: awp_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// The headline number tracing is judged against: the time to solution,
// except for the open-loop ensemble, whose solution time is set by its
// arrival schedule; there the scenario latency median.
double overheadBasis(const std::string& workload, const PassResult& r) {
  return workload == "ensemble_serve" ? median(r.scenarioLatency)
                                      : median(r.solutionSeconds);
}

// The set-up time is the fastest set-up sample and the solution time that
// of the fastest repetition (and the cell-update rate that of the same
// one): a shared host only ever slows a sample down, so the fastest one is
// the steadiest estimate of what the code allows. Latencies stay medians.
void addEndToEnd(const PassResult& r, Metrics& m) {
  m.add("setup_s",
        *std::min_element(r.setupSeconds.begin(), r.setupSeconds.end()), "s");
  m.add("time_to_solution_s",
        *std::min_element(r.solutionSeconds.begin(), r.solutionSeconds.end()),
        "s");
  m.add("cell_updates_per_s",
        *std::max_element(r.cellUpdatesPerSecond.begin(),
                          r.cellUpdatesPerSecond.end()),
        "cells/s");
  m.add("scenario_latency_p50_s", median(r.scenarioLatency), "s");
  m.add("peak_rss_mb", peakRssMb(), "MB");
}

// Distributions reported beside the end-to-end metrics for a reader, with
// their sample counts (not part of the result line).
void printDistributions(const PassResult& r) {
  const auto show = [](const char* name, const std::vector<double>& v,
                       double scale, const char* unit) {
    const Distribution d = distribution(v);
    std::printf("  %-28s p50 %12.6g  p90 %12.6g %-3s (n=%zu%s)\n", name,
                d.p50 * scale, d.p90 * scale, unit, d.n,
                d.n >= 100 ? "" : ", p90 has <10 samples beyond it");
  };
  std::printf("== distributions ==\n  %-28s min %12.6g  p50 %12.6g ms  (n=%zu)\n",
              "setup",
              *std::min_element(r.setupSeconds.begin(), r.setupSeconds.end()) *
                  1e3,
              median(r.setupSeconds) * 1e3, r.setupSeconds.size());
  std::printf("  %-28s", "time_to_solution per rep");
  for (double t : r.solutionSeconds) std::printf(" %.4g", t);
  std::printf(" s\n");
  show("scenario_latency", r.scenarioLatency, 1.0, "s");
  show("first_tile_latency", r.firstTileLatency, 1.0, "s");
  show("query_latency", r.queryLatency, 1e6, "us");
  show("generator_lag", r.generatorLag, 1e3, "ms");
  std::printf("  %-28s %12.6g /s (n=%llu; rounds", "closed_loop_queries",
              r.closedLoopQueriesPerSecond,
              static_cast<unsigned long long>(r.closedLoopQueries));
  for (double q : r.closedLoopRounds) std::printf(" %.0f", q);
  std::printf(")\n");
}

void addPerLayer(const std::string& workload, const PassResult& base,
                 const PassResult& r, const Tracer& tracer, Metrics& m) {
  const LayerTotals& l = r.layers;
  m.add("sched.queue_wait_p50_ms", median(l.queueWaitSeconds) * 1e3, "ms");
  m.add("sched.run_p50_ms", median(l.runSeconds) * 1e3, "ms");
  m.add("sched.artifact_cache_hit_ratio",
        ratio(static_cast<double>(l.cacheHits),
              static_cast<double>(l.cacheLookups)),
        "ratio");
  m.add("sched.attempts_per_scenario",
        ratio(static_cast<double>(l.attempts), static_cast<double>(l.jobs)),
        "ratio");
  const Distribution scen = distribution(r.scenarioLatency);
  m.add("sched.scenario_latency_p90_s", scen.p90, "s");
  m.add("bench.scenario_samples", static_cast<double>(scen.n), "count");

  m.add("fabric.submit_us_p50", median(tracer.durations("fabric.submit")) * 1e6,
        "us");
  m.add("fabric.forward_ratio",
        ratio(static_cast<double>(l.forwards), static_cast<double>(l.submitted)),
        "ratio");
  m.add("fabric.dedup_hits", static_cast<double>(l.dedupHits), "count");

  const auto counter = [&](const char* name) {
    const auto it = l.counters.find(name);
    return it == l.counters.end() ? 0.0 : it->second;
  };
  m.add("serve.query_us_p50",
        median(tracer.durations("serve.exceedance")) * 1e6, "us");
  m.add("serve.tiles_per_query", mean(r.tilesPerQuery), "count");
  m.add("serve.window_publishes", static_cast<double>(l.windowPublishes),
        "count");
  m.add("serve.notify_batches", static_cast<double>(l.notifyBatches), "count");
  m.add("serve.chunk_dedup_ratio",
        ratio(counter("serve_chunk_dedups"), counter("serve_tiles_published")),
        "ratio");
  const Distribution tile = distribution(r.firstTileLatency);
  m.add("serve.first_tile_latency_p50_s", tile.p50, "s");
  m.add("serve.first_tile_latency_p90_s", tile.p90, "s");
  m.add("bench.first_tile_samples", static_cast<double>(tile.n), "count");
  const Distribution query = distribution(r.queryLatency);
  m.add("serve.query_latency_p50_us", query.p50 * 1e6, "us");
  m.add("serve.query_latency_p90_us", query.p90 * 1e6, "us");
  m.add("bench.query_samples", static_cast<double>(query.n), "count");
  m.add("serve.queries_per_s", r.closedLoopQueriesPerSecond, "1/s");

  m.add("bench.generator_lag_p90_ms", percentile(r.generatorLag, 0.9) * 1e3,
        "ms");
  m.add("bench.tracing_overhead_pct",
        100.0 * (ratio(overheadBasis(workload, r), overheadBasis(workload, base)) -
                 1.0),
        "%");

  // The fabric's own telemetry session: exclusive phase totals summed over
  // every lane, and the counters an optimisation would move.
  for (const auto& name : awp::telemetry::kPhaseJsonNames) {
    const auto it = l.phaseMs.find(std::string(name));
    m.add("telemetry." + std::string(name) + "_ms",
          it == l.phaseMs.end() ? 0.0 : it->second, "ms");
  }
  for (const char* name :
       {"cells_updated", "halo_bytes_sent", "checkpoint_bytes", "output_bytes",
        "artifact_cache_hits", "fabric_forwards", "serve_tiles_published",
        "serve_chunk_dedups", "serve_tiles_scanned", "serve_notifies",
        "serve_reconciles", "cycle_steps"})
    m.add(std::string("telemetry.") + name, counter(name), "count");
}

int run(int argc, char** argv) {
  RunOptions options;
  int trace = 0;
  bool haveWorkload = false, printRef = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-reference") {
      printRef = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      trace = std::stoi(value);
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const fs::path runRoot =
      fs::current_path() / ".bench_run" / std::to_string(::getpid());
  options.workDir = runRoot.string();
  if (printRef) return printReference(options);
  if (!haveWorkload) usage("--workload is required");
  if (options.seconds <= 0.0) usage("--seconds must be positive");

  Outcome outcome;
  Metrics metrics;
  if (trace == 0) {
    Tracer off(false);
    const PassResult r = runWorkload(options, off, outcome);
    addEndToEnd(r, metrics);
    printTable(options.workload + " end-to-end", metrics);
    printDistributions(r);
  } else {
    Tracer on(true);
    runProbes(options, on, outcome, metrics);
    // Two half-length passes, so a traced run costs about one untraced run
    // plus the probes.
    RunOptions half = options;
    half.seconds = options.seconds / 2.0;
    Tracer off(false);
    const PassResult base = runWorkload(half, off, outcome);
    const PassResult traced = runWorkload(half, on, outcome);
    addPerLayer(options.workload, base, traced, on, metrics);
    printTable(options.workload + " per-layer (traced)", metrics);
    printDistributions(traced);
    const fs::path out = fs::current_path() / ".bench_out";
    fs::create_directories(out);
    on.writeChromeTrace((out / ("trace-" + options.workload + "-seed" +
                                std::to_string(options.seed) + ".json"))
                            .string());
  }
  std::error_code ec;
  fs::remove_all(runRoot, ec);
  fs::remove(runRoot.parent_path(), ec);  // only if no other run uses it
  std::printf("%s\n", resultLine(outcome, metrics).c_str());
  std::fflush(stdout);
  return outcome.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "awp_perfbench: %s\n", e.what());
    return 3;
  }
}
