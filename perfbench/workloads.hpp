#pragma once
// The three workloads and the per-layer probes of the repository benchmark.
// Each workload drives the hazard fabric through its public API, times its
// own calls from their due times, and checks every output it produces.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string workDir;  // scratch root inside the checkout
};

// Layer counters read from the fabric after each repetition, summed over
// repetitions.
struct LayerTotals {
  // sched: per-job rows of the broker service reports.
  std::vector<double> queueWaitSeconds;
  std::vector<double> runSeconds;
  std::uint64_t jobs = 0;
  std::uint64_t attempts = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheLookups = 0;
  // fabric
  std::uint64_t submitted = 0;
  std::uint64_t forwards = 0;
  std::uint64_t dedupHits = 0;
  // serve
  std::uint64_t windowPublishes = 0;
  std::uint64_t notifyBatches = 0;
  // telemetry session totals (traced pass only), by JSON name.
  std::map<std::string, double> phaseMs;
  std::map<std::string, double> counters;
};

// What one pass of a workload measured.
struct PassResult {
  std::vector<double> setupSeconds;       // dedicated set-up samples
  std::vector<double> solutionSeconds;    // per repetition
  std::vector<double> cellUpdatesPerSecond;
  std::vector<double> scenarioLatency;    // due -> settle [s]
  std::vector<double> firstTileLatency;   // due -> first tile delta [s]
  std::vector<double> queryLatency;       // open loop, due -> answer [s]
  std::vector<double> generatorLag;       // actual - due start [s]
  std::vector<double> tilesPerQuery;
  std::vector<double> closedLoopRounds;  // queries/s of each round
  double closedLoopQueriesPerSecond = 0.0;  // median round
  std::uint64_t closedLoopQueries = 0;
  LayerTotals layers;
};

// Run one pass of the named workload. With an enabled tracer, spans are
// recorded around every call into the libraries and the fabric's own
// telemetry session is switched on.
PassResult runWorkload(const RunOptions& options, Tracer& tracer,
                       Outcome& outcome);

// Fixed-size layer probes (core, mem, grid, io, mesh, cycle, rupture),
// identical on every workload; appends their per-layer metrics.
void runProbes(const RunOptions& options, Tracer& tracer, Outcome& outcome,
               Metrics& metrics);

// Print the wave_large and cycle_catalog reference data in the form of
// reference.hpp (used once to create that file).
int printReference(const RunOptions& options);

}  // namespace perfbench
