#pragma once
// Cluster aggregator (layer 2 of the telemetry subsystem): reduce per-rank
// phase times and counters across the Communicator into a ClusterReport,
// render it as structured JSON, dump per-rank JSONL traces, and validate a
// rendered report against the schema (the CI gate and tests both call the
// validator rather than eyeballing text).
//
// aggregate() is collective: every rank contributes its RankSummary via
// gatherBytes to rank 0, which computes per-phase min/max/mean, the
// imbalance ratio (max/mean), and the offender rank behind each max. Only
// rank 0's returned report is populated; other ranks get an empty report
// (valid() == false), mirroring gatherBytes semantics.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"
#include "vcluster/comm.hpp"

namespace awp::telemetry {

// Per-phase statistics over ranks, in seconds (exclusive time).
struct PhaseStat {
  Phase phase = Phase::VelocityKernel;
  double sumSeconds = 0.0;   // across ranks
  double minSeconds = 0.0;
  double maxSeconds = 0.0;
  double meanSeconds = 0.0;
  double imbalance = 1.0;    // max / mean (1.0 when mean is zero)
  int maxRank = 0;           // offender: rank holding the max
  double replaySeconds = 0.0;  // summed replay-window time (not useful work)
};

// Per-counter statistics over ranks.
struct CounterStat {
  Counter counter = Counter::CellsUpdated;
  std::uint64_t total = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  int maxRank = 0;
};

struct ClusterReport {
  int nranks = 0;
  std::uint64_t step = 0;        // solver step at emission
  double wallSeconds = 0.0;      // caller-measured wall time covered
  double usefulSeconds = 0.0;    // sum over phases of per-rank mean exclusive
  double replaySeconds = 0.0;    // mean per-rank replay-window time
  // Fraction of wall time attributed to some phase:
  // (usefulSeconds + replaySeconds) / wallSeconds; 0 when no wall given.
  double coverage = 0.0;
  std::vector<PhaseStat> phases;     // kPhaseCount entries, taxonomy order
  std::vector<CounterStat> counters; // kCounterCount entries
  std::uint64_t spansRecorded = 0;
  std::uint64_t spansDropped = 0;

  [[nodiscard]] bool valid() const { return nranks > 0; }
};

// Collective. `wallSeconds` is the caller's measurement of the wall time
// the session covers (the solver passes its run stopwatch). `extraSummaries`
// lets the root fold in slots that are not cluster ranks (the off-rank slot
// for launcher-thread work); counters merge into totals, times are ignored
// for min/max/mean (they describe no rank).
ClusterReport aggregate(vcluster::Communicator& comm, const Session& session,
                        std::uint64_t step, double wallSeconds);

// Per-rank mean exclusive seconds summed into the Eq. (7) buckets,
// indexed by Eq7Bucket.
std::array<double, kEq7BucketCount> eq7Breakdown(const ClusterReport& report);

// Render as a JSON document (schema "awp-telemetry-report", version 1).
std::string toJson(const ClusterReport& report);

// Write toJson(report) to `path` atomically (tmp + rename).
void writeReportFile(const std::string& path, const ClusterReport& report);

// Dump one rank's surviving span records as JSONL: one span object per
// line, oldest first. `path` is the complete filename for this rank.
void writeTraceFile(const std::string& path, const RankTelemetry& rankTel);

// Validate a rendered report against the schema. Returns a list of
// violations (empty = valid): missing phases or counters, negative/NaN
// durations, min > mean or mean > max, bad imbalance, out-of-range
// offender ranks. Parse errors surface as a single violation entry.
std::vector<std::string> validateReportJson(const std::string& text);

}  // namespace awp::telemetry
