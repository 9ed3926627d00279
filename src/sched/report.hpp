#pragma once
// Service-level reporting: the JSON summary a batch operator reads after
// (or while) running an ensemble through the scenario service — queue
// latency, throughput, cache effectiveness, retry counts, and one row per
// job. Schema-validated like the telemetry report (the CI chaos job and
// tests call the validator rather than eyeballing text).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sched/artifact_cache.hpp"
#include "sched/job.hpp"
#include "util/retry.hpp"

namespace awp::sched {

struct JobRow {
  std::string name;
  std::string kind;      // "wave" | "rupture"
  std::string hash;      // spec hash (hex)
  int priority = 0;
  std::string phase;     // terminal JobPhase name
  int attempts = 0;
  int retries = 0;       // requeue count
  int respawns = 0;      // in-place rank respawns absorbed by this job
  bool cacheHit = false;
  bool coalesced = false;
  std::uint64_t completedSteps = 0;
  double queueSeconds = 0.0;  // submit -> first dispatch
  double runSeconds = 0.0;    // first dispatch -> settle
  std::string error;
};

struct ServiceReport {
  double wallSeconds = 0.0;
  int coreBudget = 0;

  std::uint64_t submitted = 0;   // submit() calls, including rejections
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cacheHits = 0;   // product-cache served submissions
  std::uint64_t coalesced = 0;   // merged into an in-flight identical spec
  std::uint64_t retries = 0;     // requeue events across all jobs
  // Recovery ladder: single-rank losses repaired in place (no requeue),
  // and losses that escalated to the cancel-and-requeue path.
  std::uint64_t respawns = 0;
  std::uint64_t respawnEscalations = 0;
  std::uint64_t executedAttempts = 0;  // attempts actually run on workers
  double throughputPerSecond = 0.0;    // completed / wallSeconds

  // Queue latency over jobs that reached a worker (submit -> dispatch).
  double queueLatencyMin = 0.0;
  double queueLatencyMean = 0.0;
  double queueLatencyMax = 0.0;

  CacheStats cache;  // artifact cache (product memoization)

  // Per-site retry/backoff statistics (util::retryRegistrySnapshot at
  // report time, process-wide): how often each fault-tolerant path — I/O,
  // transfers, fabric forwarding and lease renewal — actually retried.
  std::map<std::string, util::RetrySiteStats> retrySites;

  std::vector<JobRow> jobs;

  [[nodiscard]] bool valid() const { return coreBudget > 0; }
};

// Render as JSON (schema "awp-sched-service-report", version 2).
std::string toJson(const ServiceReport& report);

// Write toJson(report) to `path` atomically (tmp + rename).
void writeServiceReportFile(const std::string& path,
                            const ServiceReport& report);

// Validate rendered report text. Returns violations (empty = valid).
std::vector<std::string> validateServiceReportJson(const std::string& text);

}  // namespace awp::sched
