#pragma once
// ScenarioService: the ensemble scheduler. An operator submits
// ScenarioSpecs; the service admits them through a bounded priority queue
// (backpressure: a full queue rejects), leases contiguous thread-cluster
// core ranges out of a global core budget, and runs each scenario as an
// SPMD job under the health guard with a per-attempt watchdog. Identical
// in-flight specs coalesce onto one execution; completed products are
// memoized in a content-addressed artifact cache (spec-hash keyed, MD5
// verified), so a resubmitted spec is served without re-execution. Each
// rank samples its own material block from the velocity model.
//
// Failure policy: an injected/real worker crash, a watchdog stall episode,
// or a Fatal health verdict cancels the attempt COLLECTIVELY (the cancel
// flag is agreed by allreduce at a fixed step cadence, so no rank is left
// blocking on a dead neighbour) and requeues the scenario with a bounded
// retry budget. Crash and stall retries resume from the job's last
// checkpoint at the SAME dt — the completed products are bit-identical to
// an uninterrupted run. Fatal-verdict retries tighten dt (the run was
// numerically unstable; reproducing it exactly would reproduce the
// blow-up). A preflight rejection is not retried: it judges the inputs,
// which a retry does not change.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "health/watchdog.hpp"
#include "sched/artifact_cache.hpp"
#include "sched/job.hpp"
#include "sched/publish.hpp"
#include "sched/queue.hpp"
#include "sched/report.hpp"
#include "util/timer.hpp"

namespace awp::sched {

struct ServiceConfig {
  int coreBudget = 4;               // total rank threads leasable at once
  std::size_t queueCapacity = 16;
  int maxRetries = 2;               // requeues before a job is poison
  double stallTimeoutSeconds = 30.0;  // per-attempt watchdog (> 0)
  double watchdogPollSeconds = 0.05;
  // Recovery ladder (every attempt): in-place rank respawns allowed per
  // attempt before a loss escalates to cancel-and-requeue. Separate from
  // maxRetries — a respawn repairs the RUNNING attempt; a retry restarts
  // it. 0 = every loss cancels the attempt. A job that checkpoints also
  // keeps diskless buddy replicas at its checkpoint cadence, so a
  // respawned rank restores without touching the two-generation disk
  // store (which remains the fallback).
  int respawnBudget = 1;
  // Watchdog debounce: consecutive stalled scans before an episode opens.
  int watchdogMissThreshold = 1;
  std::string cacheDir;             // artifact cache dir; "" = in memory
  std::string workDir;              // "" = <tmp>/awp-sched
  // Spans and counters go to whichever telemetry session is installed.
  // Slot offset added to every lease base (slot = slotBase + lease base +
  // rank). Zero for a standalone service; the hazard fabric gives each of
  // its brokers a disjoint slot range of one shared session so concurrent
  // brokers never collide on a span ring.
  int telemetrySlotBase = 0;
  // Dedicated session slot for the dispatcher thread's SchedQueue /
  // SchedDispatch spans. -1 (the default) keeps the legacy mapping — the
  // shared off-rank slot — which is single-writer only while one service
  // exists; the fabric runs several dispatchers concurrently and gives
  // each its own lane.
  int dispatcherTelemetrySlot = -1;
  // Serving-tier hook (not owned; may be null). Wave jobs report surface
  // window flushes and scenario completions — fresh runs AND cache hits,
  // so a serving tier converges to canonical products either way.
  // publishOriginId is the fault-injection rank for the serve_* sites
  // (the fabric sets it to the broker id).
  ProductPublisher* publisher = nullptr;
  int publishOriginId = 0;
  // Called after every terminal settle, on the settling thread (often a
  // detached worker; never under a service lock). The fabric's broker
  // rings its pump's doorbell here. May be empty.
  std::function<void()> onSettle;
};

class ScenarioService {
 public:
  explicit ScenarioService(ServiceConfig config);
  ~ScenarioService();
  ScenarioService(const ScenarioService&) = delete;
  ScenarioService& operator=(const ScenarioService&) = delete;

  // Admission-controlled submission. Returns immediately with a handle:
  // Completed (cache hit), Rejected (backpressure / closed), or Queued.
  // job->wait() blocks until the job settles.
  JobHandle submit(ScenarioSpec spec);

  // Block until every admitted job has settled (admissions stay open).
  void drain();
  // Close admissions, drain, stop the dispatcher. Idempotent; the
  // destructor calls it.
  void shutdown();

  // Fail-fast abort (the fabric's broker-death path): close admissions,
  // settle every still-queued job as Failed, collectively cancel running
  // attempts (suppressing their requeues), and wait for the workers to
  // unwind. Best-effort: an attempt already past its last cancel-check
  // may still complete — its products are correct and stay cached, which
  // is exactly what at-least-once replay by a new owner wants. Idempotent;
  // concurrent callers block until the first abort finishes draining.
  void abort(const std::string& why);
  [[nodiscard]] bool aborted() const {
    return aborting_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ServiceReport report() const;
  // Completed products for a spec hash, served straight from the artifact
  // cache without submitting anything and republished to the serving tier
  // — how a degraded (partitioned) fabric broker keeps serving hits while
  // parking everything else. Counts a scenario cache hit.
  [[nodiscard]] std::optional<ScenarioProducts> cachedProducts(
      const std::string& hash, const ScenarioSpec& spec);
  [[nodiscard]] CacheStats cacheStats() const { return cache_.stats(); }
  [[nodiscard]] AdmissionQueue::Stats queueStats() const {
    return queue_.stats();
  }
  // Watchdog stall episodes observed across all attempts (consumed from
  // each per-attempt watchdog via its callback).
  [[nodiscard]] std::vector<health::StallReport> stallEpisodes() const;
  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  // Private working directory of a (possibly not yet submitted) spec hash:
  // checkpoints under <dir>/ckpt plus the step-indexed surface file. The
  // fabric's handoff seeds a new owner's job dir from a lost broker's.
  [[nodiscard]] std::string jobDirFor(const std::string& hash) const;

 private:
  struct Dispatch {
    JobHandle job;
    int coreBase = -1;
  };

  // Pop the best fitting job and lease it a contiguous core range.
  // Registered hot path: no allocation, no throw (a fragmented-budget pop
  // is pushed back, not dropped).
  bool dispatchNext(Dispatch& out) AWP_REQUIRES(dispatchMu_);
  void dispatcherLoop();
  void workerMain(Dispatch d);
  // One attempt of either kind; returns the products on success, throws
  // CancelledError (collective cancellation) or awp::Error.
  ScenarioProducts attempt(JobState& job, int coreBase);
  void maybeRequeue(const JobHandle& job, RequeueCause cause,
                    std::uint64_t atStep, const std::string& why);
  // Terminal transition: settle the job (and any coalesced followers),
  // release the in-flight registration, update outstanding accounting.
  void settleTerminal(const JobHandle& job, JobPhase phase,
                      const std::string& error, ScenarioProducts products,
                      bool countedPrimary);
  void recordStall(const health::StallReport& report);
  // The one completion publish: a wave job's products (fresh or memoized)
  // go to the serving tier with the job's surface file. No-op without a
  // publisher or for rupture kinds.
  void publishCompleted(const std::string& hash, const ScenarioSpec& spec,
                        const ScenarioProducts& products) const;

  ServiceConfig config_;
  ArtifactCache cache_;
  AdmissionQueue queue_;
  Stopwatch epoch_;

  // Dispatcher state (dispatchMu_): core accounting + lifecycle.
  mutable std::mutex dispatchMu_;
  std::condition_variable dispatchCv_;
  std::vector<char> coreBusy_ AWP_GUARDED_BY(dispatchMu_);
  int activeWorkers_ AWP_GUARDED_BY(dispatchMu_) = 0;
  bool signal_ AWP_GUARDED_BY(dispatchMu_) = false;
  bool stopping_ AWP_GUARDED_BY(dispatchMu_) = false;
  bool shutdownDone_ AWP_GUARDED_BY(dispatchMu_) = false;

  // Job bookkeeping (jobsMu_).
  mutable std::mutex jobsMu_;
  std::condition_variable drainCv_;
  std::vector<JobHandle> allJobs_ AWP_GUARDED_BY(jobsMu_);
  // In-flight primaries + the followers coalesced onto each.
  std::map<std::string, JobHandle> primaryByHash_ AWP_GUARDED_BY(jobsMu_);
  std::map<std::string, std::vector<JobHandle>> followersByHash_
      AWP_GUARDED_BY(jobsMu_);
  std::size_t outstanding_ AWP_GUARDED_BY(jobsMu_) = 0;

  mutable std::mutex stallMu_;
  std::vector<health::StallReport> stalls_ AWP_GUARDED_BY(stallMu_);

  std::atomic<std::uint64_t> submitSeq_{0};
  std::atomic<std::uint64_t> executedAttempts_{0};
  std::atomic<bool> aborting_{false};

  std::thread dispatcher_;
};

}  // namespace awp::sched
