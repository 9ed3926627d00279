#pragma once
// HazardFabric: N in-process scenario brokers (the vcluster thread-
// simulation idiom, one level up: brokers instead of ranks) stitched into
// one fault-tolerant hazard service. Submissions route by consistent-
// hashing the spec's physics-only digest to an owner broker; ownership is
// held under time-bounded leases renewed by heartbeat; an epoch-numbered
// membership view detects missed renewals and hands a dead broker's hash
// range to the survivors — queued work replays from the replicated
// submission log, running work resumes from the shared checkpoint/
// artifact tier, and at-least-once forwarding is collapsed back to
// exactly-once completion by digest dedup at every layer. A partitioned
// broker degrades instead of failing: it finishes local work, serves
// cache hits, parks new submissions, and re-forwards them after rejoin.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fabric/broker.hpp"
#include "fabric/hash_ring.hpp"
#include "fabric/membership.hpp"
#include "fabric/submission_log.hpp"
#include "fabric/transport.hpp"
#include "sched/report.hpp"
#include "sched/spec.hpp"
#include "serve/server.hpp"
#include "telemetry/registry.hpp"
#include "util/guarded.hpp"
#include "util/retry.hpp"
#include "util/timer.hpp"

namespace awp::fabric {

struct FabricConfig {
  int brokers = 3;
  int vnodes = 64;              // consistent-hash vnodes per broker
  double leaseSeconds = 1.0;
  double heartbeatSeconds = 0.25;
  int degradedAfterMisses = 2;
  double pumpIntervalSeconds = 0.01;
  int forwardAttempts = 4;
  // Per-broker work dirs live at <rootDir>/broker-<i>; the shared cache
  // tier at <rootDir>/cache. "" = <tmp>/awp-fabric.
  std::string rootDir;
  // Telemetry: when true and no session is installed, the fabric owns one
  // Session sized brokers*coreBudget rank lanes + a dispatcher lane and a
  // pump lane per broker, so every span writer in the fabric has a
  // dedicated slot. shutdown() uninstalls it; its spans stay readable
  // until the fabric is destroyed.
  bool telemetry = false;
  // Per-broker service template. workDir/cacheDir/telemetry fields are
  // overridden per broker (replay and degraded-mode serving both read the
  // shared product tier).
  sched::ServiceConfig service;
  // Serving-tier config. The fabric owns one ProductServer, which keeps
  // its tile chunks in memory; every broker publishes into it.
  serve::ServeConfig serve;
};

// One client-visible scenario of the fabric, keyed by spec digest.
// Duplicate submissions coalesce onto one handle; `completions` stays at
// 1 however many brokers raced to finish the digest (the exactly-once
// check of the chaos tests).
struct FabricJob {
  sched::ScenarioSpec spec;
  std::string digest;

  mutable std::mutex mu;
  std::condition_variable settledCv;
  bool settled AWP_GUARDED_BY(mu) = false;
  sched::JobPhase phase AWP_GUARDED_BY(mu) = sched::JobPhase::Queued;
  std::string error AWP_GUARDED_BY(mu);
  sched::ScenarioProducts products AWP_GUARDED_BY(mu);
  // submissions: client submissions coalesced onto this digest.
  // completions: settle deliveries accepted (dedup holds it at 1).
  int submissions AWP_GUARDED_BY(mu) = 0;
  int completions AWP_GUARDED_BY(mu) = 0;

  // Block until the digest settles; returns the terminal phase.
  sched::JobPhase wait();
  [[nodiscard]] bool done() const;
};

using FabricJobHandle = std::shared_ptr<FabricJob>;

struct FabricReport {
  std::uint64_t viewEpoch = 0;
  int liveBrokers = 0;
  std::uint64_t submitted = 0;   // distinct digests accepted
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  Broker::Counters counters;     // summed across brokers
  FabricTransport::Stats transport;
  SubmissionLog::Stats log;
  std::map<std::string, util::RetrySiteStats> retrySites;
  std::vector<sched::ServiceReport> brokers;  // index = broker id
};

class HazardFabric {
 public:
  explicit HazardFabric(FabricConfig config);
  ~HazardFabric();
  HazardFabric(const HazardFabric&) = delete;
  HazardFabric& operator=(const HazardFabric&) = delete;

  // Route a scenario into the fabric. Never blocks on execution: returns
  // a handle that settles when ANY broker completes (or terminally fails)
  // the digest. Resubmitting an in-flight or completed digest coalesces.
  FabricJobHandle submit(sched::ScenarioSpec spec);

  // Block until every submitted digest settles. If every broker has
  // fail-stopped with work still outstanding, the remaining handles are
  // settled as Failed (degraded-mode parking only helps while somebody
  // can eventually run the work).
  void drain();

  // Stop the pumps, settle anything left as Failed, shut the broker
  // services down. Idempotent; the destructor calls it.
  void shutdown();

  // Chaos hook: operator fail-stop of one broker. Its lease lapses and
  // its hash range moves at the next membership epoch.
  void killBroker(int id);

  // Block until each handle settles; true iff every one completed (null
  // handles count as failures). Catalog-sized batches — the earthquake-
  // cycle bridge submits a whole event catalog at once — wait on their
  // own handles rather than drain(), which would also wait on unrelated
  // submitters.
  static bool waitAll(const std::vector<FabricJobHandle>& handles);

  // --- serving tier ----------------------------------------------------
  // The fabric-wide ProductServer: every broker (including degraded ones
  // serving read-only cache hits) publishes tile versions into it, so
  // queries and subscriptions span the whole catalog regardless of which
  // broker ran — or re-ran — each scenario.
  [[nodiscard]] serve::ProductServer& productServer() { return *server_; }
  serve::ExceedanceResult exceedance(const serve::ExceedanceQuery& query) {
    return server_->exceedance(query);
  }
  std::uint64_t subscribeTiles(serve::Field field, serve::Extent extent,
                               serve::SubscriptionCallback callback) {
    return server_->subscribe(field, extent, std::move(callback));
  }
  void unsubscribeTiles(std::uint64_t id) { server_->unsubscribe(id); }

  [[nodiscard]] BrokerState brokerState(int id) const;
  [[nodiscard]] MembershipView currentView();
  [[nodiscard]] FabricReport report() const;
  [[nodiscard]] const FabricConfig& config() const { return config_; }
  // Fabric timeline (death/degrade/rejoin/handoff markers).
  [[nodiscard]] std::vector<std::string> events() const;

 private:
  void settleJob(int broker, const std::string& digest,
                 sched::ScenarioProducts products, sched::JobPhase phase,
                 const std::string& error);
  void recordEvent(int broker, const std::string& what);
  void settleRemainingLocked(const std::string& why) AWP_REQUIRES(jobsMu_);

  FabricConfig config_;
  Stopwatch clock_;

  std::unique_ptr<telemetry::Session> ownedSession_;

  std::unique_ptr<LeaseBoard> board_;
  std::unique_ptr<HashRing> ring_;
  std::unique_ptr<FabricTransport> transport_;
  std::unique_ptr<SubmissionLog> log_;
  // Serving tier: tile chunks live in the server's TileStore; the
  // brokers' on-disk cache dir holds only products and meshes. Declared
  // before brokers_ — broker services publish into the server, so it must
  // be destroyed after them.
  std::unique_ptr<serve::ProductServer> server_;
  std::vector<std::unique_ptr<Broker>> brokers_;

  mutable std::mutex jobsMu_;
  std::condition_variable settleCv_;
  std::map<std::string, FabricJobHandle> jobs_ AWP_GUARDED_BY(jobsMu_);
  std::uint64_t completed_ AWP_GUARDED_BY(jobsMu_) = 0;
  std::uint64_t failed_ AWP_GUARDED_BY(jobsMu_) = 0;
  // Round-robin entry broker cursor.
  std::uint64_t nextEntry_ AWP_GUARDED_BY(jobsMu_) = 0;
  bool shutdownDone_ AWP_GUARDED_BY(jobsMu_) = false;

  mutable std::mutex eventsMu_;
  std::vector<std::string> events_ AWP_GUARDED_BY(eventsMu_);
};

}  // namespace awp::fabric
