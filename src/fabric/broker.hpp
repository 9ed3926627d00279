#pragma once
// One scenario broker of the hazard fabric: a ScenarioService wrapped in a
// pump thread that renews the broker's membership lease, drains its
// transport inbox, replays submission-log records it newly owns after a
// membership epoch bump, and reaps local completions back to the fabric.
//
// The pump sleeps on its inbox doorbell (transport.hpp). Inbox deliveries,
// local settles and stop() ring it, and a ring runs routeAndSettle only;
// the broker_death consult, heartbeat and reconcile count stay on the
// pumpIntervalSeconds timer tick, so "Nth pump tick" keeps its meaning.
// The broker_death consult also runs only on ticks with local work in
// flight, so a death scheduled at the Nth such tick always lands on work.
//
// State machine:
//   Active   — routes submissions by the consistent-hash ring: owned
//              digests run locally, the rest are forwarded (at-least-once
//              under util/retry; exhaustion defers for the next tick).
//   Degraded — entered after `degradedAfterMisses` consecutive failed
//              lease renewals (a partition, not a crash). Local running
//              work finishes, cache hits are still served, and every new
//              submission is parked for re-forward; a successful renewal
//              or rejoin flushes the parked work and returns to Active.
//   Dead     — fail-stop ("broker_death" at a pump tick, or an operator
//              kill). The local service aborts, the lease is simply never
//              renewed again, and the membership view's next epoch hands
//              the broker's hash range to the survivors, which resume its
//              jobs from the checkpoint tier and replay its queued ones
//              from the submission log.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fabric/hash_ring.hpp"
#include "fabric/membership.hpp"
#include "fabric/submission_log.hpp"
#include "fabric/transport.hpp"
#include "sched/service.hpp"
#include "util/guarded.hpp"
#include "util/timer.hpp"

namespace awp::fabric {

enum class BrokerState { Active, Degraded, Dead };

const char* toString(BrokerState state);

struct BrokerConfig {
  int id = 0;
  double heartbeatSeconds = 0.25;
  int degradedAfterMisses = 2;
  double pumpIntervalSeconds = 0.01;
  int forwardAttempts = 4;            // util/retry attempts per forward
  // Dedicated telemetry slot for the pump thread's spans; -1 = no spans
  // (counters still recorded). The fabric assigns a lane per broker when
  // it owns the session.
  int pumpTelemetrySlot = -1;
  // Work-dir roots of ALL brokers, indexed by broker id — the handoff
  // scans peers' job dirs for the newest valid checkpoint generation.
  std::vector<std::string> peerWorkDirs;
  // Serving-tier anti-entropy hook, called every reconcileEveryTicks pump
  // ticks (0 = never). The fabric binds it to ProductServer::reconcile;
  // the broker stays ignorant of tiles. Runs in Degraded mode too — a
  // partitioned broker keeps converging its subscribers read-only.
  std::function<void()> reconcile;
  int reconcileEveryTicks = 0;
  sched::ServiceConfig service;
};

class Broker {
 public:
  // Fabric callbacks. settle: a digest reached a terminal phase here
  // (products populated when Completed). event: human-readable fabric
  // timeline marker (death, degrade, rejoin, handoff).
  using SettleFn = std::function<void(
      int broker, const std::string& digest, sched::JobPhase phase,
      sched::ScenarioProducts products, const std::string& error)>;
  using EventFn = std::function<void(int broker, const std::string& what)>;

  Broker(BrokerConfig config, const HashRing* ring,
         FabricTransport* transport, SubmissionLog* log,
         const Stopwatch* clock, SettleFn settle, EventFn event);
  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  void start();
  // Join the pump and shut the local service down (normal teardown; a
  // Dead broker's service was already aborted).
  void stop();

  // Entry-point routing for a client submission (fabric caller thread).
  enum class Accept {
    Owned,      // ran (or deduped) locally
    Forwarded,  // handed to the owner broker
    Deferred,   // parked: degraded, no live owner, or forward exhausted
    Dead,       // this broker is fail-stopped; pick another entry
  };
  Accept submitClient(const std::shared_ptr<const sched::ScenarioSpec>& spec,
                      const std::string& digest);

  // Operator fail-stop (the chaos tests' killBroker). Idempotent.
  void kill(const std::string& why);

  [[nodiscard]] BrokerState state() const {
    return state_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int id() const { return config_.id; }
  [[nodiscard]] sched::ServiceReport serviceReport() const {
    return service_->report();
  }
  [[nodiscard]] const sched::ScenarioService& service() const {
    return *service_;
  }

  struct Counters {
    std::uint64_t forwards = 0;       // submissions sent to a remote owner
    std::uint64_t replays = 0;        // log records replayed after a view change
    std::uint64_t handoffs = 0;       // job dirs seeded from a peer's tier
    std::uint64_t viewChanges = 0;    // membership epoch bumps observed
    std::uint64_t degradedHolds = 0;  // submissions parked while degraded
    std::uint64_t dedupHits = 0;      // duplicate digests absorbed
  };
  [[nodiscard]] Counters counters() const;

 private:
  void pumpLoop();
  void pumpOnce();  // timer tick
  // A local job is queued or running (tracked and not yet done).
  [[nodiscard]] bool hasWorkInFlight() const;
  // Drain the inbox, reap completions, flush parked work while Active.
  void routeAndSettle();
  void heartbeat(double now);
  void adoptView(const MembershipView& view);
  void drainInbox();
  void handleMessage(const FabricMessage& m);
  void reapCompletions();
  void flushDeferred();
  // Route one submission under the last adopted view. mu_ must NOT be
  // held. `fromPump` gates span emission to the pump's dedicated lane.
  Accept route(const std::shared_ptr<const sched::ScenarioSpec>& spec,
               const std::string& digest, bool fromPump);
  Accept submitLocal(const std::shared_ptr<const sched::ScenarioSpec>& spec,
                     const std::string& digest);
  bool forward(const std::shared_ptr<const sched::ScenarioSpec>& spec,
               const std::string& digest, int owner, bool fromPump);
  void defer(const std::shared_ptr<const sched::ScenarioSpec>& spec,
             const std::string& digest, bool degradedHold);
  // Seed this broker's job dir for `rec` from the peer holding the newest
  // digest-valid checkpoint; true when anything was adopted.
  bool seedJobDirFromPeers(const LogRecord& rec);
  void die(const std::string& why);
  void enterDegraded(const std::string& why);
  void becomeActive(const std::string& why);

  BrokerConfig config_;
  const HashRing* ring_;
  FabricTransport* transport_;
  SubmissionLog* log_;
  const Stopwatch* clock_;
  SettleFn settle_;
  EventFn event_;

  std::unique_ptr<sched::ScenarioService> service_;
  std::atomic<BrokerState> state_{BrokerState::Active};

  // Pump-thread-only timing state.
  double nextHeartbeat_ = 0.0;
  int missedRenewals_ = 0;
  std::uint64_t pumpTicks_ = 0;

  struct Parked {
    std::shared_ptr<const sched::ScenarioSpec> spec;
    std::string digest;
  };

  mutable std::mutex mu_;
  MembershipView lastView_ AWP_GUARDED_BY(mu_);  // routing snapshot
  std::map<std::string, sched::JobHandle> tracked_
      AWP_GUARDED_BY(mu_);  // digest -> local job
  std::vector<Parked> deferred_ AWP_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> forwards_{0};
  std::atomic<std::uint64_t> replays_{0};
  std::atomic<std::uint64_t> handoffs_{0};
  std::atomic<std::uint64_t> viewChanges_{0};
  std::atomic<std::uint64_t> degradedHolds_{0};
  std::atomic<std::uint64_t> dedupHits_{0};

  std::atomic<bool> stopFlag_{false};
  std::thread pump_;
};

}  // namespace awp::fabric
