#pragma once
// Deterministic, seeded fault injection. At 223k cores component failure
// is the expected case (§III.F), so the paper's workflow verifies every
// data product (§III.H) and recovers failed transfers automatically
// (§III.I). This subsystem lets tests *prove* those recovery paths work:
// a FaultPlan schedules faults by site name, rank and occurrence count,
// and hooks in io::SharedFile, io::CheckpointStore, vcluster::Communicator
// / Mailbox and workflow::TransferChannel consult the installed injector.
//
// Hook sites (exact-match strings):
//   sharedfile.read / sharedfile.write — positional I/O ops
//   ckpt.payload                       — checkpoint payload as written
//   comm.send                          — point-to-point message injection
//   mailbox.pop                        — receive-side stall
//   transfer.chunk                     — wide-area chunk transfer
//   solver.step                        — top of each WaveSolver step
//                                        (RankStall wedges a rank;
//                                        FieldPoison NaNs one cell)
//   rank_death                         — top of each WaveSolver step,
//                                        consulted once per step per rank
//                                        (RankDeath kills the rank thread
//                                        so respawn ladders can be tested
//                                        at a chosen step)
//   buddy_drop                         — buddy-checkpoint replica receipt;
//                                        rank attribution is the replica
//                                        OWNER (MessageDrop loses the
//                                        in-memory replica, forcing the
//                                        disk fallback on restore)
//   broker_death                       — top of each hazard-fabric broker
//                                        pump tick with a local job queued
//                                        or running; rank = broker id
//                                        (RankDeath fail-stops the broker:
//                                        its service aborts, its lease
//                                        lapses, its hash range moves)
//   fabric_drop                        — hazard-fabric transport send and
//                                        lease-RPC path; rank = SENDING
//                                        broker id (MessageDrop = sender-
//                                        visible loss driving util/retry
//                                        backoff; MessageDuplicate =
//                                        delivered twice, exercising
//                                        digest dedup; sustained drops
//                                        partition the broker)
//   fabric_delay                       — hazard-fabric transport send;
//                                        rank = sending broker id
//                                        (RankStall sleeps the sender,
//                                        modelling a congested link)
//   serve_publish_drop                 — serving-tier window publish;
//                                        rank = publish origin (broker id,
//                                        or ServiceConfig::publishOriginId
//                                        outside a fabric). MessageDrop
//                                        loses one window's tile publish —
//                                        the next window or a reconcile
//                                        pass must converge subscribers
//                                        anyway
//   serve_notify_delay                 — serving-tier subscription delta
//                                        delivery; rank = publish origin
//                                        (RankStall delays the notify,
//                                        modelling a slow subscriber link)
//   cycle.step                         — top of each earthquake-cycle
//                                        quasi-dynamic step; rank = the
//                                        solver's configured rank id
//                                        (FieldPoison scales one node's
//                                        state variable by a large finite
//                                        factor — the adaptive stepper
//                                        must absorb it; RankStall wedges
//                                        the stepping loop so the
//                                        heartbeat watchdog can catch it)
//
// When no injector is installed every hook is a single relaxed atomic
// load + branch, so the disabled path adds no measurable overhead to the
// solver bench path.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/guarded.hpp"

namespace awp::fault {

enum class FaultKind {
  TransientIoError,   // throw awp::TransientError (retryable)
  ShortWrite,         // write only a prefix, then throw TransientError
  NoSpace,            // throw awp::Error (permanent, ENOSPC-style)
  BitFlip,            // flip one deterministic bit in the payload
  MessageDrop,        // comm: the message silently vanishes
  MessageDuplicate,   // comm: the message is delivered twice
  RankStall,          // sleep stallSeconds at the site
  FieldPoison,        // solver: write NaN into one deterministic cell
  RankDeath,          // kill the rank thread (throws RankDeathError)
};

const char* toString(FaultKind kind);

struct FaultSpec {
  std::string site;               // exact hook-site name
  FaultKind kind = FaultKind::TransientIoError;
  int rank = -1;                  // -1 = any rank
  std::uint64_t occurrence = 1;   // 1-based op index at (site, rank) that
                                  // first triggers the fault
  std::uint64_t count = 1;        // consecutive ops affected from there
  double stallSeconds = 0.0;      // RankStall only
};

// Builder for a set of scheduled faults.
class FaultPlan {
 public:
  FaultPlan& add(FaultSpec spec);

  // Convenience builders for the common cases.
  FaultPlan& transientIoError(std::string site, int rank,
                              std::uint64_t occurrence,
                              std::uint64_t count = 1);
  FaultPlan& bitFlip(std::string site, int rank, std::uint64_t occurrence);
  FaultPlan& stall(std::string site, int rank, std::uint64_t occurrence,
                   double seconds);
  FaultPlan& poison(std::string site, int rank, std::uint64_t occurrence);
  // Kill rank `rank` at the given 1-based "rank_death" consult (one consult
  // per solver step, so occurrence == step index within the attempt).
  // count > 1 also kills the first count-1 respawned incarnations, which is
  // how tests drive a respawn budget to exhaustion deterministically.
  FaultPlan& rankDeath(int rank, std::uint64_t occurrence,
                       std::uint64_t count = 1);
  // Lose rank `rank`'s in-memory buddy replica at the given replication.
  FaultPlan& buddyDrop(int rank, std::uint64_t occurrence,
                       std::uint64_t count = 1);
  // Fail-stop fabric broker `broker` at its occurrence-th pump tick with
  // local work in flight (idle ticks are not counted).
  FaultPlan& brokerDeath(int broker, std::uint64_t occurrence);
  // Drop `count` consecutive fabric sends/lease renewals FROM `broker`
  // starting at the occurrence-th "fabric_drop" consult. A long run
  // partitions the broker from the membership view.
  FaultPlan& fabricDrop(int broker, std::uint64_t occurrence,
                        std::uint64_t count = 1);
  // Deliver one fabric message from `broker` twice (dedup must absorb it).
  FaultPlan& fabricDuplicate(int broker, std::uint64_t occurrence);
  // Stall fabric sends from `broker` for `seconds` each.
  FaultPlan& fabricDelay(int broker, std::uint64_t occurrence,
                         double seconds, std::uint64_t count = 1);
  // Drop `count` consecutive serving-tier window publishes from publish
  // origin `origin` starting at the occurrence-th "serve_publish_drop"
  // consult. Dropped windows must be covered by later cumulative windows
  // or a reconcile pass.
  FaultPlan& servePublishDrop(int origin, std::uint64_t occurrence,
                              std::uint64_t count = 1);
  // Stall subscription delta delivery from `origin` for `seconds` each.
  FaultPlan& serveNotifyDelay(int origin, std::uint64_t occurrence,
                              double seconds, std::uint64_t count = 1);

  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }
  [[nodiscard]] bool empty() const { return specs_.empty(); }

 private:
  std::vector<FaultSpec> specs_;
};

// What a hook should do for the current operation.
struct FaultAction {
  FaultKind kind = FaultKind::TransientIoError;
  double stallSeconds = 0.0;
  std::uint64_t flipBit = 0;  // BitFlip: bit index (mod payload bits)
};

struct SiteStats {
  std::uint64_t operations = 0;
  std::uint64_t injected = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed = 0xfa017ULL);

  // Consult the plan at a hook site. Counts one operation against the
  // (site, rank) stream — per-rank streams keep concurrent ranks
  // deterministic — and returns the scheduled action, if any.
  std::optional<FaultAction> check(std::string_view site, int rank);

  [[nodiscard]] std::uint64_t faultsInjected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::map<std::string, SiteStats> stats() const;

 private:
  std::vector<FaultSpec> specs_;
  std::uint64_t seed_;
  std::atomic<std::uint64_t> injected_{0};
  mutable std::mutex mutex_;
  std::map<std::pair<std::string, int>, std::uint64_t> opCounts_
      AWP_GUARDED_BY(mutex_);
  std::map<std::string, SiteStats> stats_ AWP_GUARDED_BY(mutex_);
};

// ---- declared hook-site registry ----------------------------------------
// The single source of truth for which site names exist. awplint's
// --registry gate cross-checks it three ways: every literal check("...")
// consult in src/ must name a declared site, every declared site string
// must appear at a consult site somewhere in src/, and every site must be
// exercised by at least one test — matched by the site string itself or by
// the dedicated FaultPlan builder named here ("" = no dedicated builder;
// tests reach the site through the generic spec builders).
struct KnownFaultSite {
  const char* site;
  const char* builder;
};
inline constexpr KnownFaultSite kKnownSites[] = {
    {"sharedfile.read", ""},
    {"sharedfile.write", ""},
    {"ckpt.payload", ""},
    {"comm.send", ""},
    {"mailbox.pop", ""},
    {"transfer.chunk", ""},
    {"solver.step", ""},
    {"rank_death", "rankDeath"},
    {"buddy_drop", "buddyDrop"},
    {"broker_death", "brokerDeath"},
    {"fabric_drop", "fabricDrop"},
    {"fabric_delay", "fabricDelay"},
    {"serve_publish_drop", "servePublishDrop"},
    {"serve_notify_delay", "serveNotifyDelay"},
    // Worker-crash injection at the top of each scheduled job step
    // (sched/service.cpp's step callback). Consulted long before this
    // registry existed; declared here when the registry gate found the
    // drift.
    {"sched.job.step", ""},
    // Earthquake-cycle stepping loop (cycle/solver.cpp): deterministic
    // state perturbation + stall, reached through the generic builders.
    {"cycle.step", ""},
};

namespace detail {
extern std::atomic<FaultInjector*> g_injector;
}

// The process-global injector consulted by all hooks (nullptr = disabled).
inline FaultInjector* activeInjector() {
  return detail::g_injector.load(std::memory_order_acquire);
}
inline bool injectionEnabled() { return activeInjector() != nullptr; }
void installInjector(FaultInjector* injector);

// RAII install/uninstall for tests.
class ScopedInjection {
 public:
  explicit ScopedInjection(FaultInjector& injector) {
    installInjector(&injector);
  }
  ~ScopedInjection() { installInjector(nullptr); }
  ScopedInjection(const ScopedInjection&) = delete;
  ScopedInjection& operator=(const ScopedInjection&) = delete;
};

// Rank attribution for hooks that sit below the Communicator (SharedFile,
// Mailbox): the cluster launcher tags each rank thread; -1 outside one.
void setThreadRank(int rank);
int threadRank();

}  // namespace awp::fault
