#pragma once
// In-memory broker-to-broker transport with injectable fault sites. Every
// cross-broker interaction — submission forwards AND the control-plane
// lease traffic — goes through here, so one injected partition severs a
// broker from its peers and from the membership board alike.
//
// Fault model (rank attribution is the SENDING broker id):
//   "fabric_delay"  RankStall        — sleep the sender (congested link)
//   "fabric_drop"   MessageDrop      — sender-visible loss: the send (or
//                                      lease RPC) reports failure, which
//                                      is what drives util/retry backoff
//                   MessageDuplicate — deliver the message twice; the
//                                      receiver's digest dedup must absorb
//
// Delivery is at-least-once from the caller's point of view: a Delivered
// result means the message sits in the target's inbox ring, not that the
// target will live to process it — a broker that dies with a full inbox
// loses those copies, and the submission-log replay is what guarantees
// the scenarios still run.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fabric/membership.hpp"
#include "sched/spec.hpp"
#include "util/guarded.hpp"

namespace awp::fabric {

struct FabricMessage {
  int from = -1;                // sending broker id
  std::uint64_t logSeq = 0;     // submission-log record being forwarded
  std::array<char, 32> digest{};  // spec hashHex (fixed width: no alloc)
  std::shared_ptr<const sched::ScenarioSpec> spec;

  [[nodiscard]] std::string digestStr() const {
    return std::string(digest.data(), digest.size());
  }
  void setDigest(const std::string& hex);
};

class FabricTransport {
 public:
  FabricTransport(int nbrokers, LeaseBoard* board, std::size_t inboxCapacity);

  enum class SendResult { Delivered, Dropped };

  // Data-plane send into `to`'s inbox ring; a delivery rings `to`'s
  // doorbell. Registered hot path: fault consults, one mutex, ring stores
  // and a notify — no allocation (the message carries a shared_ptr, copied
  // not re-built), no throw. A full inbox reports Dropped (backpressure
  // surfaces as loss; the sender retries).
  SendResult send(const FabricMessage& m, int to);

  // Drain one message from `broker`'s inbox (pump loop).
  bool poll(int broker, FabricMessage& out);

  // Each inbox carries its broker's doorbell: send() rings it on
  // delivery, ring() lets anything else wake that broker's pump (a local
  // job settle, stop). waitDoorbell blocks until the bell rings or
  // `deadline` passes, clears it, and returns true when it rang.
  void ring(int broker);
  bool waitDoorbell(int broker,
                    std::chrono::steady_clock::time_point deadline);

  // --- control plane: lease RPCs routed through the same faulty links ---
  enum class RenewOutcome {
    Ok,       // lease extended
    Dropped,  // RPC lost in flight: the board never saw the renewal
    Lapsed,   // board answered: lease already expired, must rejoin
  };
  RenewOutcome renewLease(int broker, double nowSeconds);
  // Re-admission RPC; false = lost in flight.
  bool rejoin(int broker, double nowSeconds);
  // Membership view read; nullopt = lost in flight (a partitioned broker
  // cannot even observe the view that evicted it).
  [[nodiscard]] std::optional<MembershipView> fetchView(int broker,
                                                        double nowSeconds);

  struct Stats {
    std::uint64_t sent = 0;        // send() calls
    std::uint64_t delivered = 0;   // copies enqueued (duplicates count 2)
    std::uint64_t dropped = 0;     // injected drops + inbox overflow
    std::uint64_t duplicated = 0;  // injected duplications
    std::uint64_t delayed = 0;     // injected sender stalls
    std::uint64_t rpcDrops = 0;    // control-plane RPCs lost
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] int nbrokers() const { return n_; }

 private:
  // Consult "fabric_delay" then "fabric_drop" for a send from `broker`.
  // Returns 0 = drop, 1 = deliver once, 2 = deliver twice.
  int consultSites(int broker);

  struct Inbox {
    std::mutex mu;
    std::condition_variable bell;
    bool rung AWP_GUARDED_BY(mu) = false;
    std::vector<FabricMessage> ring AWP_GUARDED_BY(mu);
    std::size_t head AWP_GUARDED_BY(mu) = 0;
    std::size_t count AWP_GUARDED_BY(mu) = 0;
  };

  const int n_;
  LeaseBoard* board_;
  const std::size_t cap_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> delayed_{0};
  std::atomic<std::uint64_t> rpcDrops_{0};
};

}  // namespace awp::fabric
