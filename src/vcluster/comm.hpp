#pragma once
// Communicator: the MPI-substitute interface used by every parallel
// component of the reproduction (solver halo exchange, mesh partitioner,
// parallel I/O, checksum generation). It provides the subset of MPI that
// AWP-ODC relies on — tagged point-to-point, barrier, reductions,
// broadcast and gather — over in-process mailboxes.
//
// Permission model mirrors MPI buffered sends: send() copies the payload
// and returns immediately; recv() blocks until a matching envelope arrives.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "vcluster/mailbox.hpp"

namespace awp::vcluster {

// Aggregate communication statistics, shared by all ranks of a cluster.
// The reduced-communication experiment (§IV.A) asserts on bytesSent.
struct CommStats {
  std::atomic<std::uint64_t> messagesSent{0};
  std::atomic<std::uint64_t> bytesSent{0};
  std::atomic<std::uint64_t> barriers{0};
  // Fault injection ("comm.send" site): messages dropped in flight or
  // delivered twice. Always zero when no injector is installed.
  std::atomic<std::uint64_t> messagesDropped{0};
  std::atomic<std::uint64_t> messagesDuplicated{0};
  // Dead-incarnation mail discarded by epoch fencing (respawn recovery).
  std::atomic<std::uint64_t> messagesFenced{0};

  void reset() {
    messagesSent = 0;
    bytesSent = 0;
    barriers = 0;
    messagesDropped = 0;
    messagesDuplicated = 0;
    messagesFenced = 0;
  }
};

// Shared state for one virtual cluster, owned by SupervisedCluster (which
// bumps the epoch on a respawn or an abort).
struct ClusterState {
  explicit ClusterState(int nranks);

  int size;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  CommStats stats;
  // Cluster incarnation epoch (see epoch.hpp). Bumped by the respawn
  // supervisor; Communicators built before the bump fence on their next
  // communication call.
  std::atomic<std::uint64_t> epoch{0};
};

enum class ReduceOp { Sum, Min, Max };

class Communicator {
 public:
  Communicator(int rank, ClusterState* state)
      : rank_(rank),
        state_(state),
        epochSeen_(state->epoch.load(std::memory_order_acquire)) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return state_->size; }
  [[nodiscard]] CommStats& stats() const { return state_->stats; }

  // --- Incarnation epoch (respawn fencing; see epoch.hpp) -----------------
  // The epoch this Communicator is operating under.
  [[nodiscard]] std::uint64_t epoch() const { return epochSeen_; }
  // True when the cluster epoch moved past this incarnation. Registered
  // hot path: one atomic load, no allocation, no throw.
  [[nodiscard]] bool fenced() const;
  // Throw EpochFenced if fenced; called at the top of every communication
  // primitive and at the solver's per-step fence point, so a woken zombie
  // quiesces before touching shared per-rank state.
  void fencePoint() const;
  // Adopt the current cluster epoch (a surviving rank resuming after a
  // respawn decision, or a replacement joining fresh).
  void adoptEpoch() {
    epochSeen_ = state_->epoch.load(std::memory_order_acquire);
  }

  // --- Point-to-point -----------------------------------------------------
  void send(int dest, int tag, const void* data, std::size_t bytes);
  void recv(int src, int tag, void* data, std::size_t bytes);
  // Receive one (src, tag) message of any size and return its payload,
  // moved out of the mailbox rather than copied into a caller buffer.
  std::vector<std::byte> recvBytes(int src, int tag);

  // Typed convenience wrappers.
  template <typename T>
  void sendSpan(int dest, int tag, std::span<const T> data) {
    send(dest, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  void recvSpan(int src, int tag, std::span<T> data) {
    recv(src, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  void sendValue(int dest, int tag, const T& v) {
    send(dest, tag, &v, sizeof(T));
  }
  template <typename T>
  T recvValue(int src, int tag) {
    T v{};
    recv(src, tag, &v, sizeof(T));
    return v;
  }

  // --- Collectives (deterministic: reduce in rank order at root 0) --------
  // Token round through rank 0's mailbox, so an epoch fence wakes a rank
  // waiting in it. Tokens are runtime traffic: they count in
  // CommStats::barriers only, and consume no "comm.send" fault occurrence.
  void barrier();
  double allreduce(double value, ReduceOp op);
  std::int64_t allreduce(std::int64_t value, ReduceOp op);
  void bcast(int root, void* data, std::size_t bytes);
  // Gather variable-length byte payloads to root; non-root ranks get {}.
  std::vector<std::vector<std::byte>> gatherBytes(
      int root, std::span<const std::byte> payload);
  // Every rank contributes one value and receives the full rank-indexed
  // vector (the health guard's per-rank verdict tables use this).
  std::vector<std::int64_t> allgather(std::int64_t value);

 private:
  template <typename T>
  T allreduceImpl(T value, ReduceOp op);
  [[noreturn]] void throwFenced() const;

  int rank_;
  ClusterState* state_;
  std::uint64_t epochSeen_;
};

// Internal tag space for collectives; user tags must be >= 0.
inline constexpr int kTagBarrier = -1;
inline constexpr int kTagReduce = -2;
inline constexpr int kTagBcast = -3;
inline constexpr int kTagGatherData = -5;
// Buddy-checkpoint replica exchange (io::BuddyStore via the solver).
inline constexpr int kTagBuddyData = -7;

}  // namespace awp::vcluster
