#pragma once
// Incarnation epochs for in-place rank respawn. A supervised cluster keeps
// one monotonically increasing cluster epoch; every message is stamped
// with the sender's epoch and every blocking wait carries an EpochGuard.
// When the supervisor bumps the epoch (because a rank died or is being
// replaced), all blocked receivers wake, observe the fence, and unwind
// with EpochFenced — the collective quiesce point of the recovery ladder.
// Messages stamped with an older epoch are from a dead incarnation and are
// discarded on match instead of being delivered.

#include <atomic>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace awp::vcluster {

// A receiver-side fence check: `current` points at the cluster epoch,
// `mine` is the epoch this Communicator joined under. Default-constructed
// guards never fence (a bare Mailbox outside any cluster).
struct EpochGuard {
  const std::atomic<std::uint64_t>* current = nullptr;
  std::uint64_t mine = 0;

  [[nodiscard]] bool fenced() const {
    return current != nullptr &&
           current->load(std::memory_order_acquire) != mine;
  }
};

// Thrown by communication primitives when the cluster epoch moved past the
// caller's incarnation: the rank must quiesce and await the supervisor's
// decision (resume under the new epoch, retire, or abort).
class EpochFenced : public Error {
 public:
  EpochFenced(int rank, std::uint64_t seen, std::uint64_t current)
      : Error("epoch fence: rank " + std::to_string(rank) + " at epoch " +
              std::to_string(seen) + " superseded by epoch " +
              std::to_string(current)),
        rank_(rank),
        seen_(seen),
        current_(current) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  [[nodiscard]] std::uint64_t current() const { return current_; }

 private:
  int rank_;
  std::uint64_t seen_;
  std::uint64_t current_;
};

// Thrown by the "rank_death" fault site: the fail-stop loss of one rank
// thread. A SupervisedCluster catches it in the rank wrapper and spawns a
// replacement incarnation; with no budget left (a ThreadCluster run has
// none) the loss escalates to RespawnExhaustedError.
class RankDeathError : public Error {
 public:
  RankDeathError(int rank, std::uint64_t step)
      : Error("rank death: rank " + std::to_string(rank) +
              " killed at step " + std::to_string(step)),
        rank_(rank),
        step_(step) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] std::uint64_t step() const { return step_; }

 private:
  int rank_;
  std::uint64_t step_;
};

}  // namespace awp::vcluster
