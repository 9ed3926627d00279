#pragma once
// SupervisedCluster: the SPMD runner (ThreadCluster is its respawn-budget-0
// entry) and the rank-level recovery ladder.
// The launcher thread doubles as a supervisor: when a rank thread dies
// (the "rank_death" fault site, modelling fail-stop node loss per §III.F)
// or a watchdog asks for a respawn of a wedged rank, the supervisor bumps
// the cluster incarnation epoch, purges dead-incarnation mail, and spawns
// a replacement thread for the lost rank. Surviving ranks quiesce at the
// epoch fence (every communication primitive checks it), re-enter the
// rank function under the new epoch, and the whole cluster re-agrees on a
// restore point — so a single-rank loss costs one rollback window instead
// of the whole attempt.
//
// Escalation: when the respawn budget is exhausted (or a loss happens
// after some rank already finished the rank function, where a mid-ladder
// respawn could strand the finished rank), the supervisor aborts the run
// with RespawnExhaustedError and the scenario service falls back to its
// existing collective cancel-and-requeue.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/guarded.hpp"
#include "vcluster/comm.hpp"
#include "vcluster/epoch.hpp"

namespace awp::vcluster {

// One successful in-place respawn, as recorded by the supervisor.
struct RespawnEvent {
  int rank = -1;
  int incarnation = 0;      // 1-based incarnation of the replacement
  std::uint64_t epoch = 0;  // cluster epoch the replacement joined under
  std::string cause;        // "rank-death" | "stall"
  std::chrono::steady_clock::time_point at{};
};

// Terminal outcome when the ladder cannot repair the attempt in place.
class RespawnExhaustedError : public Error {
 public:
  RespawnExhaustedError(int rank, std::string cause, int respawnsUsed,
                        int budget)
      : Error("respawn budget exhausted: rank " + std::to_string(rank) +
              " lost (" + cause + ") after " +
              std::to_string(respawnsUsed) + "/" + std::to_string(budget) +
              " respawns; escalating to collective cancel"),
        rank_(rank),
        cause_(std::move(cause)) {}

  [[nodiscard]] int rank() const { return rank_; }
  // "stall" when the loss came from a watchdog respawn request.
  [[nodiscard]] const std::string& cause() const { return cause_; }

 private:
  int rank_;
  std::string cause_;
};

struct SupervisorOptions {
  // In-place respawns allowed per run; a loss beyond the budget escalates.
  int respawnBudget = 1;
  // Called on the supervisor thread for each successful respawn, BEFORE
  // the replacement thread starts — so the callback can invalidate state
  // the lost rank is modelled to have lost with it (e.g. its in-memory
  // checkpoint blob) ahead of any restore attempt.
  std::function<void(const RespawnEvent&)> onRespawn;
  // Called on a quiescing rank's own thread when it enters (true) and
  // leaves (false) the epoch fence — the service wraps these in telemetry
  // spans (vcluster itself stays telemetry-free).
  std::function<void(int rank, bool quiescing)> onQuiesce;
};

class SupervisedCluster {
 public:
  using RankFn = std::function<void(Communicator&)>;

  SupervisedCluster(int nranks, SupervisorOptions options);
  ~SupervisedCluster();
  SupervisedCluster(const SupervisedCluster&) = delete;
  SupervisedCluster& operator=(const SupervisedCluster&) = delete;

  // Run `fn` on every rank; blocks until all complete (possibly through
  // respawns). Rethrows the first rank error by rank order, or
  // RespawnExhaustedError when the ladder escalated. The rank function
  // must be RESTARTABLE: a surviving rank re-enters it from the top after
  // a respawn, so it must rebuild its state and resume from the agreed
  // restore point (the scenario service's attempt body already is, by the
  // same property its requeue path relies on).
  void run(const RankFn& fn);

  // Watchdog entry point (any thread): ask for an in-place respawn of a
  // suspected-wedged rank. Returns true when the request is accepted or
  // absorbed by an in-flight recovery of the same rank; false when the
  // ladder cannot help (not running, budget exhausted, rank already
  // terminal, or some rank already finished) and the caller should fall
  // back to collective cancellation.
  bool requestRespawn(int rank, const std::string& cause);

  [[nodiscard]] std::vector<RespawnEvent> events() const;
  [[nodiscard]] int respawnsUsed() const;
  [[nodiscard]] CommStats* stats() const {
    return state_ ? &state_->stats : nullptr;
  }

 private:
  enum class Decision { Resume, Retire, Abort };

  struct Pending {
    int rank = -1;
    int incarnation = 0;
    bool death = false;  // thread already exited (vs wedged-but-alive)
    std::string cause;
  };

  void rankMain(int rank, int incarnation);
  Decision awaitDecision(int rank, int incarnation);
  void handleLocked(const Pending& p, std::vector<RespawnEvent>& emitted)
      AWP_REQUIRES(mu_);
  void escalateLocked(const Pending& p) AWP_REQUIRES(mu_);
  void abortLocked() AWP_REQUIRES(mu_);
  void bumpEpochLocked() AWP_REQUIRES(mu_);
  [[nodiscard]] bool allRanksDoneLocked() const AWP_REQUIRES(mu_);

  const int nranks_;
  SupervisorOptions options_;
  std::unique_ptr<ClusterState> state_;
  const RankFn* fn_ = nullptr;  // valid for the duration of run()

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // current incarnation per rank
  std::vector<int> incarnation_ AWP_GUARDED_BY(mu_);
  // current incarnation reached terminal
  std::vector<char> rankDone_ AWP_GUARDED_BY(mu_);
  // current incarnation is at the fence
  std::vector<char> quiescing_ AWP_GUARDED_BY(mu_);
  std::vector<std::exception_ptr> errors_ AWP_GUARDED_BY(mu_);
  std::deque<Pending> pending_ AWP_GUARDED_BY(mu_);
  std::vector<std::thread> threads_ AWP_GUARDED_BY(mu_);
  std::vector<RespawnEvent> events_ AWP_GUARDED_BY(mu_);
  std::exception_ptr abortError_ AWP_GUARDED_BY(mu_);
  // last fully-configured epoch
  std::uint64_t settledEpoch_ AWP_GUARDED_BY(mu_) = 0;
  int respawnsUsed_ AWP_GUARDED_BY(mu_) = 0;
  bool running_ AWP_GUARDED_BY(mu_) = false;
  bool finished_ AWP_GUARDED_BY(mu_) = false;
  bool aborting_ AWP_GUARDED_BY(mu_) = false;
  bool anyCompleted_ AWP_GUARDED_BY(mu_) = false;
};

}  // namespace awp::vcluster
