#include "vcluster/respawn.hpp"

#include "fault/injector.hpp"

namespace awp::vcluster {

SupervisedCluster::SupervisedCluster(int nranks, SupervisorOptions options)
    : nranks_(nranks), options_(std::move(options)) {
  AWP_CHECK_MSG(nranks_ > 0, "SupervisedCluster requires at least one rank");
  AWP_CHECK_MSG(options_.respawnBudget >= 0,
                "respawn budget must be non-negative");
}

SupervisedCluster::~SupervisedCluster() {
  // run() joins everything it spawned; nothing outlives it.
}

bool SupervisedCluster::allRanksDoneLocked() const {
  for (int r = 0; r < nranks_; ++r)
    if (!rankDone_[static_cast<std::size_t>(r)]) return false;
  return true;
}

void SupervisedCluster::bumpEpochLocked() {
  const std::uint64_t next =
      state_->epoch.load(std::memory_order_relaxed) + 1;
  state_->epoch.store(next, std::memory_order_release);
}

void SupervisedCluster::abortLocked() {
  aborting_ = true;
  bumpEpochLocked();
  for (auto& mb : state_->mailboxes) mb->wakeAll();
  cv_.notify_all();
}

void SupervisedCluster::escalateLocked(const Pending& p) {
  if (p.death) rankDone_[static_cast<std::size_t>(p.rank)] = true;
  abortError_ = std::make_exception_ptr(RespawnExhaustedError(
      p.rank, p.cause, respawnsUsed_, options_.respawnBudget));
  abortLocked();
}

void SupervisedCluster::handleLocked(const Pending& p,
                                     std::vector<RespawnEvent>& emitted) {
  const auto slot = static_cast<std::size_t>(p.rank);
  if (p.incarnation != incarnation_[slot]) return;  // stale incarnation
  if (rankDone_[slot]) return;
  if (aborting_ || finished_) {
    // Too late to repair; a dead rank is still terminal for bookkeeping.
    if (p.death) rankDone_[slot] = true;
    return;
  }
  if (!p.death && quiescing_[slot]) return;  // already recovering: absorb
  if (anyCompleted_ || respawnsUsed_ >= options_.respawnBudget) {
    escalateLocked(p);
    return;
  }

  ++respawnsUsed_;
  bumpEpochLocked();
  const std::uint64_t epoch = state_->epoch.load(std::memory_order_relaxed);
  // Dead-incarnation mail must not survive into the replay: purge every
  // mailbox, then wake all waiters so survivors reach their fence.
  for (auto& mb : state_->mailboxes) mb->purgeBelow(epoch);
  for (auto& mb : state_->mailboxes) mb->wakeAll();
  incarnation_[slot] += 1;
  quiescing_[slot] = 0;

  RespawnEvent ev;
  ev.rank = p.rank;
  ev.incarnation = incarnation_[slot];
  ev.epoch = epoch;
  ev.cause = p.cause;
  ev.at = std::chrono::steady_clock::now();
  events_.push_back(ev);
  // The replacement thread is spawned by the supervisor loop AFTER the
  // onRespawn callback has run, so the callback can invalidate state the
  // dead rank is modelled to have lost (e.g. its in-memory checkpoint
  // blob) before the replacement can possibly restore from it.
  emitted.push_back(std::move(ev));
  settledEpoch_ = epoch;
  cv_.notify_all();
}

SupervisedCluster::Decision SupervisedCluster::awaitDecision(
    int rank, int incarnation) {
  const auto slot = static_cast<std::size_t>(rank);
  std::unique_lock<std::mutex> lock(mu_);
  if (incarnation == incarnation_[slot]) quiescing_[slot] = 1;
  cv_.wait(lock, [&] {
    return aborting_ || incarnation != incarnation_[slot] ||
           settledEpoch_ == state_->epoch.load(std::memory_order_relaxed);
  });
  if (incarnation == incarnation_[slot]) quiescing_[slot] = 0;
  if (incarnation != incarnation_[slot]) return Decision::Retire;
  if (aborting_) {
    // This incarnation is terminal: exit silently so the recorded error
    // (or the supervisor's escalation error) propagates instead.
    rankDone_[slot] = true;
    cv_.notify_all();
    return Decision::Abort;
  }
  return Decision::Resume;
}

void SupervisedCluster::rankMain(int rank, int incarnation) {
  fault::setThreadRank(rank);
  Communicator comm(rank, state_.get());
  comm.adoptEpoch();  // a replacement joins under the current epoch
  const auto slot = static_cast<std::size_t>(rank);
  {
    // A replacement can start into a cluster that aborted (or moved on)
    // between its respawn decision and this thread running. Entering the
    // rank function then would block forever on peers that already
    // unwound — with an epoch adopted AFTER the abort bump, no fence
    // would ever wake it. (If the abort lands after this check instead,
    // the epoch we adopted above predates the abort bump and the normal
    // fence path catches us.)
    std::lock_guard<std::mutex> lock(mu_);
    if (aborting_ || incarnation != incarnation_[slot]) {
      if (incarnation == incarnation_[slot]) rankDone_[slot] = true;
      cv_.notify_all();
      return;
    }
  }
  for (;;) {
    try {
      (*fn_)(comm);
      std::lock_guard<std::mutex> lock(mu_);
      if (incarnation == incarnation_[slot]) {
        rankDone_[slot] = true;
        anyCompleted_ = true;
        cv_.notify_all();
      }
      return;
    } catch (const RankDeathError&) {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(Pending{rank, incarnation, true, "rank-death"});
      cv_.notify_all();
      return;  // the thread IS the failure domain: it exits here
    } catch (const EpochFenced&) {
      bool current;
      {
        std::lock_guard<std::mutex> lock(mu_);
        current = (incarnation == incarnation_[slot]);
      }
      if (current && options_.onQuiesce) options_.onQuiesce(rank, true);
      const Decision d = awaitDecision(rank, incarnation);
      if (current && options_.onQuiesce) options_.onQuiesce(rank, false);
      if (d != Decision::Resume) return;
      comm.adoptEpoch();
      continue;  // re-enter the rank function under the new epoch
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (incarnation == incarnation_[slot]) {
        errors_[slot] = std::current_exception();
        rankDone_[slot] = true;
        // Unblock peers waiting on this rank so they unwind via the fence
        // instead of deadlocking; the recorded error wins at rethrow time.
        if (!aborting_ && !finished_) abortLocked();
        cv_.notify_all();
      }
      return;
    }
  }
}

void SupervisedCluster::run(const RankFn& fn) {
  state_ = std::make_unique<ClusterState>(nranks_);
  fn_ = &fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    AWP_CHECK_MSG(!running_, "SupervisedCluster::run is single-shot");
    running_ = true;
    incarnation_.assign(static_cast<std::size_t>(nranks_), 0);
    rankDone_.assign(static_cast<std::size_t>(nranks_), 0);
    quiescing_.assign(static_cast<std::size_t>(nranks_), 0);
    errors_.assign(static_cast<std::size_t>(nranks_), nullptr);
    threads_.reserve(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r)
      threads_.emplace_back([this, r] { rankMain(r, 0); });
  }

  // Supervisor loop on the calling thread: field loss reports, decide
  // respawn vs escalate, and wait for every rank to reach terminal state.
  for (;;) {
    std::vector<RespawnEvent> emitted;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock,
               [&] { return !pending_.empty() || allRanksDoneLocked(); });
      while (!pending_.empty()) {
        const Pending p = std::move(pending_.front());
        pending_.pop_front();
        handleLocked(p, emitted);
      }
      if (emitted.empty() && allRanksDoneLocked()) {
        finished_ = true;
        break;
      }
    }
    // Callbacks run outside the lock: they touch job/telemetry state.
    if (options_.onRespawn)
      for (const auto& ev : emitted) options_.onRespawn(ev);
    if (!emitted.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& ev : emitted)
        threads_.emplace_back([this, rank = ev.rank,
                               inc = ev.incarnation] { rankMain(rank, inc); });
    }
  }

  // Detach the thread handles under the lock, join outside it: a child
  // still unwinding must never find the supervisor holding mu_ at join.
  std::vector<std::thread> joiners;
  {
    std::lock_guard<std::mutex> lock(mu_);
    joiners.swap(threads_);
  }
  for (auto& t : joiners) t.join();
  fn_ = nullptr;

  std::lock_guard<std::mutex> lock(mu_);
  for (int r = 0; r < nranks_; ++r)
    if (errors_[static_cast<std::size_t>(r)])
      std::rethrow_exception(errors_[static_cast<std::size_t>(r)]);
  if (abortError_) std::rethrow_exception(abortError_);
}

bool SupervisedCluster::requestRespawn(int rank, const std::string& cause) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!running_ || finished_ || aborting_) return false;
  if (rank < 0 || rank >= nranks_) return false;
  const auto slot = static_cast<std::size_t>(rank);
  if (rankDone_[slot]) return false;
  if (anyCompleted_) return false;  // epilogue: too late to replay safely
  if (quiescing_[slot]) return true;  // absorbed: already recovering
  for (const auto& p : pending_)
    if (p.rank == rank) return true;  // absorbed: request already queued
  if (respawnsUsed_ >= options_.respawnBudget) return false;
  pending_.push_back(Pending{rank, incarnation_[slot], false, cause});
  cv_.notify_all();
  return true;
}

std::vector<RespawnEvent> SupervisedCluster::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

int SupervisedCluster::respawnsUsed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return respawnsUsed_;
}

}  // namespace awp::vcluster
