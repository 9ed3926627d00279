#include "health/watchdog.hpp"

#include "util/error.hpp"

namespace awp::health {

using Clock = std::chrono::steady_clock;

HeartbeatBoard::HeartbeatBoard(int nranks)
    : count_(static_cast<std::size_t>(nranks)),
      slots_(std::make_unique<Slot[]>(count_)) {
  AWP_CHECK(nranks > 0);
}

void HeartbeatBoard::beat(int rank, std::uint64_t step) {
  AWP_CHECK(rank >= 0 && static_cast<std::size_t>(rank) < count_);
  auto& slot = slots_[static_cast<std::size_t>(rank)];
  slot.step.store(step, std::memory_order_relaxed);
  slot.atNs.store(Clock::now().time_since_epoch().count(),
                  std::memory_order_release);
}

HeartbeatBoard::Beat HeartbeatBoard::last(int rank) const {
  AWP_CHECK(rank >= 0 && static_cast<std::size_t>(rank) < count_);
  const auto& slot = slots_[static_cast<std::size_t>(rank)];
  Beat b;
  const std::int64_t ns = slot.atNs.load(std::memory_order_acquire);
  if (ns < 0) return b;
  b.seen = true;
  b.step = slot.step.load(std::memory_order_relaxed);
  b.at = Clock::time_point(Clock::duration(ns));
  return b;
}

Watchdog::Watchdog(const HeartbeatBoard& board, double stallTimeoutSeconds,
                   StallFn onStall, double pollIntervalSeconds,
                   int missThreshold)
    : board_(board),
      timeout_(stallTimeoutSeconds),
      poll_(pollIntervalSeconds),
      missThreshold_(missThreshold),
      onStall_(std::move(onStall)) {
  AWP_CHECK(stallTimeoutSeconds > 0.0 && pollIntervalSeconds > 0.0);
  AWP_CHECK_MSG(missThreshold >= 1, "watchdog miss threshold must be >= 1");
  thread_ = std::thread([this] { scanLoop(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::vector<StallReport> Watchdog::reports() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reports_;
}

void Watchdog::scanLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (wake_.wait_for(lock, std::chrono::duration<double>(poll_),
                         [&] { return stopping_; }))
        return;
    }
    const auto now = Clock::now();

    StallReport report;
    bool originSeen = false;
    for (int r = 0; r < board_.size(); ++r) {
      const auto beat = board_.last(r);
      if (!beat.seen) continue;  // rank not running a monitored loop yet
      const double age =
          std::chrono::duration<double>(now - beat.at).count();
      if (age < timeout_) continue;
      report.stalledRanks.push_back(r);
      // Origin: lowest last-heartbeat step; ties go to the lowest rank.
      if (!originSeen || beat.step < report.lastStep) {
        originSeen = true;
        report.rank = r;
        report.lastStep = beat.step;
        report.stalledSeconds = age;
      }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (!originSeen) {
      episodeOpen_ = false;
      missedScans_ = 0;  // debounce resets on any clean scan
      continue;
    }
    // Debounce: require missThreshold_ consecutive stalled scans before an
    // episode may open, so a one-scan heartbeat hiccup (respawn quiesce,
    // slow flush) never trips the escalation ladder.
    if (++missedScans_ < missThreshold_) continue;
    // One report per episode; a new episode needs the previous origin to
    // have beaten again (or a different origin to emerge).
    if (episodeOpen_ && episodeOrigin_ == report.rank &&
        episodeOriginStep_ == report.lastStep)
      continue;
    episodeOpen_ = true;
    episodeOrigin_ = report.rank;
    episodeOriginStep_ = report.lastStep;
    reports_.push_back(report);
    if (onStall_) onStall_(report);
  }
}

}  // namespace awp::health
