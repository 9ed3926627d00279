#pragma once
// Rank watchdog (layer 3 of the health guard). At capability scale a
// wedged rank does not crash the job — it silently hangs every collective
// and the allocation burns until the queue limit kills it. Here each rank
// publishes a heartbeat (the step it is entering) into a shared
// HeartbeatBoard at the top of every solver step; an out-of-band Watchdog
// thread scans the board and, when heartbeats go stale past a configurable
// timeout, emits a StallReport naming the suspected origin: among the
// stalled ranks, the one with the LOWEST last-heartbeat step. A genuinely
// wedged rank stops beating first, so its neighbors — which advance one
// more step before blocking on it in a halo exchange — sit one beat ahead;
// the minimum-step rank is the one holding everyone back.
//
// The watchdog only observes: it never kills ranks. Tests exercise it
// deterministically with the fault injector's rank-stall site
// ("solver.step"), turning a hang into an actionable report.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/guarded.hpp"

namespace awp::health {

// Shared per-rank heartbeat slots. beat() is wait-free; readers may see a
// beat's (step, time) pair mid-update, which at worst ages a report by one
// poll interval — acceptable for a monitoring path.
class HeartbeatBoard {
 public:
  explicit HeartbeatBoard(int nranks);

  [[nodiscard]] int size() const { return static_cast<int>(count_); }

  // Publish "rank is entering `step`".
  void beat(int rank, std::uint64_t step);

  struct Beat {
    bool seen = false;       // at least one beat published
    std::uint64_t step = 0;  // last published step
    std::chrono::steady_clock::time_point at{};
  };
  [[nodiscard]] Beat last(int rank) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> step{0};
    std::atomic<std::int64_t> atNs{-1};  // steady_clock ns; -1 = never
  };
  std::size_t count_;
  std::unique_ptr<Slot[]> slots_;
};

struct StallReport {
  int rank = -1;                  // suspected origin (lowest stalled step)
  std::uint64_t lastStep = 0;     // last heartbeat step of the origin
  double stalledSeconds = 0.0;    // age of the origin's heartbeat
  std::vector<int> stalledRanks;  // every rank past the timeout
};

class Watchdog {
 public:
  using StallFn = std::function<void(const StallReport&)>;

  // Starts the scan thread. One report is emitted per stall episode: after
  // reporting, the watchdog stays quiet until the origin rank beats again.
  // `missThreshold` debounces verdicts: an episode opens only after that
  // many CONSECUTIVE scans saw a stalled origin (1 = report immediately).
  // A respawn quiesce or a slow I/O flush can age heartbeats past the
  // timeout for one scan; debouncing keeps those from tripping the ladder.
  Watchdog(const HeartbeatBoard& board, double stallTimeoutSeconds,
           StallFn onStall = nullptr, double pollIntervalSeconds = 0.05,
           int missThreshold = 1);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Idempotent. Wakes the scan thread out of its poll wait and joins it,
  // so it returns at once rather than after up to one poll interval.
  void stop();

  // Every episode reported so far. Consumers that act on episodes (the
  // scenario service) take each one once through onStall instead.
  [[nodiscard]] std::vector<StallReport> reports() const;

 private:
  void scanLoop();

  const HeartbeatBoard& board_;
  double timeout_;
  double poll_;
  int missThreshold_;
  int missedScans_ = 0;  // consecutive scans with a stalled origin
  StallFn onStall_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;  // stop() -> scan thread
  bool stopping_ AWP_GUARDED_BY(mutex_) = false;
  std::vector<StallReport> reports_ AWP_GUARDED_BY(mutex_);
  bool episodeOpen_ AWP_GUARDED_BY(mutex_) = false;
  int episodeOrigin_ AWP_GUARDED_BY(mutex_) = -1;
  std::uint64_t episodeOriginStep_ AWP_GUARDED_BY(mutex_) = 0;
  std::thread thread_;
};

}  // namespace awp::health
