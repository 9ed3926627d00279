#pragma once
// Minimal persistent thread pool with a blocking parallel-for, backing the
// MPI/OpenMP-hybrid execution mode of §IV.D ("multiple OpenMP threads,
// spawned from a single MPI process, directly access shared memory within
// a node"). One pool per rank; parallelFor splits an index range into
// contiguous chunks, one per worker, and blocks until all complete.
// Each chunk runs under the caller's floating-point control word
// (util/fp_env.hpp), so a flushing caller gets the same bits from any
// number of workers.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/fp_env.hpp"
#include "util/guarded.hpp"

namespace awp {

class ThreadPool {
 public:
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int workers() const {
    return static_cast<int>(threads_.size()) + 1;  // + the calling thread
  }

  // Run fn(begin, end) over contiguous chunks of [begin, end) on the
  // workers plus the calling thread; returns when every chunk is done.
  void parallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Task {
    std::size_t begin = 0, end = 0;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    FpControlWord fpControl = 0;  // the caller's, captured per parallelFor
  };

  void workerLoop(std::size_t index);

  std::vector<std::thread> threads_;
  std::vector<Task> tasks_ AWP_GUARDED_BY(mutex_);  // one slot per worker
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  // bumped per parallelFor
  std::size_t generation_ AWP_GUARDED_BY(mutex_) = 0;
  std::size_t pending_ AWP_GUARDED_BY(mutex_) = 0;
  bool stop_ AWP_GUARDED_BY(mutex_) = false;
};

}  // namespace awp
