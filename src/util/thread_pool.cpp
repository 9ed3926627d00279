#include "util/thread_pool.hpp"

#include "util/error.hpp"

namespace awp {

ThreadPool::ThreadPool(int workers) {
  AWP_CHECK(workers >= 1);
  const int helpers = workers - 1;  // the caller is worker 0
  tasks_.resize(static_cast<std::size_t>(helpers));
  threads_.reserve(static_cast<std::size_t>(helpers));
  for (int w = 0; w < helpers; ++w)
    threads_.emplace_back(
        [this, w] { workerLoop(static_cast<std::size_t>(w)); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::workerLoop(std::size_t index) {
  std::size_t seen = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = tasks_[index];
    }
    if (task.fn != nullptr && task.begin < task.end) {
      const ScopedFpControlWord fp(task.fpControl);
      (*task.fn)(task.begin, task.end);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
    }
    done_.notify_one();
  }
}

void ThreadPool::parallelFor(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t parts = threads_.size() + 1;
  const std::size_t chunk = (n + parts - 1) / parts;

  Task mine{};
  const FpControlWord fp = fpControlWord();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t at = begin;
    for (std::size_t w = 0; w < threads_.size(); ++w) {
      tasks_[w].begin = std::min(at, end);
      tasks_[w].end = std::min(at + chunk, end);
      tasks_[w].fn = &fn;
      tasks_[w].fpControl = fp;
      at += chunk;
    }
    mine.begin = std::min(at, end);
    mine.end = std::min(at + chunk, end);
    pending_ = threads_.size();
    ++generation_;
  }
  wake_.notify_all();

  if (mine.begin < mine.end) fn(mine.begin, mine.end);

  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return pending_ == 0; });
}

}  // namespace awp
