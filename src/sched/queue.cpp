#include "sched/queue.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/hot.hpp"

namespace awp::sched {

AdmissionQueue::AdmissionQueue(std::size_t capacity) : capacity_(capacity) {
  AWP_CHECK(capacity > 0);
  // Headroom beyond the bound: requeues bypass capacity, and the pop path
  // must never trigger a reallocation (it is a registered hot path).
  items_.reserve(2 * capacity + 8);
}

void AdmissionQueue::insertSorted(JobHandle job) {
  // Ascending (priority, descending seq): back() is the highest priority,
  // and within a priority the OLDEST submission (lowest seq).
  const auto pos = std::upper_bound(
      items_.begin(), items_.end(), job,
      [](const JobHandle& a, const JobHandle& b) {
        if (a->spec.priority != b->spec.priority)
          return a->spec.priority < b->spec.priority;
        return a->submitSeq > b->submitSeq;
      });
  items_.insert(pos, std::move(job));
}

AdmissionQueue::PushResult AdmissionQueue::push(JobHandle job) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return PushResult::Closed;
  if (items_.size() >= capacity_) {
    ++stats_.rejected;
    return PushResult::Rejected;
  }
  insertSorted(std::move(job));
  ++stats_.admitted;
  return PushResult::Admitted;
}

void AdmissionQueue::pushRequeue(JobHandle job) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Requeues land even after close(): a drain must finish accepted work.
  insertSorted(std::move(job));
  ++stats_.requeued;
}

AWP_HOT JobHandle AdmissionQueue::pop() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (items_.empty()) return nullptr;
  JobHandle job = std::move(items_.back());
  items_.pop_back();
  return job;
}

AWP_HOT JobHandle AdmissionQueue::popFit(int freeCores) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = items_.rbegin(); it != items_.rend(); ++it) {
    if ((*it)->spec.nranks > freeCores) continue;
    JobHandle job = std::move(*it);
    items_.erase(std::next(it).base());
    return job;
  }
  return nullptr;
}

void AdmissionQueue::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
}

std::vector<JobHandle> AdmissionQueue::drainAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobHandle> out = std::move(items_);
  items_.clear();
  items_.reserve(2 * capacity_ + 8);  // keep the hot-pop no-realloc headroom
  return out;
}

std::size_t AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return items_.size();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

AdmissionQueue::Stats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace awp::sched
