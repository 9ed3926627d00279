#pragma once
// Bounded priority admission queue. Admission control is the service's
// backpressure valve: the queue holds at most `capacity` jobs, and a full
// queue rejects the submission (the caller gets an immediate Rejected
// handle). Requeues after a crash/stall bypass the bound: work the service
// already accepted must never be dropped by its own backpressure.
//
// Storage is a vector kept sorted so that the BACK is always the next job
// to run (highest priority; FIFO within a priority via the submit
// sequence number). push pays the O(n) sorted insert on the admission
// path; pop and popFit — the dispatcher's hot path — take from the back
// with no allocation and no throw (registered in awplint's hot registry).

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sched/job.hpp"
#include "util/guarded.hpp"

namespace awp::sched {

class AdmissionQueue {
 public:
  enum class PushResult { Admitted, Rejected, Closed };

  explicit AdmissionQueue(std::size_t capacity);

  // Admission push: Rejected when the queue is full, Closed after close().
  PushResult push(JobHandle job);
  // Requeue push: bypasses the bound (and admission accounting).
  void pushRequeue(JobHandle job);

  // Highest-priority job, or nullptr when empty. No allocation, no throw.
  [[nodiscard]] JobHandle pop();
  // Highest-priority job with nranks <= freeCores, or nullptr. Scans from
  // the back so priority order is preserved among fitting jobs. No
  // allocation, no throw.
  [[nodiscard]] JobHandle popFit(int freeCores);

  // No further admissions; pending jobs remain poppable.
  void close();

  // Remove and return every queued job at once (highest priority last,
  // matching pop order). The service's fail-fast abort settles them all
  // as Failed; callers normally close() first so nothing refills behind.
  [[nodiscard]] std::vector<JobHandle> drainAll();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t requeued = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  // Storage order: ascending (priority, descending seq), so back() = max
  // priority, min seq.
  void insertSorted(JobHandle job) AWP_REQUIRES(mutex_);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<JobHandle> items_ AWP_GUARDED_BY(mutex_);
  bool closed_ AWP_GUARDED_BY(mutex_) = false;
  Stats stats_ AWP_GUARDED_BY(mutex_);
};

}  // namespace awp::sched
