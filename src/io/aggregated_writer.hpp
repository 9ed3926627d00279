#pragma once
// Output aggregation. AWP-ODC buffers velocity output in memory and flushes
// every flushInterval time steps ("the required velocity results are
// aggregated in memory buffers as much as possible before being flushed",
// §III.E; M8 wrote every 20,000 steps). Aggregation is what reduced the
// I/O overhead from 49% to under 2% of wall-clock time.
//
// Each rank owns one AggregatedWriter targeting a shared output file; the
// writer computes explicit displacements from (step, rank block) exactly as
// the MPI-IO file views do in the paper.
//
// Samples are addressed by a caller-supplied step-derived index, which
// makes the sink idempotent under rollback replay: a re-executed window
// overwrites the records it wrote the first time (in the buffer when still
// aggregated, positionally in the file when already flushed) instead of
// appending duplicates.

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "io/shared_file.hpp"
#include "util/retry.hpp"

namespace awp::io {

// Sentinel for "no sample was rewritten below the flushed prefix since the
// last flush notification".
inline constexpr std::uint64_t kNoRewrite =
    std::numeric_limits<std::uint64_t>::max();

// Invoked after each flush that advances (or re-establishes) the durable
// prefix: `durableSamples` is the new flushed-sample count;
// `lowestRewritten` is the smallest already-flushed sample index rewritten
// in place since the previous notification (kNoRewrite when none). The
// serving tier uses the pair to fold freshly durable samples into partial
// hazard products and to detect rollback replays that invalidate
// previously folded windows.
using FlushObserver =
    std::function<void(std::uint64_t durableSamples,
                       std::uint64_t lowestRewritten)>;

struct WriterStats {
  std::uint64_t recordsBuffered = 0;
  std::uint64_t flushes = 0;
  std::uint64_t bytesWritten = 0;
  std::uint64_t writeAttempts = 0;  // sample writes incl. retries
  std::uint64_t writeRetries = 0;   // failed attempts that were retried
  std::uint64_t samplesRewritten = 0;  // rollback-replay overwrites
};

class AggregatedWriter {
 public:
  // `recordFloats`: number of floats this rank contributes per sampled
  // step; `rankOffsetFloats`: this rank's displacement within one step's
  // global record; `stepFloatsGlobal`: total floats per sampled step over
  // all ranks; `flushEverySamples`: how many sampled steps to aggregate
  // before flushing (1 disables aggregation — the pre-tuning behaviour).
  AggregatedWriter(SharedFile* file, std::size_t recordFloats,
                   std::uint64_t rankOffsetFloats,
                   std::uint64_t stepFloatsGlobal, int flushEverySamples);

  // Append one sampled step worth of data (must be recordFloats long) at
  // the next sample index.
  void appendSample(const float* data, std::size_t count);

  // Write one sample at an explicit step-derived index. Indices at or past
  // the flushed prefix land in (or extend) the aggregation buffer; indices
  // below it — a rollback replay revisiting flushed steps — are rewritten
  // in place at their original displacement.
  void writeSampleAt(std::uint64_t sampleIndex, const float* data,
                     std::size_t count);

  // Flush whatever is buffered. Transient write faults that escape the
  // file's own retries are retried once more per sample at this level, so
  // an aggregation buffer survives a flaky flush without losing samples.
  void flush();

  // Declare indices below `sampleIndex` already persisted — by a previous
  // incarnation of this writer whose checkpoint-resumed run is picking up
  // mid-file. Without this a fresh writer would treat the resume point as
  // a gap and zero-fill the prefix on its first flush, destroying the
  // earlier attempt's samples. Buffered samples are flushed first; the
  // prefix only ever advances.
  void resumeFrom(std::uint64_t sampleIndex);

  void setRetryPolicy(const util::RetryPolicy& policy) {
    retryPolicy_ = policy;
  }

  // Observe durable-prefix advances. Fires on the writer's own thread
  // after flush() persists buffered samples and after resumeFrom() adopts
  // an earlier attempt's prefix; pending rewrite low-water marks ride on
  // the next notification.
  void setFlushObserver(FlushObserver observer) {
    observer_ = std::move(observer);
  }

  [[nodiscard]] const WriterStats& stats() const { return stats_; }
  // Index the next appendSample() would write.
  [[nodiscard]] std::uint64_t nextSampleIndex() const {
    return samplesFlushed_ + samplesBuffered_;
  }

 private:
  // One positional sample write (with retries under fault injection).
  void writeOne(std::uint64_t sampleIndex, const float* src);

  SharedFile* file_;
  std::size_t recordFloats_;
  std::uint64_t rankOffsetFloats_;
  std::uint64_t stepFloatsGlobal_;
  int flushEverySamples_;

  // Notify the observer of the current durable prefix and consume the
  // pending rewrite low-water mark.
  void notifyObserver();

  std::vector<float> buffer_;
  std::uint64_t samplesBuffered_ = 0;
  std::uint64_t samplesFlushed_ = 0;
  std::uint64_t lowestRewritten_ = kNoRewrite;
  util::RetryPolicy retryPolicy_{.maxAttempts = 3};
  FlushObserver observer_;
  WriterStats stats_;
};

}  // namespace awp::io
