#include "io/aggregated_writer.hpp"

#include <cstring>

#include "fault/injector.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"

namespace awp::io {

AggregatedWriter::AggregatedWriter(SharedFile* file, std::size_t recordFloats,
                                   std::uint64_t rankOffsetFloats,
                                   std::uint64_t stepFloatsGlobal,
                                   int flushEverySamples)
    : file_(file),
      recordFloats_(recordFloats),
      rankOffsetFloats_(rankOffsetFloats),
      stepFloatsGlobal_(stepFloatsGlobal),
      flushEverySamples_(flushEverySamples) {
  AWP_CHECK(file_ != nullptr);
  AWP_CHECK(flushEverySamples_ >= 1);
  AWP_CHECK(rankOffsetFloats_ + recordFloats_ <= stepFloatsGlobal_);
  buffer_.reserve(recordFloats_ *
                  static_cast<std::size_t>(flushEverySamples_));
}

void AggregatedWriter::appendSample(const float* data, std::size_t count) {
  writeSampleAt(nextSampleIndex(), data, count);
}

void AggregatedWriter::writeSampleAt(std::uint64_t sampleIndex,
                                     const float* data, std::size_t count) {
  AWP_CHECK_MSG(count == recordFloats_, "sample size mismatch");

  if (sampleIndex < samplesFlushed_) {
    // Rollback replay revisiting an already-flushed sample: rewrite it in
    // place at its original displacement. No buffering — the replayed
    // value must not also land at a fresh index.
    telemetry::ScopedSpan span(telemetry::Phase::Output);
    writeOne(sampleIndex, data);
    stats_.bytesWritten += recordFloats_ * sizeof(float);
    ++stats_.samplesRewritten;
    if (sampleIndex < lowestRewritten_) lowestRewritten_ = sampleIndex;
    telemetry::count(telemetry::Counter::OutputBytes,
                     recordFloats_ * sizeof(float));
    telemetry::count(telemetry::Counter::ObservationsRewritten);
    return;
  }

  const std::uint64_t slot = sampleIndex - samplesFlushed_;
  if (slot < samplesBuffered_) {
    // Still aggregated: overwrite the buffered record.
    std::memcpy(buffer_.data() + slot * recordFloats_, data,
                recordFloats_ * sizeof(float));
    ++stats_.samplesRewritten;
    telemetry::count(telemetry::Counter::ObservationsRewritten);
    return;
  }

  // Defensive gap fill: indices are expected to arrive densely, but if a
  // caller skips ahead the intervening records become zeros rather than
  // stale neighbours' data at a shifted displacement.
  while (samplesBuffered_ < slot) {
    buffer_.resize(buffer_.size() + recordFloats_, 0.0f);
    ++samplesBuffered_;
  }
  buffer_.insert(buffer_.end(), data, data + count);
  ++samplesBuffered_;
  stats_.recordsBuffered += count;
  if (samplesBuffered_ >= static_cast<std::uint64_t>(flushEverySamples_))
    flush();
}

void AggregatedWriter::resumeFrom(std::uint64_t sampleIndex) {
  flush();
  if (sampleIndex > samplesFlushed_) {
    samplesFlushed_ = sampleIndex;
    // The adopted prefix is durable (written by the earlier attempt) —
    // a new owner's observer must learn it before any fresh flush.
    notifyObserver();
  }
}

void AggregatedWriter::notifyObserver() {
  if (!observer_) {
    lowestRewritten_ = kNoRewrite;
    return;
  }
  const std::uint64_t rewritten = lowestRewritten_;
  lowestRewritten_ = kNoRewrite;
  observer_(samplesFlushed_, rewritten);
}

void AggregatedWriter::writeOne(std::uint64_t sampleIndex, const float* src) {
  // The file is laid out step-major: sample s occupies the float range
  // [s * stepFloatsGlobal, (s+1) * stepFloatsGlobal).
  const std::uint64_t offsetBytes =
      (sampleIndex * stepFloatsGlobal_ + rankOffsetFloats_) * sizeof(float);
  if (!fault::injectionEnabled()) {
    file_->writeAt(offsetBytes, std::span<const float>(src, recordFloats_));
    ++stats_.writeAttempts;
    return;
  }
  util::RetryStats rs;
  util::retryCall(
      retryPolicy_, "aggwriter.flush",
      [&] {
        file_->writeAt(offsetBytes,
                       std::span<const float>(src, recordFloats_));
      },
      &rs);
  stats_.writeAttempts += static_cast<std::uint64_t>(rs.attempts);
  stats_.writeRetries += static_cast<std::uint64_t>(rs.failures);
  telemetry::count(telemetry::Counter::WriteRetries,
                   static_cast<std::uint64_t>(rs.failures));
}

void AggregatedWriter::flush() {
  if (samplesBuffered_ == 0) return;
  telemetry::ScopedSpan span(telemetry::Phase::Output);
  // Each buffered sample is written at its own displacement (one pwrite
  // per sample — the aggregation savings come from batching the *flushes*,
  // not from coalescing across steps, matching the paper's
  // buffer-then-flush).
  for (std::uint64_t s = 0; s < samplesBuffered_; ++s)
    writeOne(samplesFlushed_ + s, buffer_.data() + s * recordFloats_);
  samplesFlushed_ += samplesBuffered_;
  const std::uint64_t bytes = samplesBuffered_ * recordFloats_ * sizeof(float);
  stats_.bytesWritten += bytes;
  ++stats_.flushes;
  telemetry::count(telemetry::Counter::OutputBytes, bytes);
  samplesBuffered_ = 0;
  buffer_.clear();
  notifyObserver();
}

}  // namespace awp::io
