#pragma once
// Shared harness of the repository benchmark: clocks, order statistics,
// the in-memory span tracer, the metric table and the result line.
//
// Every number the benchmark reports is measured from outside the
// libraries: the benchmark times its own calls into their public APIs and
// records a span around each one. Spans live in memory until the run ends,
// then go to one Chrome-trace file.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);
double secondsSince(Clock::time_point t0);

// Order statistics over a sample. Percentiles use the nearest-rank rule
// (the value at rank ceil(p*n)), the median averages the two middle values
// of an even sample, both as Python's statistics module does.
double median(std::vector<double> values);
double percentile(std::vector<double> values, double p);

// A latency distribution as reported: median, p90, and the sample count.
// p90 is meaningful only with at least 10 samples beyond it (n >= 100).
struct Distribution {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
};
Distribution distribution(const std::vector<double>& values);

// In-memory span recorder. Disabled, begin() and end() return at once, so
// untraced runs pay one branch per call site.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t traceId = 0;  // groups the spans of one request
    std::int64_t startNs = 0;   // since the tracer's epoch
    std::int64_t endNs = -1;    // -1 = still open
    std::uint32_t thread = 0;
  };

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  std::uint64_t begin(const char* name, std::uint64_t parent = 0,
                      std::uint64_t traceId = 0);
  // A span whose start is a past time point (a request timed from its due
  // time rather than from the call).
  std::uint64_t beginAt(const char* name, Clock::time_point start,
                        std::uint64_t parent = 0, std::uint64_t traceId = 0);
  void end(std::uint64_t id);

  // Durations [s] of the closed spans with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  // Chrome trace-event JSON array ("X" complete events).
  void writeChromeTrace(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t parent = 0,
          std::uint64_t traceId = 0)
        : tracer_(tracer), id_(tracer.begin(name, parent, traceId)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::uint64_t id_;
  };

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
};

// Ordered metric table printed as the benchmark's result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Operation accounting behind "attempted" and "failed": scenarios, queries
// and output checks all count, and every failed check is reported on
// stderr with its reason.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const std::string& what);
  void operations(std::uint64_t n, std::uint64_t failedOps) {
    attempted += n;
    failed += failedOps;
  }
};

// Peak resident set of this process [MB].
double peakRssMb();

// Shortest round-trip decimal form of a double.
std::string formatDouble(double value);

// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string resultLine(const Outcome& outcome, const Metrics& metrics);

// Human-readable table of every metric (printed before the result line).
void printTable(const std::string& title, const Metrics& metrics);

}  // namespace perfbench
