#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double secondsSince(Clock::time_point t0) {
  return secondsBetween(t0, Clock::now());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

Distribution distribution(const std::vector<double>& values) {
  Distribution d;
  d.n = values.size();
  d.p50 = median(values);
  d.p90 = percentile(values, 0.9);
  return d;
}

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 14);
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent,
                            std::uint64_t traceId) {
  if (!enabled_) return 0;
  return beginAt(name, Clock::now(), parent, traceId);
}

std::uint64_t Tracer::beginAt(const char* name, Clock::time_point start,
                              std::uint64_t parent, std::uint64_t traceId) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.parent = parent;
  span.traceId = traceId;
  span.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     start - epoch_)
                     .count();
  span.thread = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
  std::lock_guard<std::mutex> lock(mu_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - epoch_)
                               .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].endNs = now;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_)
    if (s.endNs >= 0 && s.name == name)
      out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-9);
  return out;
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  std::lock_guard<std::mutex> lock(mu_);
  bool first = true;
  for (const Span& s : spans_) {
    if (s.endNs < 0) continue;
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << formatDouble(static_cast<double>(s.startNs) * 1e-3)
        << ",\"dur\":"
        << formatDouble(static_cast<double>(s.endNs - s.startNs) * 1e-3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.traceId << "}}";
    first = false;
  }
  out << "\n]\n";
}

// --- metrics and result line ---------------------------------------------------

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string formatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string resultLine(const Outcome& outcome, const Metrics& metrics) {
  std::string line = "{\"correct\": ";
  line += outcome.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + m.name + "\": {\"value\": " + formatDouble(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  return line;
}

void printTable(const std::string& title, const Metrics& metrics) {
  std::printf("== %s ==\n", title.c_str());
  for (const Metric& m : metrics.all())
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

}  // namespace perfbench
