#include "telemetry/report.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

#include "telemetry/json.hpp"
#include "util/error.hpp"

namespace awp::telemetry {

namespace {

constexpr double kNsPerSecond = 1e9;

}  // namespace

ClusterReport aggregate(vcluster::Communicator& comm, const Session& session,
                        std::uint64_t step, double wallSeconds) {
  const RankSummary mine = session.slot(comm.rank()).summary();
  const auto payloads = comm.gatherBytes(
      0, std::span<const std::byte>(
             reinterpret_cast<const std::byte*>(&mine), sizeof(mine)));

  ClusterReport report;
  if (comm.rank() != 0) return report;  // !valid(): root-only result

  std::vector<RankSummary> summaries;
  summaries.reserve(payloads.size());
  for (const auto& bytes : payloads) {
    AWP_CHECK(bytes.size() == sizeof(RankSummary));
    RankSummary s;
    std::memcpy(&s, bytes.data(), sizeof(s));
    summaries.push_back(s);
  }
  const int nranks = static_cast<int>(summaries.size());
  AWP_CHECK(nranks > 0);

  report.nranks = nranks;
  report.step = step;
  report.wallSeconds = wallSeconds;

  report.phases.resize(kPhaseCount);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    PhaseStat& stat = report.phases[p];
    stat.phase = static_cast<Phase>(p);
    double sum = 0.0, replay = 0.0;
    double minV = 0.0, maxV = 0.0;
    int minRank = 0, maxRank = 0;
    for (int r = 0; r < nranks; ++r) {
      const double sec =
          static_cast<double>(summaries[r].phaseNs[p]) / kNsPerSecond;
      replay += static_cast<double>(summaries[r].replayNs[p]) / kNsPerSecond;
      sum += sec;
      if (r == 0 || sec < minV) { minV = sec; minRank = r; }
      if (r == 0 || sec > maxV) { maxV = sec; maxRank = r; }
    }
    (void)minRank;
    stat.sumSeconds = sum;
    stat.minSeconds = minV;
    stat.maxSeconds = maxV;
    stat.meanSeconds = sum / nranks;
    stat.imbalance = stat.meanSeconds > 0.0 ? maxV / stat.meanSeconds : 1.0;
    stat.maxRank = maxRank;
    stat.replaySeconds = replay;
    report.usefulSeconds += stat.meanSeconds;
    report.replaySeconds += replay / nranks;
  }
  report.coverage =
      wallSeconds > 0.0
          ? (report.usefulSeconds + report.replaySeconds) / wallSeconds
          : 0.0;

  // Off-rank work (launcher-thread transfer legs) has no rank to attribute
  // times to, but its counters are real work: fold them into the totals.
  const RankSummary offRank = session.offRankSlot().summary();

  report.counters.resize(kCounterCount);
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    CounterStat& stat = report.counters[c];
    stat.counter = static_cast<Counter>(c);
    for (int r = 0; r < nranks; ++r) {
      const std::uint64_t v = summaries[r].counters[c];
      stat.total += v;
      if (r == 0 || v < stat.min) stat.min = v;
      if (r == 0 || v > stat.max) { stat.max = v; stat.maxRank = r; }
    }
    stat.total += offRank.counters[c];
  }

  for (int r = 0; r < nranks; ++r) {
    report.spansRecorded += summaries[r].spansRecorded;
    report.spansDropped += summaries[r].spansDropped;
  }
  report.spansRecorded += offRank.spansRecorded;
  report.spansDropped += offRank.spansDropped;
  return report;
}

std::array<double, kEq7BucketCount> eq7Breakdown(
    const ClusterReport& report) {
  std::array<double, kEq7BucketCount> seconds{};
  for (const PhaseStat& p : report.phases)
    seconds[static_cast<std::size_t>(
        kPhaseEq7Buckets[static_cast<std::size_t>(p.phase)])] +=
        p.meanSeconds;
  return seconds;
}

std::string toJson(const ClusterReport& report) {
  JsonWriter w;
  w.beginObject()
      .field("schema", "awp-telemetry-report")
      .field("version", 1)
      .field("nranks", report.nranks)
      .field("step", report.step)
      .field("wall_seconds", report.wallSeconds)
      .field("useful_seconds", report.usefulSeconds)
      .field("replay_seconds", report.replaySeconds)
      .field("coverage", report.coverage)
      .field("spans_recorded", report.spansRecorded)
      .field("spans_dropped", report.spansDropped);
  w.key("phases").beginObject();
  for (const PhaseStat& s : report.phases)
    w.key(toString(s.phase))
        .beginObject()
        .field("sum_seconds", s.sumSeconds)
        .field("min_seconds", s.minSeconds)
        .field("max_seconds", s.maxSeconds)
        .field("mean_seconds", s.meanSeconds)
        .field("imbalance", s.imbalance)
        .field("max_rank", s.maxRank)
        .field("replay_seconds", s.replaySeconds)
        .endObject();
  w.endObject().key("counters").beginObject();
  for (const CounterStat& s : report.counters)
    w.key(toString(s.counter))
        .beginObject()
        .field("total", s.total)
        .field("min", s.min)
        .field("max", s.max)
        .field("max_rank", s.maxRank)
        .endObject();
  return w.endObject().endObject().str();
}

void writeReportFile(const std::string& path, const ClusterReport& report) {
  AWP_CHECK_MSG(report.valid(), "telemetry: writeReportFile on empty report");
  writeTextAtomically(path, toJson(report));
}

void writeTraceFile(const std::string& path, const RankTelemetry& rankTel) {
  std::ostringstream os;
  for (const SpanRecord& rec : rankTel.traceSnapshot()) {
    os << "{\"rank\": " << rankTel.rank()
       << ", \"phase\": \"" << toString(rec.phase) << "\""
       << ", \"step\": " << rec.step
       << ", \"start_ns\": " << rec.startNs
       << ", \"duration_ns\": " << rec.durationNs
       << ", \"depth\": " << rec.depth
       << ", \"replay\": " << (rec.replay ? "true" : "false") << "}\n";
  }
  writeTextAtomically(path, os.str());
}

namespace {

using enum FieldKind;

constexpr FieldRule kReportFields[] = {
    {"nranks", Finite}, {"step", NonNegative}, {"wall_seconds", NonNegative},
    {"useful_seconds", NonNegative}, {"replay_seconds", NonNegative},
    {"coverage", NonNegative}, {"spans_recorded", NonNegative},
    {"spans_dropped", NonNegative}, {"phases", Object}, {"counters", Object},
};

constexpr FieldRule kPhaseFields[] = {
    {"sum_seconds", NonNegative}, {"min_seconds", NonNegative},
    {"max_seconds", NonNegative}, {"mean_seconds", NonNegative},
    {"imbalance", Finite}, {"max_rank", Finite},
    {"replay_seconds", NonNegative},
};

constexpr FieldRule kCounterFields[] = {
    {"total", NonNegative}, {"min", NonNegative}, {"max", NonNegative},
    {"max_rank", Finite},
};

}  // namespace

std::vector<std::string> validateReportJson(const std::string& text) {
  SchemaCheck check(text, "awp-telemetry-report", 1, kReportFields);
  const JsonValue* root = check.root();
  if (root == nullptr) return check.violations();

  // Whole ranks: a fractional count truncates, as the offender index does.
  const double nranks = std::trunc(numberOf(*root, "nranks"));
  check.require(nranks >= 1, "report: 'nranks' must be >= 1");
  const auto rankInRange = [&](const JsonValue& entry,
                               const std::string& ctx) {
    const double rank = numberOf(entry, "max_rank");
    check.require(rank >= 0 && rank < nranks, ctx + ": max_rank out of range");
  };
  // Relative slack for min<=mean<=max comparisons across text round-trips.
  constexpr double kEps = 1e-9;
  const auto atMost = [](double a, double b) {
    return a <= b * (1.0 + kEps) + kEps;
  };

  using Kind = JsonValue::Kind;
  if (const JsonValue* phases = memberOf(*root, "phases", Kind::Object))
    for (std::string_view phase : kPhaseJsonNames) {
      const std::string name(phase);
      const JsonValue* e = memberOf(*phases, name, Kind::Object);
      if (!check.require(e != nullptr, "missing phase '" + name + "'"))
        continue;
      const std::string ctx = "phase '" + name + "'";
      check.fields(*e, ctx, kPhaseFields);
      const double minV = numberOf(*e, "min_seconds");
      const double mean = numberOf(*e, "mean_seconds");
      const double maxV = numberOf(*e, "max_seconds");
      check.require(atMost(minV, mean),
                    ctx + ": min_seconds exceeds mean_seconds");
      check.require(atMost(mean, maxV),
                    ctx + ": mean_seconds exceeds max_seconds");
      check.require(atMost(maxV, numberOf(*e, "sum_seconds")),
                    ctx + ": max_seconds exceeds sum_seconds");
      check.require(numberOf(*e, "imbalance") >= 1.0 - kEps,
                    ctx + ": imbalance below 1");
      rankInRange(*e, ctx);
    }

  if (const JsonValue* counters = memberOf(*root, "counters", Kind::Object))
    for (std::string_view counter : kCounterJsonNames) {
      const std::string name(counter);
      const JsonValue* e = memberOf(*counters, name, Kind::Object);
      if (!check.require(e != nullptr, "missing counter '" + name + "'"))
        continue;
      const std::string ctx = "counter '" + name + "'";
      check.fields(*e, ctx, kCounterFields);
      check.require(numberOf(*e, "min") <= numberOf(*e, "max"),
                    ctx + ": min exceeds max");
      rankInRange(*e, ctx);
    }
  return check.violations();
}

}  // namespace awp::telemetry
