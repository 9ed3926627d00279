#include "telemetry/report.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "telemetry/json.hpp"
#include "util/error.hpp"

namespace awp::telemetry {

namespace {

constexpr double kNsPerSecond = 1e9;

std::string fmtDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void writeTextAtomically(const std::string& path, const std::string& text) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  if (target.has_parent_path()) fs::create_directories(target.parent_path());
  const fs::path tmp = target.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("telemetry: cannot open " + tmp.string());
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) throw Error("telemetry: short write to " + tmp.string());
  }
  fs::rename(tmp, target);
}

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
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"awp-telemetry-report\",\n";
  os << "  \"version\": 1,\n";
  os << "  \"nranks\": " << report.nranks << ",\n";
  os << "  \"step\": " << report.step << ",\n";
  os << "  \"wall_seconds\": " << fmtDouble(report.wallSeconds) << ",\n";
  os << "  \"useful_seconds\": " << fmtDouble(report.usefulSeconds) << ",\n";
  os << "  \"replay_seconds\": " << fmtDouble(report.replaySeconds) << ",\n";
  os << "  \"coverage\": " << fmtDouble(report.coverage) << ",\n";
  os << "  \"spans_recorded\": " << report.spansRecorded << ",\n";
  os << "  \"spans_dropped\": " << report.spansDropped << ",\n";
  os << "  \"phases\": {\n";
  for (std::size_t p = 0; p < report.phases.size(); ++p) {
    const PhaseStat& s = report.phases[p];
    os << "    \"" << toString(s.phase) << "\": {"
       << "\"sum_seconds\": " << fmtDouble(s.sumSeconds) << ", "
       << "\"min_seconds\": " << fmtDouble(s.minSeconds) << ", "
       << "\"max_seconds\": " << fmtDouble(s.maxSeconds) << ", "
       << "\"mean_seconds\": " << fmtDouble(s.meanSeconds) << ", "
       << "\"imbalance\": " << fmtDouble(s.imbalance) << ", "
       << "\"max_rank\": " << s.maxRank << ", "
       << "\"replay_seconds\": " << fmtDouble(s.replaySeconds) << "}"
       << (p + 1 < report.phases.size() ? "," : "") << "\n";
  }
  os << "  },\n";
  os << "  \"counters\": {\n";
  for (std::size_t c = 0; c < report.counters.size(); ++c) {
    const CounterStat& s = report.counters[c];
    os << "    \"" << toString(s.counter) << "\": {"
       << "\"total\": " << s.total << ", "
       << "\"min\": " << s.min << ", "
       << "\"max\": " << s.max << ", "
       << "\"max_rank\": " << s.maxRank << "}"
       << (c + 1 < report.counters.size() ? "," : "") << "\n";
  }
  os << "  }\n";
  os << "}\n";
  return os.str();
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

// Fetch a finite number member, recording a violation when absent/invalid.
bool numberMember(const JsonValue& obj, const std::string& context,
                  const std::string& key, std::vector<std::string>& out,
                  double* value) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->isNumber()) {
    out.push_back(context + ": missing numeric field '" + key + "'");
    return false;
  }
  if (!std::isfinite(v->number)) {
    out.push_back(context + ": field '" + key + "' is not finite");
    return false;
  }
  *value = v->number;
  return true;
}

bool nonNegativeMember(const JsonValue& obj, const std::string& context,
                       const std::string& key, std::vector<std::string>& out,
                       double* value) {
  if (!numberMember(obj, context, key, out, value)) return false;
  if (*value < 0.0) {
    out.push_back(context + ": field '" + key + "' is negative");
    return false;
  }
  return true;
}

}  // namespace

std::vector<std::string> validateReportJson(const std::string& text) {
  std::vector<std::string> out;
  JsonValue root;
  try {
    root = parseJson(text);
  } catch (const Error& e) {
    out.push_back(std::string("parse error: ") + e.what());
    return out;
  }
  if (!root.isObject()) {
    out.push_back("document is not an object");
    return out;
  }

  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->isString() ||
      schema->text != "awp-telemetry-report")
    out.push_back("missing or wrong 'schema' identifier");
  const JsonValue* version = root.find("version");
  if (version == nullptr || !version->isNumber() || version->number != 1.0)
    out.push_back("missing or unsupported 'version'");

  double nranksD = 0.0;
  int nranks = 0;
  if (numberMember(root, "report", "nranks", out, &nranksD)) {
    nranks = static_cast<int>(nranksD);
    if (nranks < 1) out.push_back("report: 'nranks' must be >= 1");
  }

  double scratch = 0.0;
  nonNegativeMember(root, "report", "wall_seconds", out, &scratch);
  nonNegativeMember(root, "report", "useful_seconds", out, &scratch);
  nonNegativeMember(root, "report", "replay_seconds", out, &scratch);
  nonNegativeMember(root, "report", "coverage", out, &scratch);
  nonNegativeMember(root, "report", "step", out, &scratch);
  nonNegativeMember(root, "report", "spans_recorded", out, &scratch);
  nonNegativeMember(root, "report", "spans_dropped", out, &scratch);

  // Relative slack for min<=mean<=max comparisons across text round-trips.
  constexpr double kEps = 1e-9;

  const JsonValue* phases = root.find("phases");
  if (phases == nullptr || !phases->isObject()) {
    out.push_back("missing 'phases' object");
  } else {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const std::string name(kPhaseJsonNames[p]);
      const std::string context = "phase '" + name + "'";
      const JsonValue* entry = phases->find(name);
      if (entry == nullptr || !entry->isObject()) {
        out.push_back("missing phase '" + name + "'");
        continue;
      }
      double sum = 0, minV = 0, maxV = 0, mean = 0, imb = 0, replay = 0;
      const bool haveSum =
          nonNegativeMember(*entry, context, "sum_seconds", out, &sum);
      const bool haveMin =
          nonNegativeMember(*entry, context, "min_seconds", out, &minV);
      const bool haveMax =
          nonNegativeMember(*entry, context, "max_seconds", out, &maxV);
      const bool haveMean =
          nonNegativeMember(*entry, context, "mean_seconds", out, &mean);
      nonNegativeMember(*entry, context, "replay_seconds", out, &replay);
      if (haveMin && haveMean && minV > mean * (1.0 + kEps) + kEps)
        out.push_back(context + ": min_seconds exceeds mean_seconds");
      if (haveMean && haveMax && mean > maxV * (1.0 + kEps) + kEps)
        out.push_back(context + ": mean_seconds exceeds max_seconds");
      if (haveSum && haveMax && maxV > sum * (1.0 + kEps) + kEps)
        out.push_back(context + ": max_seconds exceeds sum_seconds");
      if (numberMember(*entry, context, "imbalance", out, &imb) &&
          imb < 1.0 - kEps)
        out.push_back(context + ": imbalance below 1");
      double maxRank = 0.0;
      if (numberMember(*entry, context, "max_rank", out, &maxRank) &&
          nranks > 0 && (maxRank < 0 || maxRank >= nranks))
        out.push_back(context + ": max_rank out of range");
    }
  }

  const JsonValue* counters = root.find("counters");
  if (counters == nullptr || !counters->isObject()) {
    out.push_back("missing 'counters' object");
  } else {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      const std::string name(kCounterJsonNames[c]);
      const std::string context = "counter '" + name + "'";
      const JsonValue* entry = counters->find(name);
      if (entry == nullptr || !entry->isObject()) {
        out.push_back("missing counter '" + name + "'");
        continue;
      }
      double total = 0, minV = 0, maxV = 0;
      nonNegativeMember(*entry, context, "total", out, &total);
      const bool haveMin =
          nonNegativeMember(*entry, context, "min", out, &minV);
      const bool haveMax =
          nonNegativeMember(*entry, context, "max", out, &maxV);
      if (haveMin && haveMax && minV > maxV)
        out.push_back(context + ": min exceeds max");
      double maxRank = 0.0;
      if (numberMember(*entry, context, "max_rank", out, &maxRank) &&
          nranks > 0 && (maxRank < 0 || maxRank >= nranks))
        out.push_back(context + ": max_rank out of range");
    }
  }

  return out;
}

}  // namespace awp::telemetry
