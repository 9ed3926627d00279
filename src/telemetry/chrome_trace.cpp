#include "telemetry/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "telemetry/json.hpp"
#include "util/error.hpp"

namespace awp::telemetry {

namespace {

// One normalized event before rendering: lane is the trace tid.
struct LaneSpan {
  int lane = 0;
  std::string phase;
  std::uint64_t step = 0;
  std::uint64_t startNs = 0;
  std::uint64_t durationNs = 0;
  int depth = 0;
  bool replay = false;
};

std::string fmtMicros(std::uint64_t ns) {
  // Chrome trace timestamps are microseconds; keep nanosecond precision
  // as a fixed three-decimal fraction (avoids %g rounding on long runs).
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

void appendMeta(std::ostringstream& os, int lane, const std::string& name,
                bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": "
     << lane << ", \"args\": {\"name\": \"" << escapeJson(name) << "\"}}";
}

void appendSpan(std::ostringstream& os, const LaneSpan& s, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\": \"" << escapeJson(s.phase) << "\", \"cat\": \""
     << (s.replay ? "replay" : "useful") << "\", \"ph\": \"X\", \"ts\": "
     << fmtMicros(s.startNs) << ", \"dur\": " << fmtMicros(s.durationNs)
     << ", \"pid\": 0, \"tid\": " << s.lane << ", \"args\": {\"step\": "
     << s.step << ", \"depth\": " << s.depth << "}}";
}

std::string render(const std::vector<LaneSpan>& spans, int serviceLane) {
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
     << "\"args\": {\"name\": \"awp\"}}";
  first = false;
  std::vector<int> lanes;
  for (const LaneSpan& s : spans) lanes.push_back(s.lane);
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
  for (int lane : lanes) {
    appendMeta(os, lane,
               lane == serviceLane ? std::string("service")
                                   : "rank " + std::to_string(lane),
               first);
  }
  for (const LaneSpan& s : spans) appendSpan(os, s, first);
  os << "\n]\n";
  return os.str();
}

void collectSlot(const RankTelemetry& slot, int lane,
                 std::vector<LaneSpan>& out) {
  for (const SpanRecord& rec : slot.traceSnapshot()) {
    LaneSpan s;
    s.lane = lane;
    s.phase = std::string(toString(rec.phase));
    s.step = rec.step;
    s.startNs = rec.startNs;
    s.durationNs = rec.durationNs;
    s.depth = rec.depth;
    s.replay = rec.replay;
    out.push_back(std::move(s));
  }
}

}  // namespace

std::string toChromeTrace(const Session& session) {
  std::vector<LaneSpan> spans;
  for (int r = 0; r < session.nranks(); ++r)
    collectSlot(session.slot(r), r, spans);
  collectSlot(session.offRankSlot(), session.nranks(), spans);
  return render(spans, session.nranks());
}

std::string chromeTraceFromJsonl(const std::string& jsonl) {
  std::vector<LaneSpan> spans;
  int maxRank = -1;
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lineNo = 0;
  std::vector<std::size_t> offRankIdx;  // spans awaiting the service lane
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue v;
    try {
      v = parseJson(line);
    } catch (const Error& e) {
      throw Error("chrome_trace: line " + std::to_string(lineNo) + ": " +
                  e.what());
    }
    if (!v.isObject())
      throw Error("chrome_trace: line " + std::to_string(lineNo) +
                  " is not an object");
    const JsonValue* rank = v.find("rank");
    const JsonValue* phase = v.find("phase");
    const JsonValue* step = v.find("step");
    const JsonValue* start = v.find("start_ns");
    const JsonValue* dur = v.find("duration_ns");
    const JsonValue* depth = v.find("depth");
    const JsonValue* replay = v.find("replay");
    if (rank == nullptr || !rank->isNumber() || phase == nullptr ||
        !phase->isString() || start == nullptr || !start->isNumber() ||
        dur == nullptr || !dur->isNumber())
      throw Error("chrome_trace: line " + std::to_string(lineNo) +
                  " is missing span fields");
    LaneSpan s;
    const int r = static_cast<int>(rank->number);
    s.phase = phase->text;
    s.step = step != nullptr && step->isNumber()
                 ? static_cast<std::uint64_t>(step->number)
                 : 0;
    s.startNs = static_cast<std::uint64_t>(start->number);
    s.durationNs = static_cast<std::uint64_t>(dur->number);
    s.depth = depth != nullptr && depth->isNumber()
                  ? static_cast<int>(depth->number)
                  : 0;
    s.replay = replay != nullptr && replay->kind == JsonValue::Kind::Bool &&
               replay->boolean;
    if (r < 0) {
      offRankIdx.push_back(spans.size());
    } else {
      s.lane = r;
      maxRank = std::max(maxRank, r);
    }
    spans.push_back(std::move(s));
  }
  const int serviceLane = maxRank + 1;
  for (std::size_t i : offRankIdx) spans[i].lane = serviceLane;
  return render(spans, serviceLane);
}

void writeChromeTraceFile(const std::string& path, const Session& session) {
  writeTextAtomically(path, toChromeTrace(session));
}

}  // namespace awp::telemetry
