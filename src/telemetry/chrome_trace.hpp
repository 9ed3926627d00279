#pragma once
// Chrome-trace exporter (chrome://tracing / Perfetto "JSON array format").
// Converts the per-rank span rings of a Session — or previously dumped
// per-rank JSONL trace files — into one self-contained JSON array of
// complete ("ph":"X") events, one timeline lane per rank plus a "service"
// lane for off-rank work (the scenario-service dispatcher, workflow
// transfer legs). Replay-window spans are categorised "replay" so the
// viewer can filter re-execution out of the useful-work picture.

#include <string>

#include "telemetry/registry.hpp"

namespace awp::telemetry {

// Render every slot of the session (ranks 0..nranks-1 plus the off-rank
// slot as lane nranks, named "service"). Call after the rank threads have
// joined — trace rings are single-writer and read here without locks.
[[nodiscard]] std::string toChromeTrace(const Session& session);

// Same conversion from JSONL trace lines (the writeTraceFile format):
// one span object per line, possibly concatenated from several per-rank
// files. Lines are attributed to lanes by their "rank" field (rank < 0
// maps to the "service" lane). Throws awp::Error on malformed lines.
[[nodiscard]] std::string chromeTraceFromJsonl(const std::string& jsonl);

// Write toChromeTrace(session) to `path` atomically (tmp + rename).
void writeChromeTraceFile(const std::string& path, const Session& session);

}  // namespace awp::telemetry
