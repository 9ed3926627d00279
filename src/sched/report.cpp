#include "sched/report.hpp"

#include <string_view>

#include "sched/job.hpp"
#include "telemetry/json.hpp"
#include "util/error.hpp"

namespace awp::sched {

using telemetry::FieldRule;
using telemetry::JsonValue;
using telemetry::numberOf;

std::string toJson(const ServiceReport& report) {
  telemetry::JsonWriter w;
  w.beginObject()
      .field("schema", "awp-sched-service-report")
      .field("version", 2)
      .field("wall_seconds", report.wallSeconds)
      .field("core_budget", report.coreBudget)
      .field("submitted", report.submitted)
      .field("completed", report.completed)
      .field("failed", report.failed)
      .field("rejected", report.rejected)
      .field("cache_hits", report.cacheHits)
      .field("coalesced", report.coalesced)
      .field("retries", report.retries)
      .field("respawns", report.respawns)
      .field("respawn_escalations", report.respawnEscalations)
      .field("executed_attempts", report.executedAttempts)
      .field("throughput_per_second", report.throughputPerSecond);
  w.key("queue_latency_seconds")
      .beginObject()
      .field("min", report.queueLatencyMin)
      .field("mean", report.queueLatencyMean)
      .field("max", report.queueLatencyMax)
      .endObject();
  w.key("artifact_cache")
      .beginObject()
      .field("hits", report.cache.hits)
      .field("misses", report.cache.misses)
      .field("puts", report.cache.puts)
      .endObject();
  w.key("retry_sites").beginObject();
  for (const auto& [site, s] : report.retrySites)
    w.key(site)
        .beginObject()
        .field("calls", s.calls)
        .field("attempts", s.attempts)
        .field("failures", s.failures)
        .field("exhausted", s.exhausted)
        .endObject();
  w.endObject().key("jobs").beginArray();
  for (const JobRow& j : report.jobs)
    w.beginObject()
        .field("name", j.name)
        .field("kind", j.kind)
        .field("hash", j.hash)
        .field("priority", j.priority)
        .field("phase", j.phase)
        .field("attempts", j.attempts)
        .field("retries", j.retries)
        .field("respawns", j.respawns)
        .field("cache_hit", j.cacheHit)
        .field("coalesced", j.coalesced)
        .field("completed_steps", j.completedSteps)
        .field("queue_seconds", j.queueSeconds)
        .field("run_seconds", j.runSeconds)
        .field("error", j.error)
        .endObject();
  return w.endArray().endObject().str();
}

void writeServiceReportFile(const std::string& path,
                            const ServiceReport& report) {
  AWP_CHECK_MSG(report.valid(), "sched: writeServiceReportFile without data");
  telemetry::writeTextAtomically(path, toJson(report));
}

namespace {

using enum telemetry::FieldKind;

constexpr FieldRule kReportFields[] = {
    {"wall_seconds", NonNegative}, {"core_budget", Finite},
    {"submitted", NonNegative}, {"completed", NonNegative},
    {"failed", NonNegative}, {"rejected", NonNegative},
    {"cache_hits", NonNegative}, {"coalesced", NonNegative},
    {"retries", NonNegative}, {"respawns", NonNegative},
    {"respawn_escalations", NonNegative}, {"executed_attempts", NonNegative},
    {"throughput_per_second", NonNegative}, {"queue_latency_seconds", Object},
    {"artifact_cache", Object}, {"retry_sites", Object}, {"jobs", Array},
};

constexpr FieldRule kLatencyFields[] = {
    {"min", NonNegative}, {"mean", NonNegative}, {"max", NonNegative},
};

constexpr FieldRule kCacheFields[] = {
    {"hits", NonNegative}, {"misses", NonNegative}, {"puts", NonNegative},
};

constexpr FieldRule kRetrySiteFields[] = {
    {"calls", NonNegative}, {"attempts", NonNegative},
    {"failures", NonNegative}, {"exhausted", NonNegative},
};

constexpr std::string_view kKinds[] = {"wave", "rupture"};

// Every JobPhase, named as toString spells it.
const std::string_view kPhaseNames[] = {
    toString(JobPhase::Queued), toString(JobPhase::Running),
    toString(JobPhase::Completed), toString(JobPhase::Failed),
    toString(JobPhase::Rejected)};

const FieldRule kJobFields[] = {
    {"name", String}, {"kind", OneOf, kKinds}, {"hash", Hex32},
    {"priority", Finite}, {"phase", OneOf, kPhaseNames},
    {"attempts", NonNegative}, {"retries", NonNegative},
    {"respawns", NonNegative}, {"cache_hit", Bool}, {"coalesced", Bool},
    {"completed_steps", NonNegative}, {"queue_seconds", NonNegative},
    {"run_seconds", NonNegative},
};

}  // namespace

std::vector<std::string> validateServiceReportJson(const std::string& text) {
  telemetry::SchemaCheck check(text, "awp-sched-service-report", 2,
                               kReportFields);
  const JsonValue* root = check.root();
  if (root == nullptr) return check.violations();
  using Kind = JsonValue::Kind;
  constexpr auto n = &numberOf;  // the invariants below read many members

  check.require(n(*root, "core_budget") >= 1.0,
                "report: 'core_budget' must be >= 1");
  // Every submission has exactly one terminal outcome.
  check.require(n(*root, "completed") + n(*root, "failed") +
                        n(*root, "rejected") + n(*root, "cache_hits") +
                        n(*root, "coalesced") <=
                    n(*root, "submitted") + 0.5,
                "report: outcomes exceed submissions");

  if (const JsonValue* lat =
          memberOf(*root, "queue_latency_seconds", Kind::Object)) {
    check.fields(*lat, "queue_latency", kLatencyFields);
    constexpr double kEps = 1e-9;
    const double mean = n(*lat, "mean");
    check.require(n(*lat, "min") <= mean * (1.0 + kEps) + kEps,
                  "queue_latency: min exceeds mean");
    check.require(mean <= n(*lat, "max") * (1.0 + kEps) + kEps,
                  "queue_latency: mean exceeds max");
  }

  if (const JsonValue* cache =
          memberOf(*root, "artifact_cache", Kind::Object))
    check.fields(*cache, "artifact_cache", kCacheFields);

  if (const JsonValue* retry = memberOf(*root, "retry_sites", Kind::Object))
    for (const auto& [site, stats] : retry->members) {
      const std::string ctx = "retry_sites['" + site + "']";
      if (!check.require(stats.isObject(), ctx + ": not an object")) continue;
      check.fields(stats, ctx, kRetrySiteFields);
      check.require(n(stats, "attempts") >= n(stats, "calls"),
                    ctx + ": attempts below calls");
      check.require(n(stats, "failures") <= n(stats, "attempts"),
                    ctx + ": failures exceed attempts");
      check.require(n(stats, "exhausted") <= n(stats, "calls"),
                    ctx + ": exhausted exceeds calls");
    }

  if (const JsonValue* jobs = memberOf(*root, "jobs", Kind::Array))
    for (std::size_t i = 0; i < jobs->items.size(); ++i) {
      const JsonValue& j = jobs->items[i];
      const std::string ctx = "job[" + std::to_string(i) + "]";
      if (!check.require(j.isObject(), ctx + ": not an object")) continue;
      check.fields(j, ctx, kJobFields);
      check.require(n(j, "retries") <= n(j, "attempts"),
                    ctx + ": retries exceed attempts");
      // An in-place respawn happens inside a running attempt, so a job
      // that never started an attempt cannot have absorbed one.
      check.require(n(j, "respawns") < 0.5 || n(j, "attempts") >= 0.5,
                    ctx + ": respawns without attempts");
    }
  return check.violations();
}

}  // namespace awp::sched
