// Scenario-service tests: spec hashing, the bounded priority admission
// queue (backpressure by rejection), the content-addressed artifact cache
// (memory + disk tier), watchdog episode history, the chrome-trace
// exporter, report validation, and the end-to-end service guarantees —
// cache-hit bit-identity without re-run, crash -> requeue ->
// checkpoint-resume equivalence, stall -> requeue equivalence, admission
// rejection under saturation, in-flight coalescing, and no retry of a
// preflight rejection.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/surface_layout.hpp"
#include "fault/injector.hpp"
#include "health/watchdog.hpp"
#include "report_schema_testing.hpp"
#include "sched/artifact_cache.hpp"
#include "sched/job.hpp"
#include "sched/queue.hpp"
#include "sched/report.hpp"
#include "sched/service.hpp"
#include "sched/spec.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/json.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/retry.hpp"
#include "vcluster/cart.hpp"

namespace awp::sched {
namespace {

namespace fs = std::filesystem;

fs::path tempDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("awp-sched-test-" + tag + "-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Small, fast wave scenario; ~5k cells, a checkpoint every 6 steps.
ScenarioSpec smallWaveSpec() {
  ScenarioSpec spec;
  spec.kind = ScenarioKind::Wave;
  spec.dims = {24, 18, 12};
  spec.h = 600.0;
  spec.steps = 24;
  spec.nranks = 2;
  spec.useCvm = true;
  spec.spongeWidth = 4;
  spec.checkpointEverySteps = 6;
  spec.surfaceSampleEverySteps = 2;
  spec.healthEverySteps = 4;
  spec.name = "small-wave";
  return spec;
}

JobHandle makeJob(int priority, std::uint64_t seq, int nranks = 1,
                  std::uint64_t steps = 8) {
  auto job = std::make_shared<JobState>();
  job->spec = smallWaveSpec();
  job->spec.nranks = nranks;
  job->spec.steps = steps;
  job->spec.priority = priority;
  job->hash = job->spec.hashHex();
  job->submitSeq = seq;
  return job;
}

std::string jobError(const JobHandle& job) {
  std::lock_guard<std::mutex> lock(job->mutex);
  return job->error;
}

bool isRunning(const JobHandle& job) {
  std::lock_guard<std::mutex> lock(job->mutex);
  return job->phase == JobPhase::Running;
}

void awaitRunning(const JobHandle& job) {
  for (int i = 0; i < 2000 && !isRunning(job) && !job->done(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

std::string blobMd5(const ScenarioProducts& products,
                    const std::string& name) {
  const ArtifactBlob* blob = products.find(name);
  return blob != nullptr ? blob->md5Hex : std::string("<missing:" + name +
                                                      ">");
}

// ---------------------------------------------------------------------------
// ScenarioSpec hashing and product serialization

TEST(ScenarioSpec, HashIgnoresPresentationMetadata) {
  ScenarioSpec a = smallWaveSpec();
  ScenarioSpec b = a;
  b.name = "renamed";
  b.priority = 99;
  EXPECT_EQ(a.hashHex(), b.hashHex());
  EXPECT_EQ(a.hashHex().size(), 32u);
  for (char c : a.hashHex()) EXPECT_TRUE(isxdigit(static_cast<unsigned char>(c)));
}

TEST(ScenarioSpec, HashSensitiveToEveryPhysicsField) {
  const ScenarioSpec base = smallWaveSpec();
  const std::string h0 = base.hashHex();
  auto changed = [&](auto mutate) {
    ScenarioSpec s = base;
    mutate(s);
    return s.hashHex() != h0;
  };
  EXPECT_TRUE(changed([](ScenarioSpec& s) { s.steps += 1; }));
  EXPECT_TRUE(changed([](ScenarioSpec& s) { s.nranks += 1; }));
  EXPECT_TRUE(changed([](ScenarioSpec& s) { s.dims.nx += 1; }));
  EXPECT_TRUE(changed([](ScenarioSpec& s) { s.h *= 1.5; }));
  EXPECT_TRUE(changed([](ScenarioSpec& s) { s.useCvm = !s.useCvm; }));
  EXPECT_TRUE(changed([](ScenarioSpec& s) { s.checkpointEverySteps += 1; }));
  EXPECT_TRUE(changed([](ScenarioSpec& s) { s.sourceAmplitude *= 2.0; }));
  EXPECT_TRUE(changed([](ScenarioSpec& s) { s.kind = ScenarioKind::Rupture; }));
  EXPECT_TRUE(changed([](ScenarioSpec& s) { s.seed += 1; }));
}

TEST(ScenarioSpec, ProductsSerializeRoundTripAndDetectCorruption) {
  ScenarioProducts p;
  p.specHash = smallWaveSpec().hashHex();
  p.completedSteps = 24;
  p.dt = 0.025;
  std::vector<std::byte> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i * 7u);
  p.blobs.emplace_back("surface.bin", ArtifactBlob::fromBytes(payload));
  p.blobs.emplace_back("pgvh.bin",
                       ArtifactBlob::fromBytes({std::byte{1}, std::byte{2}}));

  auto bytes = p.serialize();
  ScenarioProducts q = ScenarioProducts::deserialize(bytes);
  EXPECT_EQ(q.specHash, p.specHash);
  EXPECT_EQ(q.completedSteps, 24u);
  EXPECT_DOUBLE_EQ(q.dt, 0.025);
  ASSERT_NE(q.find("surface.bin"), nullptr);
  EXPECT_EQ(q.find("surface.bin")->bytes, payload);
  EXPECT_EQ(q.find("surface.bin")->md5Hex, p.find("surface.bin")->md5Hex);

  // Flip one payload byte: the per-blob digest check must reject it.
  auto corrupt = bytes;
  corrupt[corrupt.size() - 3] ^= std::byte{0x40};
  EXPECT_THROW((void)ScenarioProducts::deserialize(corrupt), Error);
  EXPECT_THROW((void)ScenarioProducts::deserialize({std::byte{9}}), Error);
}

// ---------------------------------------------------------------------------
// Admission queue

TEST(AdmissionQueue, PriorityOrderWithFifoTies) {
  AdmissionQueue q(8);
  EXPECT_EQ(q.push(makeJob(1, 0)), AdmissionQueue::PushResult::Admitted);
  EXPECT_EQ(q.push(makeJob(3, 1)), AdmissionQueue::PushResult::Admitted);
  EXPECT_EQ(q.push(makeJob(3, 2)), AdmissionQueue::PushResult::Admitted);
  EXPECT_EQ(q.push(makeJob(2, 3)), AdmissionQueue::PushResult::Admitted);

  auto a = q.pop();
  auto b = q.pop();
  auto c = q.pop();
  auto d = q.pop();
  ASSERT_TRUE(a && b && c && d);
  EXPECT_EQ(a->spec.priority, 3);
  EXPECT_EQ(a->submitSeq, 1u);  // FIFO within equal priority
  EXPECT_EQ(b->spec.priority, 3);
  EXPECT_EQ(b->submitSeq, 2u);
  EXPECT_EQ(c->spec.priority, 2);
  EXPECT_EQ(d->spec.priority, 1);
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(AdmissionQueue, RejectPolicyBoundsDepthButRequeueBypasses) {
  AdmissionQueue q(2);
  EXPECT_EQ(q.push(makeJob(0, 0)), AdmissionQueue::PushResult::Admitted);
  EXPECT_EQ(q.push(makeJob(0, 1)), AdmissionQueue::PushResult::Admitted);
  EXPECT_EQ(q.push(makeJob(0, 2)), AdmissionQueue::PushResult::Rejected);
  EXPECT_EQ(q.size(), 2u);

  // Requeued work the service already accepted must never be dropped.
  q.pushRequeue(makeJob(9, 3));
  EXPECT_EQ(q.size(), 3u);
  q.close();
  EXPECT_EQ(q.push(makeJob(0, 4)), AdmissionQueue::PushResult::Closed);
  q.pushRequeue(makeJob(9, 5));  // still accepted after close
  EXPECT_EQ(q.size(), 4u);

  const auto stats = q.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.requeued, 2u);
}

TEST(AdmissionQueue, PopFitHonoursTheCoreLimit) {
  AdmissionQueue q(8);
  auto wide = makeJob(/*priority=*/5, 0, /*nranks=*/4);
  auto narrow = makeJob(/*priority=*/1, 1, /*nranks=*/1);
  ASSERT_EQ(q.push(wide), AdmissionQueue::PushResult::Admitted);
  ASSERT_EQ(q.push(narrow), AdmissionQueue::PushResult::Admitted);

  // Only 2 free cores: the higher-priority 4-rank job does not fit, the
  // 1-rank job runs instead of idling the machine.
  auto fit = q.popFit(/*freeCores=*/2);
  ASSERT_NE(fit, nullptr);
  EXPECT_EQ(fit->spec.nranks, 1);

  auto rest = q.popFit(/*freeCores=*/8);
  ASSERT_NE(rest, nullptr);
  EXPECT_EQ(rest->spec.nranks, 4);
}

// ---------------------------------------------------------------------------
// Artifact cache

TEST(ArtifactCache, DiskTierRoundTripsAndCorruptEntryIsMiss) {
  const fs::path dir = tempDir("cache");
  const std::vector<std::byte> value{std::byte{1}, std::byte{2},
                                     std::byte{3}, std::byte{4}};
  {
    ArtifactCache writer(dir.string());
    writer.put("products:abc", value);
  }
  {
    ArtifactCache reader(dir.string());
    auto got = reader.get("products:abc");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
    EXPECT_TRUE(reader.get("products:missing") == std::nullopt);
    EXPECT_EQ(reader.stats().hits, 1u);
    EXPECT_EQ(reader.stats().misses, 1u);
    EXPECT_EQ(reader.stats().puts, 0u);
  }

  // Flip a byte in the single entry file: the digest check makes the
  // corrupt entry a miss, never wrong data.
  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir)) entry = e.path();
  ASSERT_FALSE(entry.empty());
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\x7f');
  }
  ArtifactCache verifier(dir.string());
  EXPECT_TRUE(verifier.get("products:abc") == std::nullopt);
  fs::remove_all(dir);
}

// A directory cache keeps no copy in memory: every get reads and
// verifies the entry file, so corrupting it under a live cache turns the
// next lookup into a miss.
TEST(ArtifactCache, DirectoryCacheKeepsNoMemoryCopy) {
  const fs::path dir = tempDir("cache-nocopy");
  const std::vector<std::byte> value{std::byte{5}, std::byte{6},
                                     std::byte{7}};
  ArtifactCache cache(dir.string());
  cache.put("products:abc", value);
  ASSERT_TRUE(cache.get("products:abc") == value);
  EXPECT_EQ(cache.stats().puts, 1u);

  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir)) entry = e.path();
  ASSERT_FALSE(entry.empty());
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\x7f');
  }
  EXPECT_TRUE(cache.get("products:abc") == std::nullopt);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Watchdog: episode history

TEST(Watchdog, ReportsKeepEachStallEpisode) {
  health::HeartbeatBoard board(2);
  board.beat(0, 1);
  board.beat(1, 1);
  health::Watchdog dog(board, /*stallTimeoutSeconds=*/0.1, nullptr,
                       /*pollIntervalSeconds=*/0.02);
  for (int i = 0; i < 100 && dog.reports().empty(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  dog.stop();

  ASSERT_FALSE(dog.reports().empty());
  const auto first = dog.reports();
  EXPECT_EQ(dog.reports().size(), first.size());  // history is non-destructive
  EXPECT_FALSE(first.front().stalledRanks.empty());
  EXPECT_GE(first.front().stalledSeconds, 0.1);
}

// ---------------------------------------------------------------------------
// Chrome-trace exporter

TEST(ChromeTrace, SessionExportIsValidJsonWithServiceLane) {
  telemetry::SessionConfig sc;
  sc.nranks = 1;
  telemetry::Session session(sc);
  telemetry::ScopedSession scoped(session);
  {
    telemetry::ScopedSpan outer(telemetry::Phase::SchedQueue);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    telemetry::ScopedSpan inner(telemetry::Phase::SchedDispatch);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string trace = telemetry::toChromeTrace(session);
  const auto root = telemetry::parseJson(trace);
  ASSERT_TRUE(root.isArray());

  bool sawServiceLane = false;
  bool sawComplete = false;
  for (const auto& ev : root.items) {
    ASSERT_TRUE(ev.isObject());
    const auto* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->text == "M") {
      const auto* args = ev.find("args");
      if (args != nullptr && args->find("name") != nullptr &&
          args->find("name")->text == "service")
        sawServiceLane = true;
    }
    if (ph->text == "X") {
      sawComplete = true;
      EXPECT_NE(ev.find("name"), nullptr);
      EXPECT_NE(ev.find("dur"), nullptr);
      EXPECT_NE(ev.find("ts"), nullptr);
    }
  }
  // The untagged test thread lands on the off-rank "service" lane.
  EXPECT_TRUE(sawServiceLane);
  EXPECT_TRUE(sawComplete);

  EXPECT_THROW((void)telemetry::chromeTraceFromJsonl("{not json\n"), Error);
}

// ---------------------------------------------------------------------------
// Report validator

TEST(ServiceReportJson, ValidatorAcceptsWellFormedAndFlagsViolations) {
  ServiceReport report;
  report.coreBudget = 4;
  report.wallSeconds = 1.0;
  report.submitted = 3;
  report.completed = 2;
  report.cacheHits = 1;
  JobRow row;
  row.name = "job-a";
  row.kind = "wave";
  row.hash = std::string(32, 'a');
  row.phase = "completed";
  row.attempts = 2;
  row.retries = 1;
  report.jobs.push_back(row);
  EXPECT_TRUE(validateServiceReportJson(toJson(report)).empty());

  // Outcome classes are disjoint; more outcomes than submissions is a bug.
  ServiceReport overcounted = report;
  overcounted.completed = 5;
  EXPECT_FALSE(validateServiceReportJson(toJson(overcounted)).empty());

  ServiceReport badRow = report;
  badRow.jobs[0].hash = "nope";
  EXPECT_FALSE(validateServiceReportJson(toJson(badRow)).empty());

  ServiceReport badRetries = report;
  badRetries.jobs[0].retries = 7;  // > attempts
  EXPECT_FALSE(validateServiceReportJson(toJson(badRetries)).empty());

  // Respawn metrics: well-formed counts pass, impossible ones are flagged.
  ServiceReport withRespawns = report;
  withRespawns.respawns = 2;
  withRespawns.respawnEscalations = 1;
  withRespawns.jobs[0].respawns = 2;
  EXPECT_TRUE(validateServiceReportJson(toJson(withRespawns)).empty());

  ServiceReport badRespawns = report;
  badRespawns.jobs[0].attempts = 0;
  badRespawns.jobs[0].retries = 0;
  badRespawns.jobs[0].respawns = 1;  // respawn inside an attempt that never ran
  EXPECT_FALSE(validateServiceReportJson(toJson(badRespawns)).empty());

  EXPECT_FALSE(validateServiceReportJson("{ not json").empty());
  EXPECT_FALSE(validateServiceReportJson("[1,2]").empty());
}

TEST(ServiceReportJson, RetrySiteStatsRenderAndValidate) {
  ServiceReport report;
  report.coreBudget = 4;
  report.wallSeconds = 1.0;
  report.submitted = 1;
  report.completed = 1;

  util::RetrySiteStats ok;
  ok.calls = 2;
  ok.attempts = 5;
  ok.failures = 3;
  ok.exhausted = 1;
  report.retrySites["sharedfile.write"] = ok;
  const std::string json = toJson(report);
  EXPECT_NE(json.find("\"retry_sites\""), std::string::npos);
  EXPECT_NE(json.find("\"sharedfile.write\""), std::string::npos);
  EXPECT_TRUE(validateServiceReportJson(json).empty());

  // Internally inconsistent stats are flagged.
  util::RetrySiteStats bad;
  bad.calls = 3;
  bad.attempts = 1;  // attempts below calls: impossible
  report.retrySites["bogus.site"] = bad;
  EXPECT_FALSE(validateServiceReportJson(toJson(report)).empty());
}

TEST(ServiceReportJson, LiveRetryRegistryLandsInTheServiceReport) {
  util::resetRetryRegistry();
  util::RetryPolicy policy;
  policy.maxAttempts = 3;
  policy.baseDelaySeconds = 0.0;
  int calls = 0;
  util::retryCall(policy, "test.flaky", [&] {
    if (++calls < 3) throw TransientError("flaky");
  });

  ServiceConfig config;
  config.coreBudget = 2;
  ScenarioService service(config);
  const ServiceReport report = service.report();
  service.shutdown();

  const auto it = report.retrySites.find("test.flaky");
  ASSERT_NE(it, report.retrySites.end());
  EXPECT_EQ(it->second.calls, 1u);
  EXPECT_EQ(it->second.attempts, 3u);
  EXPECT_EQ(it->second.failures, 2u);
  EXPECT_EQ(it->second.exhausted, 0u);
  const auto violations = validateServiceReportJson(toJson(report));
  EXPECT_TRUE(violations.empty()) << violations.front();
}

// A valid service report written out by hand; each member's value is
// unique in the text so a mutation row hits exactly the member it names.
const std::string kBaseServiceReport =
    "{\"schema\": \"awp-sched-service-report\", \"version\": 2, "
    "\"wall_seconds\": 10.5, \"core_budget\": 4, \"submitted\": 9, "
    "\"completed\": 3, \"failed\": 1, \"rejected\": 1, \"cache_hits\": 2, "
    "\"coalesced\": 1, \"retries\": 4, \"respawns\": 1, "
    "\"respawn_escalations\": 1, \"executed_attempts\": 6, "
    "\"throughput_per_second\": 0.3, "
    "\"queue_latency_seconds\": {\"min\": 0.5, \"mean\": 1.5, "
    "\"max\": 2.5}, "
    "\"artifact_cache\": {\"hits\": 7, \"misses\": 3, \"puts\": 8}, "
    "\"retry_sites\": {\"io.write\": {\"calls\": 3, \"attempts\": 5, "
    "\"failures\": 2, \"exhausted\": 1}}, "
    "\"jobs\": [{\"name\": \"job-a\", \"kind\": \"wave\", "
    "\"hash\": \"0123456789abcdef0123456789abcdef\", \"priority\": -2, "
    "\"phase\": \"completed\", \"attempts\": 3, \"retries\": 2, "
    "\"respawns\": 2, \"cache_hit\": false, \"coalesced\": true, "
    "\"completed_steps\": 120, \"queue_seconds\": 0.75, "
    "\"run_seconds\": 4.25, \"error\": \"\"}]}";

TEST(ServiceReportJson, EveryCheckFlagsItsMutation) {
  using schema_test::addNumberRows;
  std::vector<schema_test::Mutation> rows = {
      {"\"awp-sched-service-report\"", "\"awp-other-report\""},
      {"\"schema\"", "\"schema_absent\""},
      {"\"version\": 2", "\"version\": 1"},
      {"\"version\"", "\"version_absent\""},
      {"\"version\": 2,", "\"version\": 2,,"},  // not JSON at all
      {"\"core_budget\": 4", "\"core_budget\": 0"},
      // Every submission has at most one terminal outcome.
      {"\"submitted\": 9", "\"submitted\": 7"},
      {"\"queue_latency_seconds\": {",
       "\"queue_latency_seconds\": 1, \"x\": {"},
      {"\"queue_latency_seconds\"", "\"queue_latency_seconds_absent\""},
      {"\"min\": 0.5", "\"min\": 2.0"},   // min > mean
      {"\"mean\": 1.5", "\"mean\": 3.0"},  // mean > max
      {"\"artifact_cache\": {", "\"artifact_cache\": 1, \"x\": {"},
      {"\"artifact_cache\"", "\"artifact_cache_absent\""},
      {"\"retry_sites\": {", "\"retry_sites\": [], \"x\": {"},
      {"\"io.write\": {", "\"io.write\": 3, \"x\": {"},
      {"\"attempts\": 5", "\"attempts\": 2"},  // attempts < calls
      {"\"failures\": 2", "\"failures\": 6"},
      {"\"exhausted\": 1", "\"exhausted\": 4"},
      {"\"jobs\": [", "\"jobs\": {}, \"x\": ["},
      {"\"jobs\"", "\"jobs_absent\""},
      {"\"jobs\": [", "\"jobs\": [7, "},
      {"\"name\": \"job-a\"", "\"name\": 1"},
      {"\"name\"", "\"name_absent\""},
      {"\"kind\": \"wave\"", "\"kind\": \"quake\""},
      {"\"kind\": \"wave\"", "\"kind\": 1"},
      {"\"kind\"", "\"kind_absent\""},
      {"\"hash\": \"0123456789abcdef", "\"hash\": \"0123\", \"x\": \""},
      {"\"hash\": \"0123456789abcdef", "\"hash\": 12, \"x\": \""},
      {"\"hash\"", "\"hash_absent\""},
      {"\"phase\": \"completed\"", "\"phase\": \"paused\""},
      {"\"phase\": \"completed\"", "\"phase\": 2"},
      {"\"phase\"", "\"phase_absent\""},
      {"\"retries\": 2", "\"retries\": 5"},  // retries > attempts
      // A respawn happens inside a running attempt.
      {"\"attempts\": 3, \"retries\": 2", "\"attempts\": 0, \"retries\": 0"},
      {"\"cache_hit\": false", "\"cache_hit\": 0"},
      {"\"cache_hit\"", "\"cache_hit_absent\""},
      {"\"coalesced\": true", "\"coalesced\": \"true\""},
      {"\"coalesced\": true", "\"coalesced_absent\": true"},
  };
  const std::pair<const char*, const char*> nonNegative[] = {
      {"wall_seconds", "10.5"}, {"submitted", "9"}, {"completed", "3"},
      {"failed", "1"}, {"rejected", "1"}, {"cache_hits", "2"},
      {"coalesced", "1"}, {"retries", "4"}, {"respawns", "1"},
      {"respawn_escalations", "1"}, {"executed_attempts", "6"},
      {"throughput_per_second", "0.3"}, {"min", "0.5"}, {"mean", "1.5"},
      {"max", "2.5"}, {"hits", "7"}, {"misses", "3"}, {"calls", "3"},
      {"attempts", "5"},
      {"failures", "2"}, {"exhausted", "1"}, {"attempts", "3"},
      {"retries", "2"}, {"respawns", "2"}, {"completed_steps", "120"},
      {"queue_seconds", "0.75"}, {"run_seconds", "4.25"}};
  for (const auto& [key, value] : nonNegative)
    addNumberRows(rows, key, value, true);
  // Cache accounting, retry-site stats and hex job hashes are required.
  rows.push_back({"\"retry_sites\"", "\"retry_sites_absent\""});
  rows.push_back({"\"hash\": \"0123456789abcdef",
                  "\"hash\": \"0123456789abcdeX"});
  addNumberRows(rows, "puts", "8", true);
  addNumberRows(rows, "core_budget", "4", false);
  addNumberRows(rows, "priority", "-2", false);
  schema_test::expectMutationsFlagged(kBaseServiceReport, rows,
                                      validateServiceReportJson);
  EXPECT_FALSE(validateServiceReportJson("[1, 2]").empty());
}

// Pins the emitted content (keys, order, values; not whitespace) of a
// fixed, hand-filled report.
TEST(ServiceReportJson, EmittedContentIsPinned) {
  ServiceReport report;
  report.wallSeconds = 12.3;
  report.coreBudget = 6;
  report.submitted = 11;
  report.completed = 4;
  report.failed = 1;
  report.rejected = 2;
  report.cacheHits = 2;
  report.coalesced = 1;
  report.retries = 3;
  report.respawns = 2;
  report.respawnEscalations = 1;
  report.executedAttempts = 9;
  report.throughputPerSecond = 4.0 / 12.3;
  report.queueLatencyMin = 0.1;
  report.queueLatencyMean = 1.0 / 3.0;
  report.queueLatencyMax = 2.7;
  report.cache = {10, 5, 12};
  report.retrySites["io.write"] = {3, 5, 2, 1};
  report.retrySites["fabric.forward \"quoted\""] = {1, 1, 0, 0};
  JobRow row;
  row.name = "job-a";
  row.kind = "wave";
  row.hash = "0123456789abcdef0123456789abcdef";
  row.priority = -2;
  row.phase = "completed";
  row.attempts = 3;
  row.retries = 2;
  row.respawns = 1;
  row.cacheHit = true;
  row.completedSteps = 9007199254740993ULL;
  row.queueSeconds = 0.1;
  row.runSeconds = 7.0 / 3.0;
  report.jobs.push_back(row);
  row.name = "job-b\twith\ncontrol";
  row.kind = "rupture";
  row.hash = "fedcba9876543210fedcba9876543210";
  row.phase = "failed";
  row.coalesced = true;
  row.error = "solver \"diverged\" at step 7";
  report.jobs.push_back(row);
  const std::string text = toJson(report);
  EXPECT_TRUE(validateServiceReportJson(text).empty());
  EXPECT_NE(text.find("9007199254740993"), std::string::npos);
  EXPECT_EQ(schema_test::canonicalDigest(text),
            "ca15642d21022cf51c73c0c2ba0041f8");
}

// ---------------------------------------------------------------------------
// End-to-end service behaviour

TEST(ScenarioService, CompletesCachesAndServesResubmissionWithoutRerun) {
  const fs::path work = tempDir("svc-cache-work");
  const fs::path cacheDir = tempDir("svc-cache-dir");
  ServiceConfig cfg;
  cfg.coreBudget = 2;
  cfg.workDir = work.string();
  cfg.cacheDir = cacheDir.string();
  cfg.stallTimeoutSeconds = 30.0;

  const ScenarioSpec spec = smallWaveSpec();
  std::string surfaceMd5;
  std::string pgvhMd5;
  {
    ScenarioService service(cfg);
    auto first = service.submit(spec);
    ASSERT_EQ(first->wait(), JobPhase::Completed);
    EXPECT_FALSE(first->cacheHit);
    surfaceMd5 = blobMd5(first->products, "surface.bin");
    pgvhMd5 = blobMd5(first->products, "pgvh.bin");
    ASSERT_EQ(surfaceMd5.size(), 32u);

    // Same physics, different presentation: still the same cache entry.
    ScenarioSpec renamed = spec;
    renamed.name = "resubmitted";
    renamed.priority = 7;
    auto second = service.submit(renamed);
    ASSERT_EQ(second->wait(), JobPhase::Completed);
    EXPECT_TRUE(second->cacheHit);
    EXPECT_EQ(second->attempts, 0);  // served without touching a worker
    EXPECT_EQ(blobMd5(second->products, "surface.bin"), surfaceMd5);
    EXPECT_EQ(blobMd5(second->products, "pgvh.bin"), pgvhMd5);

    const auto report = service.report();
    EXPECT_EQ(report.submitted, 2u);
    EXPECT_EQ(report.completed, 1u);  // executed completions only
    EXPECT_EQ(report.cacheHits, 1u);
    EXPECT_EQ(report.executedAttempts, 1u);
    const auto violations = validateServiceReportJson(toJson(report));
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations.front());
  }

  // The disk tier outlives the service: a fresh instance (fresh memory
  // cache) still serves the spec without execution.
  {
    ScenarioService service(cfg);
    auto job = service.submit(spec);
    ASSERT_EQ(job->wait(), JobPhase::Completed);
    EXPECT_TRUE(job->cacheHit);
    EXPECT_EQ(blobMd5(job->products, "surface.bin"), surfaceMd5);
    EXPECT_EQ(service.report().executedAttempts, 0u);
  }
  fs::remove_all(work);
  fs::remove_all(cacheDir);
}

TEST(ScenarioService, CrashRequeuesAndResumesBitIdentical) {
  const ScenarioSpec spec = smallWaveSpec();

  // Baseline: uninterrupted run of the same spec.
  const fs::path baseWork = tempDir("svc-crash-base");
  std::string surfaceMd5;
  std::string pgvhMd5;
  {
    ServiceConfig cfg;
    cfg.coreBudget = 2;
    cfg.workDir = baseWork.string();
    ScenarioService service(cfg);
    auto job = service.submit(spec);
    ASSERT_EQ(job->wait(), JobPhase::Completed);
    surfaceMd5 = blobMd5(job->products, "surface.bin");
    pgvhMd5 = blobMd5(job->products, "pgvh.bin");
  }

  // Faulted: rank 0's 14th step consult injects a worker crash — past the
  // step-12 checkpoint, so the retry resumes rather than restarting.
  const fs::path crashWork = tempDir("svc-crash-faulted");
  fault::FaultPlan plan;
  plan.transientIoError("sched.job.step", /*rank=*/0, /*occurrence=*/14);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  ServiceConfig cfg;
  cfg.coreBudget = 2;
  cfg.workDir = crashWork.string();
  cfg.maxRetries = 2;
  ScenarioService service(cfg);
  auto job = service.submit(spec);
  ASSERT_EQ(job->wait(), JobPhase::Completed);
  EXPECT_EQ(injector.faultsInjected(), 1u);

  {
    std::lock_guard<std::mutex> lock(job->mutex);
    ASSERT_GE(job->requeues.size(), 1u);
    EXPECT_EQ(job->requeues[0].cause, RequeueCause::WorkerCrash);
    EXPECT_GE(job->attempts, 2);
    // Crash retries keep dt: bit-identity depends on it.
    EXPECT_DOUBLE_EQ(job->requeues[0].dtNext, 0.0);
  }
  EXPECT_EQ(blobMd5(job->products, "surface.bin"), surfaceMd5);
  EXPECT_EQ(blobMd5(job->products, "pgvh.bin"), pgvhMd5);

  const auto report = service.report();
  EXPECT_GE(report.retries, 1u);
  EXPECT_GE(report.executedAttempts, 2u);
  EXPECT_TRUE(validateServiceReportJson(toJson(report)).empty());
  fs::remove_all(baseWork);
  fs::remove_all(crashWork);
}

TEST(ScenarioService, StallRequeuesAndResumesBitIdentical) {
  const ScenarioSpec spec = smallWaveSpec();

  const fs::path baseWork = tempDir("svc-stall-base");
  std::string surfaceMd5;
  {
    ServiceConfig cfg;
    cfg.coreBudget = 2;
    cfg.workDir = baseWork.string();
    ScenarioService service(cfg);
    auto job = service.submit(spec);
    ASSERT_EQ(job->wait(), JobPhase::Completed);
    surfaceMd5 = blobMd5(job->products, "surface.bin");
  }

  // Rank 1 wedges for 1.5 s at its 5th step; the watchdog (0.4 s timeout)
  // reports the stall and the attempt is cancelled collectively once the
  // rank wakes into the next cancel-check allreduce.
  const fs::path stallWork = tempDir("svc-stall-faulted");
  fault::FaultPlan plan;
  plan.stall("solver.step", /*rank=*/1, /*occurrence=*/5, /*seconds=*/1.5);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  ServiceConfig cfg;
  cfg.coreBudget = 2;
  cfg.workDir = stallWork.string();
  cfg.stallTimeoutSeconds = 0.4;
  cfg.watchdogPollSeconds = 0.02;
  // This test pins the LEGACY rung of the recovery ladder (collective
  // cancel + requeue); the in-place respawn rung is covered by
  // test_respawn.cpp.
  cfg.respawnBudget = 0;
  ScenarioService service(cfg);
  auto job = service.submit(spec);
  ASSERT_EQ(job->wait(), JobPhase::Completed);

  {
    std::lock_guard<std::mutex> lock(job->mutex);
    ASSERT_GE(job->requeues.size(), 1u);
    EXPECT_EQ(job->requeues[0].cause, RequeueCause::Stall);
  }
  ASSERT_GE(service.stallEpisodes().size(), 1u);
  EXPECT_EQ(service.stallEpisodes().front().rank, 1);
  EXPECT_EQ(blobMd5(job->products, "surface.bin"), surfaceMd5);
  EXPECT_GE(service.report().retries, 1u);
  fs::remove_all(baseWork);
  fs::remove_all(stallWork);
}

TEST(ScenarioService, RefusesToRunWithoutAWatchdog) {
  const fs::path work = tempDir("svc-no-watchdog");
  ServiceConfig cfg;
  cfg.coreBudget = 1;
  cfg.workDir = work.string();
  for (const double timeout : {0.0, -1.0}) {
    cfg.stallTimeoutSeconds = timeout;
    EXPECT_THROW({ ScenarioService service(cfg); }, Error) << timeout;
  }
  fs::remove_all(work);
}

TEST(ScenarioService, SaturatedQueueRejectsNewSubmissions) {
  const fs::path work = tempDir("svc-reject");
  ServiceConfig cfg;
  cfg.coreBudget = 1;
  cfg.queueCapacity = 1;
  cfg.workDir = work.string();
  ScenarioService service(cfg);

  auto makeSpec = [](std::uint64_t steps) {
    ScenarioSpec s = smallWaveSpec();
    s.nranks = 1;
    s.steps = steps;
    return s;
  };
  auto running = service.submit(makeSpec(200));
  awaitRunning(running);
  auto queued = service.submit(makeSpec(8));    // fills the queue
  auto rejected = service.submit(makeSpec(9));  // bounces off it

  EXPECT_EQ(rejected->wait(), JobPhase::Rejected);
  {
    std::lock_guard<std::mutex> lock(rejected->mutex);
    EXPECT_FALSE(rejected->error.empty());
  }
  EXPECT_EQ(running->wait(), JobPhase::Completed);
  EXPECT_EQ(queued->wait(), JobPhase::Completed);

  const auto report = service.report();
  EXPECT_EQ(report.submitted, 3u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.completed, 2u);
  EXPECT_TRUE(validateServiceReportJson(toJson(report)).empty());
  fs::remove_all(work);
}

TEST(ScenarioService, IdenticalInFlightSpecsCoalesceOntoOneExecution) {
  const fs::path work = tempDir("svc-coalesce");
  ServiceConfig cfg;
  cfg.coreBudget = 1;
  cfg.workDir = work.string();
  ScenarioService service(cfg);

  ScenarioSpec spec = smallWaveSpec();
  spec.nranks = 1;
  spec.steps = 200;
  auto primary = service.submit(spec);
  awaitRunning(primary);
  spec.name = "follower";
  auto follower = service.submit(spec);

  ASSERT_EQ(primary->wait(), JobPhase::Completed);
  ASSERT_EQ(follower->wait(), JobPhase::Completed);
  // The follower merged into the running execution (or, if the primary won
  // the race and settled first, was served from the product cache); either
  // way exactly one attempt executed.
  EXPECT_TRUE(follower->coalesced || follower->cacheHit);
  EXPECT_EQ(service.report().executedAttempts, 1u);
  EXPECT_EQ(blobMd5(follower->products, "surface.bin"),
            blobMd5(primary->products, "surface.bin"));
  fs::remove_all(work);
}

TEST(ScenarioService, RunsRuptureScenarioToFaultHistoryProduct) {
  const fs::path work = tempDir("svc-rupture");
  ServiceConfig cfg;
  cfg.coreBudget = 2;
  cfg.workDir = work.string();
  ScenarioService service(cfg);

  ScenarioSpec spec;
  spec.kind = ScenarioKind::Rupture;
  spec.nranks = 2;
  spec.steps = 16;
  spec.h = 600.0;
  // Big enough that the 4 km nucleation-radius floor stays under the
  // preflight's 25% nucleation-patch allowance.
  spec.lengthKm = 36.0;
  spec.depthKm = 12.0;
  spec.seed = 42;
  spec.name = "small-rupture";
  auto job = service.submit(spec);
  ASSERT_EQ(job->wait(), JobPhase::Completed) << jobError(job);

  const ArtifactBlob* history = job->products.find("fault_history");
  ASSERT_NE(history, nullptr);
  EXPECT_FALSE(history->bytes.empty());
  const auto decoded = deserializeFaultHistory(history->bytes);
  EXPECT_GT(decoded.dt, 0.0);
  // Golden pin of the product bytes.
  EXPECT_EQ(history->md5Hex, "ad84c1e451e4478f915927a2c43b1472");

  const auto report = service.report();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].kind, "rupture");
  EXPECT_TRUE(validateServiceReportJson(toJson(report)).empty());
  fs::remove_all(work);
}

// A preflight rejection judges the inputs, which no retry changes: the job
// fails on its first attempt with the preflight's message, and dt is never
// tightened.
TEST(ScenarioService, PreflightRejectionFailsWithoutRetry) {
  const fs::path work = tempDir("svc-preflight");
  ServiceConfig cfg;
  cfg.workDir = work.string();
  ScenarioService service(cfg);

  ScenarioSpec wideSponge = smallWaveSpec();
  wideSponge.dims = {16, 12, 8};
  wideSponge.nranks = 1;
  wideSponge.spongeWidth = 40;
  wideSponge.name = "sponge-wider-than-domain";

  ScenarioSpec thinBlocks = smallWaveSpec();
  thinBlocks.dims = {6, 4, 4};
  thinBlocks.nranks = 4;
  thinBlocks.name = "rank-blocks-below-halo";

  ScenarioSpec smallFault;
  smallFault.kind = ScenarioKind::Rupture;
  smallFault.nranks = 1;
  smallFault.steps = 16;
  smallFault.h = 600.0;
  smallFault.lengthKm = 12.0;  // the nucleation patch exceeds 25% of it
  smallFault.depthKm = 6.0;
  smallFault.seed = 42;
  smallFault.name = "nucleation-patch-too-large";

  for (const ScenarioSpec& spec : {wideSponge, thinBlocks, smallFault}) {
    auto job = service.submit(spec);
    EXPECT_EQ(job->wait(), JobPhase::Failed) << spec.name;
    std::lock_guard<std::mutex> lock(job->mutex);
    EXPECT_EQ(job->attempts, 1) << spec.name;
    EXPECT_TRUE(job->requeues.empty()) << spec.name;
    EXPECT_EQ(job->dtOverride, 0.0) << spec.name;
    EXPECT_NE(job->error.find("preflight"), std::string::npos) << job->error;
  }
  fs::remove_all(work);
}

// A decomposition that splits z runs on the same material as one rank: the
// 2-rank run's PGV-H map matches the 1-rank run's to rounding. (Not bit for
// bit: rank-edge material halos still differ; see ROADMAP.)
TEST(ScenarioService, DepthSplitWaveMatchesTheSingleRankRun) {
  ASSERT_EQ(vcluster::CartTopology::balancedDims(2, 12, 12, 32).z, 2);
  std::vector<float> pgvh[2];
  for (int nranks : {1, 2}) {
    const fs::path work = tempDir("svc-zsplit-" + std::to_string(nranks));
    ServiceConfig cfg;
    cfg.coreBudget = 2;
    cfg.workDir = work.string();
    ScenarioService service(cfg);
    ScenarioSpec spec = smallWaveSpec();
    spec.dims = {12, 12, 32};
    spec.steps = 64;
    spec.nranks = nranks;
    auto job = service.submit(spec);
    ASSERT_EQ(job->wait(), JobPhase::Completed) << jobError(job);
    const ArtifactBlob* blob = job->products.find("pgvh.bin");
    ASSERT_NE(blob, nullptr);
    std::vector<float> record(blob->bytes.size() / sizeof(float));
    std::memcpy(record.data(), blob->bytes.data(), blob->bytes.size());
    auto& field = pgvh[nranks - 1];
    field.assign(record.size(), 0.0f);
    core::SurfaceLayout(12, 12, 32, nranks)
        .recordToRowMajor(record.data(), field.data());
    service.shutdown();
    fs::remove_all(work);
  }
  ASSERT_EQ(pgvh[0].size(), 12u * 12u);
  const float peak = *std::max_element(pgvh[0].begin(), pgvh[0].end());
  ASSERT_GT(peak, 0.0f);
  float worst = 0.0f;
  for (std::size_t n = 0; n < pgvh[0].size(); ++n)
    worst = std::max(worst, std::abs(pgvh[1][n] - pgvh[0][n]));
  EXPECT_LE(worst, 1e-5f * peak) << "peak " << peak;
}

// Golden pins of the wave products at two decompositions: 2 ranks (2x1x1)
// and 4 ranks (2x2x1, every rank a surface rank). The surface is uneven
// (25x19), so rank blocks differ in size and the record's per-rank
// displacements are not a uniform stride. surface.bin pins the record
// layout the solver writes; pgvh.bin pins the fold over it.
TEST(ScenarioService, WaveProductBytesArePinnedAtTwoDecompositions) {
  struct Pin {
    int nranks;
    const char* surfaceMd5;
    const char* pgvhMd5;
  };
  const Pin pins[] = {
      {2, "05f316c999b09452772a3b50ccfaa08a",
       "c0dcfd2e85d067bb253150103bd7f007"},
      {4, "f92c7b600e3c1f6e52cf718983035f47",
       "d6bf279209a53889b5623cb191edec06"},
  };
  for (const Pin& pin : pins) {
    const fs::path work = tempDir("svc-pin-" + std::to_string(pin.nranks));
    ServiceConfig cfg;
    cfg.coreBudget = 4;
    cfg.workDir = work.string();
    ScenarioService service(cfg);
    ScenarioSpec spec = smallWaveSpec();
    spec.dims = {25, 19, 12};
    spec.nranks = pin.nranks;
    auto job = service.submit(spec);
    ASSERT_EQ(job->wait(), JobPhase::Completed) << jobError(job);
    EXPECT_EQ(blobMd5(job->products, "surface.bin"), pin.surfaceMd5)
        << "nranks " << pin.nranks;
    EXPECT_EQ(blobMd5(job->products, "pgvh.bin"), pin.pgvhMd5)
        << "nranks " << pin.nranks;
    service.shutdown();
    fs::remove_all(work);
  }
}

}  // namespace
}  // namespace awp::sched
