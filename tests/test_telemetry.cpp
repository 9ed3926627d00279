// Telemetry tests: span nesting and exclusive-time attribution, replay
// accounting, cross-rank counter aggregation, report JSON schema (positive
// and negative), the disabled-mode zero-overhead guarantee, and the
// solver-level invariant that telemetry never perturbs the physics.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <utility>

#include "core/solver.hpp"
#include "fault/injector.hpp"
#include "io/shared_file.hpp"
#include "report_schema_testing.hpp"
#include "telemetry/json.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/report.hpp"
#include "util/error.hpp"
#include "vcluster/cluster.hpp"
#include "vmodel/material.hpp"

// Global allocation counter for the zero-overhead test. Counting is always
// on (the overhead of one relaxed increment is irrelevant to the other
// tests) and covers every operator-new in the binary.
static std::atomic<std::uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace awp {
namespace {

using vcluster::CartTopology;
using vcluster::Dims3;
using vcluster::ThreadCluster;

// Tag the calling thread as a cluster rank for the duration of a test
// (ThreadCluster does this for real rank threads).
class ScopedThreadRank {
 public:
  explicit ScopedThreadRank(int rank) { fault::setThreadRank(rank); }
  ~ScopedThreadRank() { fault::setThreadRank(-1); }
};

void spinFor(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

class TelemetryTest : public ::testing::Test {
 protected:
  TelemetryTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("awp_telemetry_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~TelemetryTest() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

// --- span recording --------------------------------------------------------

TEST_F(TelemetryTest, NestedSpansAttributeExclusiveTime) {
  using telemetry::Phase;
  using telemetry::Counter;
  using namespace telemetry;
  Session session(SessionConfig{1});
  ScopedSession active(session);
  ScopedThreadRank rank(0);

  const auto spin = std::chrono::microseconds(2000);
  {
    ScopedSpan outer(Phase::VelocityKernel);
    spinFor(spin);
    {
      ScopedSpan inner(Phase::HaloExchange);
      spinFor(spin);
    }
    spinFor(spin);
  }

  const RankTelemetry& rt = session.slot(0);
  const auto velocity = rt.phaseNs(Phase::VelocityKernel);
  const auto halo = rt.phaseNs(Phase::HaloExchange);
  const auto spinNs = static_cast<std::uint64_t>(spin.count()) * 1000u;
  EXPECT_GE(halo, spinNs);
  EXPECT_GE(velocity, 2 * spinNs);

  // Trace ring: records close in LIFO order with nesting depth, and the
  // records hold *inclusive* durations while the buckets hold *exclusive*
  // ones — exact arithmetic, independent of scheduler noise:
  //   halo bucket == inner record;  velocity bucket == outer - inner.
  const auto trace = rt.traceSnapshot();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].phase, Phase::HaloExchange);
  EXPECT_EQ(trace[0].depth, 1);
  EXPECT_EQ(trace[1].phase, Phase::VelocityKernel);
  EXPECT_EQ(trace[1].depth, 0);
  EXPECT_GE(trace[1].durationNs, trace[0].durationNs);
  EXPECT_FALSE(trace[0].replay);
  EXPECT_EQ(halo, trace[0].durationNs);
  EXPECT_EQ(velocity, trace[1].durationNs - trace[0].durationNs);
}

// The stall-respawn drain: retireSlot() advances the slot generation so a
// wedged incarnation that wakes up later can provably never write again,
// while the replacement claims the slot and records normally.
TEST_F(TelemetryTest, RetireSlotFencesTheWedgedIncarnation) {
  using telemetry::Phase;
  using namespace telemetry;
  Session session(SessionConfig{1});
  ScopedSession active(session);

  std::atomic<int> stage{0};
  std::thread zombie([&] {
    ScopedThreadRank rank(0);
    resetThreadSpans();  // claim the slot's current generation
    {
      ScopedSpan s(Phase::VelocityKernel);
      spinFor(std::chrono::microseconds(500));
    }
    stage.store(1);
    while (stage.load() != 2) std::this_thread::yield();
    // The slot was retired while this incarnation was wedged. Its late
    // span writes must be silent no-ops, not races with the replacement.
    for (int i = 0; i < 4; ++i) {
      ScopedSpan late(Phase::HaloExchange);
      spinFor(std::chrono::microseconds(100));
    }
    stage.store(3);
  });

  while (stage.load() != 1) std::this_thread::yield();
  const std::uint64_t genBefore = session.slot(0).generation();
  retireSlot(0);  // what the supervisor's onRespawn hook runs before reuse
  EXPECT_GT(session.slot(0).generation(), genBefore);
  stage.store(2);
  while (stage.load() != 3) std::this_thread::yield();
  zombie.join();

  // The replacement incarnation claims the retired slot and records.
  std::thread replacement([&] {
    ScopedThreadRank rank(0);
    resetThreadSpans();
    ScopedSpan s(Phase::StressKernel);
    spinFor(std::chrono::microseconds(500));
  });
  replacement.join();

  const RankTelemetry& rt = session.slot(0);
  EXPECT_EQ(rt.phaseNs(Phase::HaloExchange), 0u);  // fenced writes dropped
  EXPECT_GT(rt.phaseNs(Phase::VelocityKernel), 0u);
  EXPECT_GT(rt.phaseNs(Phase::StressKernel), 0u);
  // Trace ring: exactly the pre-retire span and the replacement's span.
  const auto trace = rt.traceSnapshot();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].phase, Phase::VelocityKernel);
  EXPECT_EQ(trace[1].phase, Phase::StressKernel);
}

TEST_F(TelemetryTest, ReplayWindowsExcludedFromUsefulTotals) {
  using telemetry::Phase;
  using telemetry::Counter;
  using namespace telemetry;
  Session session(SessionConfig{1});
  ScopedSession active(session);
  ScopedThreadRank rank(0);

  ManualSpan window;
  window.begin(Phase::RollbackReplay);
  {
    ScopedSpan span(Phase::VelocityKernel);
    spinFor(std::chrono::microseconds(1000));
  }
  window.end();
  EXPECT_FALSE(window.active());

  const RankTelemetry& rt = session.slot(0);
  // The kernel time inside the replay window lands in the replay bucket,
  // not the useful one.
  EXPECT_EQ(rt.phaseNs(Phase::VelocityKernel), 0u);
  EXPECT_GE(rt.replayNs(Phase::VelocityKernel), 1000000u);
  const auto trace = rt.traceSnapshot();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_TRUE(trace[0].replay);  // the kernel span
}

TEST_F(TelemetryTest, RingOverflowDropsOldestAndCounts) {
  using telemetry::Phase;
  using telemetry::Counter;
  using namespace telemetry;
  Session session(SessionConfig{1, /*ringCapacity=*/4});
  ScopedSession active(session);
  ScopedThreadRank rank(0);

  for (int n = 0; n < 10; ++n) {
    stepMark(static_cast<std::uint64_t>(n));
    ScopedSpan span(Phase::Output);
  }
  const RankSummary s = session.slot(0).summary();
  EXPECT_EQ(s.spansRecorded, 10u);
  EXPECT_EQ(s.spansDropped, 6u);
  EXPECT_EQ(s.counters[static_cast<std::size_t>(Counter::SpansDropped)], 6u);
  const auto trace = session.slot(0).traceSnapshot();
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.front().step, 6u);  // oldest survivor
  EXPECT_EQ(trace.back().step, 9u);
}

// --- disabled mode ---------------------------------------------------------

TEST_F(TelemetryTest, DisabledModeAllocatesNothing) {
  ASSERT_FALSE(telemetry::enabled());
  // Warm up so lazy init elsewhere cannot pollute the measurement.
  {
    telemetry::ScopedSpan span(telemetry::Phase::VelocityKernel);
    telemetry::count(telemetry::Counter::CellsUpdated, 1);
  }
  const std::uint64_t before = g_allocations.load();
  for (int n = 0; n < 10000; ++n) {
    telemetry::ScopedSpan span(telemetry::Phase::StressKernel);
    telemetry::count(telemetry::Counter::FlopsEstimated, 100);
    telemetry::stepMark(static_cast<std::uint64_t>(n));
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before);
}

// --- aggregation -----------------------------------------------------------

TEST_F(TelemetryTest, CountersAggregateAcrossRanks) {
  using telemetry::Phase;
  using telemetry::Counter;
  using namespace telemetry;
  Session session(SessionConfig{2});
  ScopedSession active(session);

  ClusterReport report;
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    // Rank r records r+1 halo messages and a rank-dependent byte count.
    for (int n = 0; n <= comm.rank(); ++n)
      count(Counter::HaloMessages);
    count(Counter::HaloBytesSent, 1000u * (comm.rank() + 1u));
    {
      ScopedSpan span(Phase::VelocityKernel);
      spinFor(std::chrono::microseconds(500));
    }
    comm.barrier();
    auto r = aggregate(comm, session, /*step=*/7, /*wallSeconds=*/0.01);
    if (comm.rank() == 0) report = std::move(r);
  });

  ASSERT_TRUE(report.valid());
  EXPECT_EQ(report.nranks, 2);
  EXPECT_EQ(report.step, 7u);
  const auto& msgs =
      report.counters[static_cast<std::size_t>(Counter::HaloMessages)];
  EXPECT_EQ(msgs.total, 3u);
  EXPECT_EQ(msgs.min, 1u);
  EXPECT_EQ(msgs.max, 2u);
  EXPECT_EQ(msgs.maxRank, 1);
  const auto& bytes =
      report.counters[static_cast<std::size_t>(Counter::HaloBytesSent)];
  EXPECT_EQ(bytes.total, 3000u);
  // Phase stats: both ranks spun ~0.5 ms in the velocity bucket.
  const auto& vel =
      report.phases[static_cast<std::size_t>(Phase::VelocityKernel)];
  EXPECT_GE(vel.minSeconds, 0.0005);
  EXPECT_GE(vel.meanSeconds, vel.minSeconds);
  EXPECT_GE(vel.maxSeconds, vel.meanSeconds);
  EXPECT_GE(vel.imbalance, 1.0);
  EXPECT_TRUE(vel.maxRank == 0 || vel.maxRank == 1);
  EXPECT_NEAR(vel.sumSeconds, vel.meanSeconds * 2.0, 1e-12);
}

TEST(Eq7Buckets, BreakdownFoldsEveryPhaseIntoItsBucket) {
  using telemetry::Eq7Bucket;
  using telemetry::Phase;
  // Phase p spends p+1 seconds: every phase lands in exactly one bucket.
  telemetry::ClusterReport report;
  double total = 0.0;
  for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p) {
    telemetry::PhaseStat stat;
    stat.phase = static_cast<Phase>(p);
    stat.meanSeconds = static_cast<double>(p + 1);
    total += stat.meanSeconds;
    report.phases.push_back(stat);
  }
  const auto buckets = telemetry::eq7Breakdown(report);
  double sum = 0.0;
  for (double s : buckets) sum += s;
  EXPECT_DOUBLE_EQ(sum, total);
  auto bucketOf = [](Phase p) {
    return telemetry::kPhaseEq7Buckets[static_cast<std::size_t>(p)];
  };
  EXPECT_EQ(bucketOf(Phase::VelocityKernel), Eq7Bucket::Compute);
  EXPECT_EQ(bucketOf(Phase::Rupture), Eq7Bucket::Compute);
  EXPECT_EQ(bucketOf(Phase::HaloExchange), Eq7Bucket::Comm);
  EXPECT_EQ(bucketOf(Phase::HealthScan), Eq7Bucket::Sync);
  EXPECT_EQ(bucketOf(Phase::Output), Eq7Bucket::Output);
  EXPECT_EQ(bucketOf(Phase::RollbackReplay), Eq7Bucket::Reinit);
}

TEST_F(TelemetryTest, OffRankWorkFoldsIntoCounterTotals) {
  using telemetry::Phase;
  using telemetry::Counter;
  using namespace telemetry;
  Session session(SessionConfig{2});
  ScopedSession active(session);

  // The launcher thread (rank tag -1) counts transfer bytes — the
  // workflow's transfer leg does exactly this.
  count(Counter::TransferBytes, 4096);

  ClusterReport report;
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    auto r = aggregate(comm, session, 0, 0.001);
    if (comm.rank() == 0) report = std::move(r);
  });
  ASSERT_TRUE(report.valid());
  EXPECT_EQ(report.counters[static_cast<std::size_t>(Counter::TransferBytes)]
                .total,
            4096u);
}

// --- report JSON -----------------------------------------------------------

TEST_F(TelemetryTest, ReportJsonRoundTripsAndValidates) {
  using telemetry::Phase;
  using telemetry::Counter;
  using namespace telemetry;
  Session session(SessionConfig{2});
  ScopedSession active(session);

  ClusterReport report;
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    {
      ScopedSpan span(Phase::StressKernel);
      spinFor(std::chrono::microseconds(200));
    }
    count(Counter::CellsUpdated, 100);
    auto r = aggregate(comm, session, 42, 0.005);
    if (comm.rank() == 0) report = std::move(r);
  });
  ASSERT_TRUE(report.valid());

  const std::string text = toJson(report);
  EXPECT_TRUE(validateReportJson(text).empty())
      << validateReportJson(text).front();

  // Round-trip through the parser.
  const JsonValue root = parseJson(text);
  EXPECT_EQ(root.find("schema")->text, "awp-telemetry-report");
  EXPECT_EQ(root.find("nranks")->number, 2.0);
  EXPECT_EQ(root.find("step")->number, 42.0);
  const JsonValue* phases = root.find("phases");
  ASSERT_NE(phases, nullptr);
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    EXPECT_NE(phases->find(std::string(kPhaseJsonNames[p])), nullptr)
        << kPhaseJsonNames[p];
  // Every taxonomy counter must appear in the emitted report, even when
  // its total is zero — readers key on the full kCounterJsonNames table.
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  for (std::size_t c = 0; c < kCounterCount; ++c)
    EXPECT_NE(counters->find(std::string(kCounterJsonNames[c])), nullptr)
        << kCounterJsonNames[c];

  // File emission is atomic and re-readable.
  const std::string path = (dir_ / "report.json").string();
  writeReportFile(path, report);
  EXPECT_TRUE(validateReportJson(io::readTextFile(path)).empty());
}

TEST_F(TelemetryTest, ValidatorRejectsBrokenReports) {
  using telemetry::Phase;
  using telemetry::Counter;
  using namespace telemetry;
  // Missing phase.
  std::string text =
      "{\"schema\": \"awp-telemetry-report\", \"version\": 1, "
      "\"nranks\": 1, \"step\": 0, \"wall_seconds\": 1.0, "
      "\"useful_seconds\": 0.9, \"replay_seconds\": 0.0, "
      "\"coverage\": 0.9, \"spans_recorded\": 0, \"spans_dropped\": 0, "
      "\"phases\": {}, \"counters\": {}}";
  auto violations = validateReportJson(text);
  EXPECT_FALSE(violations.empty());
  bool missingPhase = false, missingCounter = false;
  for (const auto& v : violations) {
    if (v.find("missing phase 'velocity_kernel'") != std::string::npos)
      missingPhase = true;
    if (v.find("missing counter 'rollbacks'") != std::string::npos)
      missingCounter = true;
  }
  EXPECT_TRUE(missingPhase);
  EXPECT_TRUE(missingCounter);

  // Negative duration.
  EXPECT_FALSE(validateReportJson(
                   "{\"schema\": \"awp-telemetry-report\", \"version\": 1, "
                   "\"nranks\": 1, \"wall_seconds\": -2.0}")
                   .empty());
  // NaN is not valid JSON at all: the parser must reject it.
  EXPECT_FALSE(validateReportJson("{\"wall_seconds\": NaN}").empty());
  // Wrong schema id.
  EXPECT_FALSE(validateReportJson("{\"schema\": \"something-else\"}").empty());
  // Malformed document.
  EXPECT_FALSE(validateReportJson("{\"unterminated").empty());
}

// A valid report written out by hand: every phase and counter of the
// taxonomy with one consistent set of values (2 ranks).
std::string baseReportDocument() {
  using namespace telemetry;
  std::string doc =
      "{\"schema\": \"awp-telemetry-report\", \"version\": 1, "
      "\"nranks\": 2, \"step\": 40, \"wall_seconds\": 10.5, "
      "\"useful_seconds\": 8.25, \"replay_seconds\": 0.5, "
      "\"coverage\": 0.85, \"spans_recorded\": 12, \"spans_dropped\": 3, "
      "\"phases\": {";
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    doc += std::string(p > 0 ? ", " : "") + "\"" +
           std::string(kPhaseJsonNames[p]) +
           "\": {\"sum_seconds\": 4.0, \"min_seconds\": 1.0, "
           "\"max_seconds\": 3.0, \"mean_seconds\": 2.0, "
           "\"imbalance\": 1.5, \"max_rank\": 1, \"replay_seconds\": 0.25}";
  doc += "}, \"counters\": {";
  for (std::size_t c = 0; c < kCounterCount; ++c)
    doc += std::string(c > 0 ? ", " : "") + "\"" +
           std::string(kCounterJsonNames[c]) +
           "\": {\"total\": 6, \"min\": 2, \"max\": 4, \"max_rank\": 0}";
  doc += "}}";
  return doc;
}

TEST(ReportSchema, EveryTelemetryReportCheckFlagsItsMutation) {
  using namespace telemetry;
  using schema_test::addNumberRows;
  const std::string firstPhase(kPhaseJsonNames.front());
  const std::string lastPhase(kPhaseJsonNames.back());
  const std::string firstCounter(kCounterJsonNames.front());
  const std::string lastCounter(kCounterJsonNames.back());
  std::vector<schema_test::Mutation> rows = {
      {"\"awp-telemetry-report\"", "\"awp-other-report\""},
      {"\"schema\"", "\"schema_absent\""},
      {"\"schema\": \"awp-telemetry-report\"", "\"schema\": 1"},
      {"\"version\": 1", "\"version\": 2"},
      {"\"version\": 1", "\"version\": \"1\""},
      {"\"version\"", "\"version_absent\""},
      {"\"version\": 1,", "\"version\": 1,,"},  // not JSON at all
      {"\"nranks\": 2", "\"nranks\": 0"},
      // nranks counts whole ranks: 1.5 is one rank, so max_rank 1 is out.
      {"\"nranks\": 2", "\"nranks\": 1.5"},
      // Each phase and counter of the taxonomy is required.
      {"\"" + firstPhase + "\"", "\"" + firstPhase + "_absent\""},
      {"\"" + lastPhase + "\"", "\"" + lastPhase + "_absent\""},
      {"\"" + firstPhase + "\": ", "\"" + firstPhase + "\": 7, \"x\": "},
      {"\"" + firstCounter + "\"", "\"" + firstCounter + "_absent\""},
      {"\"" + lastCounter + "\"", "\"" + lastCounter + "_absent\""},
      {"\"" + firstCounter + "\": ", "\"" + firstCounter + "\": 7, \"x\": "},
      {"\"phases\": {", "\"phases\": 5, \"x\": {"},
      {"\"phases\"", "\"phases_absent\""},
      {"\"counters\": {", "\"counters\": [], \"x\": {"},
      {"\"counters\"", "\"counters_absent\""},
      // Cross-field invariants of a phase: min <= mean <= max <= sum,
      // imbalance >= 1, max_rank in [0, nranks).
      {"\"min_seconds\": 1.0", "\"min_seconds\": 2.5"},
      {"\"mean_seconds\": 2.0", "\"mean_seconds\": 3.5"},
      {"\"max_seconds\": 3.0", "\"max_seconds\": 4.5"},
      {"\"imbalance\": 1.5", "\"imbalance\": 0.5"},
      {"\"max_rank\": 1", "\"max_rank\": 2"},
      {"\"max_rank\": 1", "\"max_rank\": -1"},
      // ... and of a counter: min <= max, max_rank in [0, nranks).
      {"\"min\": 2", "\"min\": 5"},
      {"\"max_rank\": 0", "\"max_rank\": 2"},
      {"\"max_rank\": 0", "\"max_rank\": -1"},
  };
  addNumberRows(rows, "nranks", "2", true);
  addNumberRows(rows, "step", "40", true);
  addNumberRows(rows, "wall_seconds", "10.5", true);
  addNumberRows(rows, "useful_seconds", "8.25", true);
  addNumberRows(rows, "replay_seconds", "0.5", true);
  addNumberRows(rows, "coverage", "0.85", true);
  addNumberRows(rows, "spans_recorded", "12", true);
  addNumberRows(rows, "spans_dropped", "3", true);
  // The first occurrence of each member is the first phase's/counter's.
  addNumberRows(rows, "sum_seconds", "4.0", true);
  addNumberRows(rows, "min_seconds", "1.0", true);
  addNumberRows(rows, "max_seconds", "3.0", true);
  addNumberRows(rows, "mean_seconds", "2.0", true);
  addNumberRows(rows, "imbalance", "1.5", false);
  addNumberRows(rows, "max_rank", "1", false);
  addNumberRows(rows, "replay_seconds", "0.25", true);
  addNumberRows(rows, "total", "6", true);
  addNumberRows(rows, "min", "2", true);
  addNumberRows(rows, "max", "4", true);
  addNumberRows(rows, "max_rank", "0", false);
  schema_test::expectMutationsFlagged(baseReportDocument(), rows,
                                       validateReportJson);
  EXPECT_FALSE(validateReportJson("[1, 2]").empty());
}

TEST(Json, NumbersFollowRfc8259Grammar) {
  using telemetry::parseJson;
  const std::pair<const char*, double> accepted[] = {
      {"0", 0.0},        {"-0", -0.0},     {"7", 7.0},
      {"10", 10.0},      {"1.5", 1.5},     {"-1.25e-3", -1.25e-3},
      {"1E+2", 100.0},   {"2e3", 2000.0},  {"0.5", 0.5}};
  for (const auto& [text, value] : accepted)
    EXPECT_EQ(parseJson(text).number, value) << text;
  for (const char* text : {"+1", "01", ".5", "1.", "-.5", "-", "1e", "1e+",
                           "--1", "0x10", "1.5.2", "1e5.5", "Infinity",
                           "[01]", "{\"a\": .5}"})
    EXPECT_THROW((void)parseJson(text), Error) << text;
}

TEST(Json, NestingDepthIsBounded) {
  using telemetry::kMaxJsonDepth;
  using telemetry::parseJson;
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)parseJson(nested(kMaxJsonDepth)));
  EXPECT_THROW((void)parseJson(nested(kMaxJsonDepth + 1)), Error);
  EXPECT_THROW((void)parseJson(std::string(200000, '[')), Error);
  EXPECT_THROW((void)parseJson(std::string(200000, '{')), Error);
  EXPECT_FALSE(
      telemetry::validateReportJson(std::string(200000, '[')).empty());
}

TEST(Json, WriterPlacesCommasAndKeepsNumbersExact) {
  telemetry::JsonWriter w;
  w.beginObject()
      .field("u64", std::numeric_limits<std::uint64_t>::max())
      .field("i64", std::numeric_limits<std::int64_t>::min())
      .field("third", 1.0 / 3.0)
      .field("flag", true)
      .field("text", std::string("a\"b\n"))
      .key("empty")
      .beginArray()
      .endArray()
      .key("rows")
      .beginArray();
  for (int i = 0; i < 2; ++i)
    w.beginObject().field("i", i).key("n").beginObject().endObject()
        .endObject();
  w.endArray().key("esc\\key").beginObject().field("x", -0.5).endObject();
  const std::string text = w.endObject().str();
  EXPECT_EQ(text,
            "{\n"
            "  \"u64\": 18446744073709551615,\n"
            "  \"i64\": -9223372036854775808,\n"
            "  \"third\": 0.33333333333333331,\n"
            "  \"flag\": true,\n"
            "  \"text\": \"a\\\"b\\n\",\n"
            "  \"empty\": [],\n"
            "  \"rows\": [\n"
            "    {\"i\": 0, \"n\": {}},\n"
            "    {\"i\": 1, \"n\": {}}\n"
            "  ],\n"
            "  \"esc\\\\key\": {\n"
            "    \"x\": -0.5\n"
            "  }\n"
            "}\n");
  EXPECT_EQ(telemetry::parseJson(text).find("esc\\key")->find("x")->number,
            -0.5);

  telemetry::JsonWriter open;
  open.beginObject().key("dangling");
  EXPECT_THROW((void)open.str(), Error);
}

// Pins the emitted content (keys, order, values; not whitespace) of a
// fixed, hand-filled report.
TEST(ReportSchema, TelemetryReportContentIsPinned) {
  using namespace telemetry;
  ClusterReport report;
  report.nranks = 3;
  report.step = 9007199254740993ULL;
  report.wallSeconds = 12.3;
  report.usefulSeconds = 0.1;
  report.replaySeconds = 1.0 / 3.0;
  report.coverage = 0.7;
  report.spansRecorded = 4096;
  report.spansDropped = 17;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    PhaseStat s;
    s.phase = static_cast<Phase>(p);
    s.minSeconds = 0.1 * static_cast<double>(p);
    s.meanSeconds = s.minSeconds + 0.2;
    s.maxSeconds = s.meanSeconds + 0.3;
    s.sumSeconds = 3.0 * s.meanSeconds;
    s.imbalance = s.maxSeconds / s.meanSeconds;
    s.maxRank = static_cast<int>(p % 3);
    s.replaySeconds = 1e-7 * static_cast<double>(p);
    report.phases.push_back(s);
  }
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    CounterStat s;
    s.counter = static_cast<Counter>(c);
    s.min = c;
    s.max = 1000 * c + 7;
    s.total = s.min + s.max + 11;
    s.maxRank = static_cast<int>((c + 1) % 3);
    report.counters.push_back(s);
  }
  const std::string text = toJson(report);
  EXPECT_TRUE(validateReportJson(text).empty());
  EXPECT_NE(text.find("9007199254740993"), std::string::npos);
  EXPECT_EQ(schema_test::canonicalDigest(text),
            "31cfa9d1aeb8df57dcfa682d06614309");
}

// --- solver integration ----------------------------------------------------

TEST_F(TelemetryTest, SolverPhysicsIsBitIdenticalWithTelemetry) {
  const grid::GridDims dims{24, 16, 12};
  const CartTopology topo(Dims3{2, 1, 1});

  auto runOnce = [&](bool withTelemetry, const std::string& reportPath) {
    std::vector<core::SeismogramTrace> traces;
    telemetry::Session session(telemetry::SessionConfig{2});
    ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
      core::SolverConfig config;
      config.globalDims = dims;
      config.h = 600.0;
      config.spongeWidth = 4;
      if (withTelemetry) config.telemetry.reportPath = reportPath;
      core::WaveSolver solver(comm, topo, config,
                              vmodel::Material{5200.0f, 3000.0f, 2700.0f});
      solver.addSource(core::explosionPointSource(
          12, 8, 6,
          core::rickerWavelet(2.0, 0.5, solver.dt(), 30, 1e15)));
      solver.addReceiver("site", 18, 10);
      // Install the session around run() only, so the report's wall clock
      // and its spans measure the same window (construction-time halo
      // exchanges would otherwise push coverage past 1).
      comm.barrier();
      if (withTelemetry && comm.rank() == 0)
        telemetry::installSession(&session);
      comm.barrier();
      solver.run(30);
      comm.barrier();
      if (withTelemetry && comm.rank() == 0)
        telemetry::installSession(nullptr);
      comm.barrier();
      auto gathered = solver.receivers().gather(comm);
      if (comm.rank() == 0) traces = std::move(gathered);
    });
    return traces;
  };

  const std::string reportPath = (dir_ / "solver_report.json").string();
  const auto plain = runOnce(false, "");
  const auto traced = runOnce(true, reportPath);

  // Telemetry must not perturb the physics: bit-identical seismograms.
  ASSERT_EQ(plain.size(), 1u);
  ASSERT_EQ(traced.size(), 1u);
  EXPECT_EQ(plain[0].u, traced[0].u);
  EXPECT_EQ(plain[0].v, traced[0].v);
  EXPECT_EQ(plain[0].w, traced[0].w);

  // And the emitted report is schema-valid with sane coverage.
  const std::string text = io::readTextFile(reportPath);
  EXPECT_TRUE(telemetry::validateReportJson(text).empty());
  const auto root = telemetry::parseJson(text);
  EXPECT_EQ(root.find("nranks")->number, 2.0);
  EXPECT_GT(root.find("wall_seconds")->number, 0.0);
  const double coverage = root.find("coverage")->number;
  EXPECT_GT(coverage, 0.5);   // phases dominate the run() window
  EXPECT_LT(coverage, 1.05);  // and never exceed it (exclusive times)
  EXPECT_GT(root.find("counters")
                ->find("cells_updated")
                ->find("total")
                ->number,
            0.0);
}

TEST_F(TelemetryTest, PerRankTraceFilesAreEmitted) {
  const grid::GridDims dims{24, 16, 12};
  const CartTopology topo(Dims3{2, 1, 1});
  const std::string prefix = (dir_ / "trace").string();

  telemetry::Session session(telemetry::SessionConfig{2});
  telemetry::ScopedSession active(session);
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    core::SolverConfig config;
    config.globalDims = dims;
    config.h = 600.0;
    config.spongeWidth = 4;
    config.telemetry.tracePathPrefix = prefix;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    solver.run(5);
  });

  for (int r = 0; r < 2; ++r) {
    const std::string path = prefix + ".rank" + std::to_string(r) + ".jsonl";
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    // Every line is a standalone JSON object naming this rank.
    std::istringstream in(io::readTextFile(path));
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto rec = telemetry::parseJson(line);
      EXPECT_EQ(rec.find("rank")->number, static_cast<double>(r));
      EXPECT_GE(rec.find("duration_ns")->number, 0.0);
      ++lines;
    }
    EXPECT_GT(lines, 0u);
  }
}

}  // namespace
}  // namespace awp
