// Earthquake-cycle engine tests: rate-and-state aging-law analytics, the
// stiffness kernel's spring-slider limit, stick-slip recurrence against
// the linear-reload prediction, seed-reproducible catalogs, the
// cycle.step fault site (state poison absorbed, stall caught by the
// watchdog), spec encoding v2 (with the v1 golden hashes pinned), the
// cycle_* runtime keys, catalog JSON validation, and the catalog-through-
// fabric chaos run (kill 1 of 3 brokers mid-catalog; every event's
// scenario still completes exactly once and the catalog stays
// bit-identical to the undisturbed run).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cycle/bridge.hpp"
#include "cycle/catalog.hpp"
#include "cycle/kernel.hpp"
#include "cycle/solver.hpp"
#include "fabric/fabric.hpp"
#include "fault/injector.hpp"
#include "health/watchdog.hpp"
#include "report_schema_testing.hpp"
#include "rupture/rate_state.hpp"
#include "sched/spec.hpp"
#include "util/error.hpp"
#include "util/retry.hpp"

namespace awp::cycle {
namespace {

namespace fs = std::filesystem;

fs::path tempDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("awp-cycle-test-" + tag + "-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The homogeneous spring-slider limit: one node, no heterogeneity, no
// velocity-strengthening rim. Deeply unstable (kLoad = 1.2e6 ≈ 0.1·kc)
// so the aseismic creep fraction of each cycle is a few percent and the
// analytic recurrence predictions hold tightly; vpl is raised to 1e-7 m/s
// so a cycle takes simulated months, not centuries of tiny steps.
CycleConfig springSliderConfig() {
  CycleConfig c;
  c.nx = 1;
  c.nz = 1;
  c.heterogeneity = 0.0;
  c.rimNodes = 0;
  c.loadingFactor = 0.02;
  c.vpl = 1.0e-7;
  // Close the event window below the plate rate: "closed" then means
  // "relocked", so τ at close anchors the linear-reload recurrence
  // prediction instead of catching the slider mid-deceleration.
  c.lockRate = 2.0e-8;
  c.years = 40.0;
  c.maxEvents = 5;
  return c;
}

// A small multi-node fault tuned to be "inherently discrete": the
// interaction stencil is weak and short enough that a single cell's
// effective stiffness (loading + its off-diagonal row) stays below the
// rate-and-state critical stiffness, so individual cells stick and slip
// at times staggered by the seeded heterogeneity — an event catalog, not
// one fault-wide limit cycle.
CycleConfig smallFaultConfig(std::uint64_t seed = 11) {
  CycleConfig c;
  c.nx = 24;
  c.nz = 8;
  c.cell = 500.0;
  c.friction.L = 0.005;  // kc = (b-a)(-sigma)/L = 5e7 Pa/m per cell
  c.interaction = 0.05;
  c.stencilRadius = 3;
  c.vpl = 1.0e-8;
  c.heterogeneity = 0.3;
  c.corrX = 4000.0;
  c.corrZ = 2000.0;
  c.seed = seed;
  c.years = 40.0;
  c.maxEvents = 3;
  return c;
}

// --- rate-and-state friction ----------------------------------------------

TEST(RateState, AgingLawClosedFormAndSteadyState) {
  const rupture::RateStateParams p;
  const rupture::RateStateFriction f(p);

  // Steady state: dθ/dt(V, L/V) = 0 and μ(V, L/V) = μss(V).
  const double V = 3.0e-9;
  EXPECT_DOUBLE_EQ(f.steadyStateTheta(V), p.L / V);
  EXPECT_NEAR(f.thetaRate(V, f.steadyStateTheta(V)), 0.0, 1e-15);
  EXPECT_NEAR(f.friction(V, f.steadyStateTheta(V)), f.steadyStateFriction(V),
              1e-14);
  // b > a: steady-state friction weakens with rate.
  EXPECT_LT(f.steadyStateFriction(10.0 * V) - f.steadyStateFriction(V), 0.0);

  // Closed form θ(t) = L/V + (θ0 − L/V)e^{−Vt/L} against a fine forward-
  // Euler integration of dθ/dt = 1 − Vθ/L.
  const double theta0 = 0.1 * p.L / V;
  const double tEnd = 2.0 * p.L / V;  // two e-folds
  const int steps = 200000;
  double theta = theta0;
  const double dt = tEnd / steps;
  for (int i = 0; i < steps; ++i) theta += dt * f.thetaRate(V, theta);
  const double closed = f.evolveThetaConstV(theta0, V, tEnd);
  EXPECT_NEAR(theta, closed, 1e-4 * closed);
  EXPECT_NEAR(closed,
              p.L / V + (theta0 - p.L / V) * std::exp(-V * tEnd / p.L),
              1e-9 * p.L / V);

  // kc = (b − a)(−σn)/L and strength sign convention (σn negative).
  const double sigmaN = -50.0e6;
  EXPECT_DOUBLE_EQ(f.criticalStiffness(sigmaN), (p.b - p.a) * 50.0e6 / p.L);
  EXPECT_NEAR(f.strength(V, f.steadyStateTheta(V), sigmaN),
              f.steadyStateFriction(V) * 50.0e6, 1e-6 * 50.0e6);
}

// --- stiffness kernel ------------------------------------------------------

TEST(CycleKernel, UniformModeUnloadsThroughLoadingStiffnessEverywhere) {
  const KernelConfig kc{12, 6, 500.0, 30.0e9, 0.1, 0.25, 3};
  const StiffnessKernel kernel(kc);
  EXPECT_DOUBLE_EQ(kernel.loadingStiffness(), 0.1 * 30.0e9 / 500.0);

  // Locked fault (V = 0): every node loads at +kLoad·Vpl.
  const double vpl = 1.0e-9;
  std::vector<double> v(12 * 6, 0.0), rate(12 * 6, 0.0);
  kernel.stressingRate(v, vpl, rate);
  for (double r : rate)
    EXPECT_NEAR(r, kernel.loadingStiffness() * vpl,
                1e-9 * kernel.loadingStiffness() * vpl);

  // Uniformly creeping fault (V = Vpl + u): every node — edges included —
  // unloads at exactly kLoad·u, because the self term absorbs the
  // truncated in-bounds row sum.
  const double u = 2.0e-9;
  v.assign(v.size(), vpl + u);
  kernel.stressingRate(v, vpl, rate);
  for (double r : rate)
    EXPECT_NEAR(r, -kernel.loadingStiffness() * u,
                1e-9 * kernel.loadingStiffness() * u);
}

TEST(CycleKernel, SingleNodeIsTheExactSpringSlider) {
  const KernelConfig kc{1, 1, 500.0, 30.0e9, 0.1, 0.25, 8};
  const StiffnessKernel kernel(kc);
  std::vector<double> v{3.0e-9}, rate{0.0};
  kernel.stressingRate(v, 1.0e-9, rate);
  EXPECT_DOUBLE_EQ(rate[0], -kernel.loadingStiffness() * 2.0e-9);
}

// --- quasi-dynamic solver --------------------------------------------------

TEST(CycleSolver, SpringSliderSticksAndSlipsWithPredictedRecurrence) {
  const CycleConfig config = springSliderConfig();
  // Below the critical stiffness: kLoad = 1.2e6 < kc = 1.25e7 Pa/m.
  const rupture::RateStateFriction f(config.friction);
  const double kLoad =
      config.loadingFactor * config.mu / config.cell;
  ASSERT_LT(kLoad, f.criticalStiffness(-config.sigma));

  CycleSolver solver(config);
  const CycleRunSummary summary = solver.run();
  const auto& events = solver.events();
  ASSERT_GE(events.size(), 3u) << "spring slider never went unstable";
  EXPECT_EQ(summary.eventsDetected, static_cast<int>(events.size()));
  EXPECT_GT(summary.peakSlipRate, config.eventRate);

  // Slip balance over one full cycle: the limit cycle is periodic, so the
  // slip a window releases equals the plate motion accumulated between
  // consecutive onsets — T = moment/(μ·cell²·Vpl).
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    const double observed =
        events[i + 1].onsetSeconds - events[i].onsetSeconds;
    const double predicted = events[i + 1].momentNm /
                             (config.mu * config.cell * config.cell *
                              config.vpl);
    ASSERT_GT(observed, 0.0);
    EXPECT_NEAR(observed, predicted, 0.1 * predicted)
        << "cycle " << i << " violates the slip budget";
  }

  // Interseismic reload is linear at kLoad·Vpl while the slider is locked
  // (τ̇ = kLoad·(Vpl − V) ≈ kLoad·Vpl), so the stick interval is at least
  // the linear-reload time — longer only by the rate-and-state
  // self-acceleration phase, which is a bounded fraction of the cycle.
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    const double closeTime =
        events[i].onsetSeconds + events[i].durationSeconds;
    const double observed = events[i + 1].onsetSeconds - closeTime;
    const double predicted =
        (events[i + 1].tau[0] - events[i].tauCloseNuc) / (kLoad * config.vpl);
    ASSERT_GT(observed, 0.0);
    EXPECT_GE(observed, 0.95 * predicted) << "reload faster than linear";
    EXPECT_LE(observed, 1.4 * predicted)
        << "nucleation phase " << i << " implausibly long";
  }

  // The cycle is periodic: consecutive recurrence intervals agree.
  if (events.size() >= 4) {
    const double t1 = events[2].onsetSeconds - events[1].onsetSeconds;
    const double t2 = events[3].onsetSeconds - events[2].onsetSeconds;
    EXPECT_NEAR(t1, t2, 0.05 * t1);
  }
}

TEST(CycleSolver, StiffSpringAboveKcCreepsStably) {
  CycleConfig config = springSliderConfig();
  config.loadingFactor = 0.5;  // kLoad = 3e7 > kc = 1.25e7 Pa/m
  config.years = 2.0;
  config.maxEvents = 0;
  const rupture::RateStateFriction f(config.friction);
  ASSERT_GT(config.loadingFactor * config.mu / config.cell,
            f.criticalStiffness(-config.sigma));

  CycleSolver solver(config);
  const CycleRunSummary summary = solver.run();
  EXPECT_EQ(summary.eventsDetected, 0);
  EXPECT_LT(summary.peakSlipRate, config.eventRate);
  // The initial kick decays: the slider ends creeping at the plate rate.
  EXPECT_NEAR(solver.theta()[0], config.friction.L / config.vpl,
              0.05 * config.friction.L / config.vpl);
}

TEST(CycleSolver, CatalogIsBitIdenticalAcrossSeededReruns) {
  const CycleConfig config = smallFaultConfig(/*seed=*/11);
  CycleSolver first(config);
  const CycleRunSummary s1 = first.run();
  CycleSolver second(config);
  const CycleRunSummary s2 = second.run();

  ASSERT_GE(first.events().size(), 3u);
  EXPECT_EQ(s1.steps, s2.steps);
  EXPECT_DOUBLE_EQ(s1.simulatedSeconds, s2.simulatedSeconds);
  ASSERT_EQ(first.events().size(), second.events().size());
  for (std::size_t i = 0; i < first.events().size(); ++i) {
    EXPECT_EQ(first.events()[i].digest, second.events()[i].digest);
    EXPECT_EQ(first.events()[i].canonicalBytes(),
              second.events()[i].canonicalBytes());
  }

  // A different seed draws a different heterogeneity field and a
  // different catalog.
  CycleSolver other(smallFaultConfig(/*seed=*/12));
  other.run();
  ASSERT_FALSE(other.events().empty());
  EXPECT_NE(other.events()[0].digest, first.events()[0].digest);
}

// --- cycle.step fault site -------------------------------------------------

TEST(CycleFaultSite, StatePoisonIsAbsorbedByAdaptiveStepping) {
  fault::FaultPlan plan;
  plan.poison("cycle.step", /*rank=*/0, /*occurrence=*/40);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  CycleConfig config = springSliderConfig();
  config.maxEvents = 2;
  CycleSolver solver(config);
  const CycleRunSummary summary = solver.run();
  EXPECT_GE(summary.statePerturbs, 1u);
  // The perturbed state healed: the run still detects events and every
  // field is finite.
  EXPECT_GE(summary.eventsDetected, 1);
  for (double t : solver.theta()) EXPECT_TRUE(std::isfinite(t));
  for (double t : solver.tau()) EXPECT_TRUE(std::isfinite(t));
}

TEST(CycleFaultSite, StallIsCaughtByTheHeartbeatWatchdog) {
  fault::FaultPlan plan;
  plan.stall("cycle.step", /*rank=*/0, /*occurrence=*/60, /*seconds=*/0.8);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  health::HeartbeatBoard board(1);
  health::Watchdog watchdog(board, /*stallTimeoutSeconds=*/0.25, nullptr,
                            /*pollIntervalSeconds=*/0.02);

  CycleConfig config = springSliderConfig();
  config.maxEvents = 1;
  config.heartbeat = &board;
  CycleSolver solver(config);
  solver.run();
  watchdog.stop();

  const auto reports = watchdog.reports();
  ASSERT_GE(reports.size(), 1u) << "watchdog missed the wedged step loop";
  EXPECT_EQ(reports[0].rank, 0);
  EXPECT_GE(reports[0].stalledSeconds, 0.25);
}

// --- spec encoding v2 ------------------------------------------------------

TEST(SpecEncodingV2, PreCycleSpecsKeepTheirV1BytesAndHashes) {
  // Golden hashes computed before the v2 field existed: any drift here
  // means every pre-cycle cache entry and fabric digest just moved.
  const sched::ScenarioSpec wave;
  const auto waveBytes = wave.canonicalBytes();
  ASSERT_GE(waveBytes.size(), 8u);
  EXPECT_EQ(std::memcmp(waveBytes.data(), "AWPSPEC1", 8), 0);
  EXPECT_EQ(waveBytes.size(), 128u);
  EXPECT_EQ(wave.hashHex(), "92ebcb542f37f242707b80ea45e47592");

  sched::ScenarioSpec rupture;
  rupture.kind = sched::ScenarioKind::Rupture;
  rupture.steps = 16;
  rupture.nranks = 2;
  rupture.seed = 42;
  rupture.h = 600.0;
  rupture.lengthKm = 36.0;
  rupture.depthKm = 12.0;
  EXPECT_EQ(rupture.hashHex(), "04c9c9a94fa4068bec8fc7aae0d1582f");

  sched::ScenarioSpec custom;
  custom.steps = 24;
  custom.nranks = 2;
  custom.seed = 7;
  custom.sourceAmplitude = 2.5e15;
  custom.priority = 3;
  custom.name = "x";
  EXPECT_EQ(custom.hashHex(), "bd3d25e2d750a04723406b7d6162f020");
  // Presentation metadata stays outside the hash.
  custom.priority = 0;
  custom.name.clear();
  EXPECT_EQ(custom.hashHex(), "bd3d25e2d750a04723406b7d6162f020");
}

TEST(SpecEncodingV2, CycleDigestSwitchesToV2AndRoundTrips) {
  sched::ScenarioSpec spec;
  spec.kind = sched::ScenarioKind::Rupture;
  spec.steps = 16;
  spec.nranks = 2;
  spec.seed = 42;
  spec.h = 600.0;
  spec.lengthKm = 36.0;
  spec.depthKm = 12.0;
  const std::string v1Hash = spec.hashHex();

  spec.cycleDigest = "d41d8cd98f00b204e9800998ecf8427e";
  const auto v2Bytes = spec.canonicalBytes();
  ASSERT_GE(v2Bytes.size(), 8u);
  EXPECT_EQ(std::memcmp(v2Bytes.data(), "AWPSPEC2", 8), 0);
  EXPECT_NE(spec.hashHex(), v1Hash);

  // v2 round trip, digest included.
  const sched::ScenarioSpec decoded = sched::ScenarioSpec::decodeCanonical(v2Bytes);
  EXPECT_EQ(decoded.cycleDigest, spec.cycleDigest);
  EXPECT_EQ(decoded.canonicalBytes(), v2Bytes);
  EXPECT_DOUBLE_EQ(decoded.lengthKm, spec.lengthKm);

  // v1 round trip: an old encoding still decodes, to the same bytes.
  spec.cycleDigest.clear();
  const auto v1Bytes = spec.canonicalBytes();
  const sched::ScenarioSpec decodedV1 =
      sched::ScenarioSpec::decodeCanonical(v1Bytes);
  EXPECT_TRUE(decodedV1.cycleDigest.empty());
  EXPECT_EQ(decodedV1.canonicalBytes(), v1Bytes);
  EXPECT_EQ(decodedV1.hashHex(), v1Hash);

  // Garbage is rejected, not misread.
  std::vector<std::byte> truncated(v2Bytes.begin(), v2Bytes.end() - 4);
  EXPECT_THROW(sched::ScenarioSpec::decodeCanonical(truncated), Error);
  std::vector<std::byte> badMagic = v1Bytes;
  badMagic[7] = static_cast<std::byte>('9');
  EXPECT_THROW(sched::ScenarioSpec::decodeCanonical(badMagic), Error);
}

// --- catalog JSON ----------------------------------------------------------

CycleCatalog sampleCatalog() {
  CycleCatalog catalog;
  catalog.nx = 24;
  catalog.nz = 8;
  catalog.cell = 500.0;
  catalog.years = 40.0;
  catalog.seed = 11;
  catalog.steps = 1234;
  catalog.wallSeconds = 1.5;
  CycleCatalogRow row;
  row.index = 0;
  row.onsetSeconds = 1.0e7;
  row.durationSeconds = 2.5;
  row.magnitude = 5.1;
  row.momentNm = 5.6e16;
  row.peakSlipRate = 0.31;
  row.eventDigest = "0123456789abcdef0123456789abcdef";
  row.specHash = "fedcba9876543210fedcba9876543210";
  row.productDigest = "00112233445566778899aabbccddeeff";
  row.phase = "completed";
  row.completions = 1;
  catalog.rows.push_back(row);
  row.index = 1;
  row.onsetSeconds = 2.0e7;
  catalog.rows.push_back(row);
  return catalog;
}

TEST(CycleCatalogJson, RendersValidAndCatchesViolations) {
  const CycleCatalog catalog = sampleCatalog();
  EXPECT_TRUE(validateCycleCatalogJson(toJson(catalog)).empty());

  // wallSeconds is outside the canonical bytes; rows are inside.
  CycleCatalog later = catalog;
  later.wallSeconds = 99.0;
  EXPECT_EQ(later.canonicalBytes(), catalog.canonicalBytes());
  later.rows[0].completions = 2;
  EXPECT_NE(later.canonicalBytes(), catalog.canonicalBytes());

  CycleCatalog incomplete = catalog;
  incomplete.rows[1].completions = 0;  // completed but never settled once
  EXPECT_FALSE(validateCycleCatalogJson(toJson(incomplete)).empty());

  CycleCatalog unordered = catalog;
  unordered.rows[1].onsetSeconds = 0.5e7;  // onsets must be non-decreasing
  EXPECT_FALSE(validateCycleCatalogJson(toJson(unordered)).empty());

  CycleCatalog badPhase = catalog;
  badPhase.rows[0].phase = "running";  // not a terminal phase
  EXPECT_FALSE(validateCycleCatalogJson(toJson(badPhase)).empty());

  EXPECT_FALSE(validateCycleCatalogJson("{not json").empty());
  EXPECT_FALSE(validateCycleCatalogJson("{\"schema\": \"other\"}").empty());
}

// A valid catalog written out by hand: one completed and one failed event,
// each member's value unique in the text so a row hits the member it names.
const std::string kBaseCatalog =
    "{\"schema\": \"awp-cycle-catalog\", \"version\": 1, \"nx\": 16, "
    "\"nz\": 8, \"cell\": 500.0, \"years\": 40.0, \"seed\": 11, "
    "\"steps\": 1234, \"wall_seconds\": 1.5, \"events_detected\": 2, "
    "\"catalog_digest\": \"c0ffee00c0ffee00c0ffee00c0ffee00\", "
    "\"events\": [{\"index\": 0, \"onset_seconds\": 1.0e7, "
    "\"duration_seconds\": 2.5, \"magnitude\": 5.1, \"moment_nm\": 5.6e16, "
    "\"peak_slip_rate\": 0.31, "
    "\"event_digest\": \"0123456789abcdef0123456789abcdef\", "
    "\"spec_hash\": \"fedcba9876543210fedcba9876543210\", "
    "\"product_digest\": \"00112233445566778899aabbccddeeff\", "
    "\"phase\": \"completed\", \"completions\": 1}, "
    "{\"index\": 1, \"onset_seconds\": 2.0e7, \"duration_seconds\": 3.5, "
    "\"magnitude\": -0.5, \"moment_nm\": 7.5e15, \"peak_slip_rate\": 0.12, "
    "\"event_digest\": \"11111111111111111111111111111111\", "
    "\"spec_hash\": \"22222222222222222222222222222222\", "
    "\"product_digest\": \"\", \"phase\": \"failed\", \"completions\": 0}]}";

TEST(CycleCatalogJson, EveryCheckFlagsItsMutation) {
  using schema_test::addNumberRows;
  const std::string digest = "\"c0ffee00c0ffee00c0ffee00c0ffee00\"";
  std::vector<schema_test::Mutation> rows = {
      {"\"awp-cycle-catalog\"", "\"awp-other-catalog\""},
      {"\"schema\"", "\"schema_absent\""},
      {"\"version\": 1", "\"version\": 2"},
      {"\"version\"", "\"version_absent\""},
      {"\"version\": 1,", "\"version\": 1,,"},  // not JSON at all
      {"\"nx\": 16", "\"nx\": 0"},
      {"\"nz\": 8", "\"nz\": 0"},
      {"\"events_detected\": 2", "\"events_detected\": 3"},
      {digest, "\"c0ffee00c0ffee00c0ffee00c0ffee0g\""},
      {digest, "\"c0ffee00\""},
      {digest, "7"},
      {"\"catalog_digest\"", "\"catalog_digest_absent\""},
      {"\"events\": [", "\"events\": {}, \"x\": ["},
      {"\"events\"", "\"events_absent\""},
      {"\"events\": [", "\"events\": [7, "},
      {"\"index\": 0", "\"index\": 1"},  // not its position
      {"\"onset_seconds\": 2.0e7", "\"onset_seconds\": 0.5e7"},  // order
      {"\"peak_slip_rate\": 0.31", "\"peak_slip_rate\": 0"},
      {"\"event_digest\": \"0123", "\"event_digest\": \"X123"},
      {"\"spec_hash\": \"fedc", "\"spec_hash\": \"Xedc"},
      {"\"phase\": \"completed\"", "\"phase\": \"running\""},
      {"\"phase\": \"completed\"", "\"phase\": 3"},
      {"\"phase\"", "\"phase_absent\""},
      {"\"completions\": 1", "\"completions\": \"1\""},
      {"\"completions\": 1", "\"completions\": -1"},
      {"\"completions\": 1", "\"completions\": 1e999"},
      {"\"completions\"", "\"completions_absent\""},
      // A completed event carries its product digest and >= 1 completion.
      {"\"completions\": 1", "\"completions\": 0"},
      {"\"product_digest\": \"0011", "\"product_digest\": \"X011"},
      {"\"product_digest\"", "\"product_digest_absent\""},
      {"\"phase\": \"failed\"", "\"phase\": \"completed\""},
  };
  const std::pair<const char*, const char*> nonNegative[] = {
      {"cell", "500.0"},         {"years", "40.0"},
      {"seed", "11"},            {"steps", "1234"},
      {"wall_seconds", "1.5"},   {"events_detected", "2"},
      {"onset_seconds", "1.0e7"}, {"duration_seconds", "2.5"},
      {"moment_nm", "5.6e16"},   {"peak_slip_rate", "0.31"}};
  for (const auto& [key, value] : nonNegative)
    addNumberRows(rows, key, value, true);
  addNumberRows(rows, "nx", "16", true);
  addNumberRows(rows, "nz", "8", true);
  addNumberRows(rows, "index", "0", false);
  addNumberRows(rows, "magnitude", "5.1", false);
  schema_test::expectMutationsFlagged(kBaseCatalog, rows,
                                      validateCycleCatalogJson);
  EXPECT_FALSE(validateCycleCatalogJson("[1, 2]").empty());
}

// Pins the emitted content (keys, order, values; not whitespace) of the
// sample catalog; the seed is a uint64 and must be emitted exactly.
TEST(CycleCatalogJson, EmittedContentIsPinned) {
  CycleCatalog catalog = sampleCatalog();
  catalog.wallSeconds = 1.0 / 3.0;
  catalog.rows[1].phase = "failed";
  catalog.rows[1].productDigest.clear();
  catalog.rows[1].completions = 0;
  catalog.rows[1].magnitude = -0.1;
  const std::string text = toJson(catalog);
  EXPECT_TRUE(validateCycleCatalogJson(text).empty());
  EXPECT_EQ(schema_test::canonicalDigest(text),
            "105aad6ad57c60bbb2ebf3545a172bc4");

  catalog.seed = 18446744073709551615ULL;
  EXPECT_NE(toJson(catalog).find("\"seed\": 18446744073709551615"),
            std::string::npos);
  EXPECT_TRUE(validateCycleCatalogJson(toJson(catalog)).empty());
}

// --- bridge ----------------------------------------------------------------

CycleEvent syntheticEvent() {
  CycleEvent event;
  event.index = 0;
  event.onsetSeconds = 3.0e7;
  event.durationSeconds = 2.0;
  event.peakSlipRate = 0.2;
  event.momentNm = 1.0e17;
  event.magnitude = 5.3;
  event.nucI = 18;
  event.nucK = 4;
  event.nx = 30;
  event.nz = 10;
  event.cell = 600.0;
  const std::size_t n = event.nx * event.nz;
  event.tau.resize(n);
  event.sigmaN.assign(n, -50.0e6);
  event.theta.assign(n, 1.0e6);
  for (std::size_t i = 0; i < n; ++i)
    event.tau[i] = 25.0e6 + 1.0e4 * static_cast<double>(i % 37);
  event.tauCloseNuc = 24.0e6;
  event.digest = event.computeDigest();
  return event;
}

TEST(CycleBridge, EventSpecCarriesDigestAndAccommodatedStress) {
  const CycleEvent event = syntheticEvent();
  BridgeConfig config;
  config.h = 600.0;

  const sched::ScenarioSpec spec = eventSpec(event, config);
  EXPECT_EQ(spec.kind, sched::ScenarioKind::Rupture);
  EXPECT_EQ(spec.cycleDigest, event.digest);
  EXPECT_EQ(spec.priority, config.priority);
  // 30 cycle nodes at 600 m on a 600 m rupture grid: the plane maps 1:1
  // and lengthKm/depthKm reproduce the node counts exactly.
  ASSERT_NE(spec.cycleStress, nullptr);
  EXPECT_EQ(spec.cycleStress->nx, 30u);
  EXPECT_EQ(spec.cycleStress->nz, 10u);
  EXPECT_DOUBLE_EQ(spec.lengthKm, 18.0);
  EXPECT_DOUBLE_EQ(spec.depthKm, 6.0);
  EXPECT_NEAR(spec.nucFraction, (18.0 + 0.5) / 30.0, 1e-12);

  // The accommodated field respects the preflight gate: at least one
  // supercritical node (the nucleation patch), never more than the
  // configured fraction of the fault.
  rupture::FrictionParams fp;
  fp.dc = 1.5e-3 * config.h;
  fp.dcSurface = 3.0 * fp.dc;
  const rupture::SlipWeakeningFriction friction(fp);
  std::size_t super = 0;
  const auto& stress = *spec.cycleStress;
  for (std::size_t k = 0; k < stress.nz; ++k)
    for (std::size_t i = 0; i < stress.nx; ++i) {
      const double depth = static_cast<double>(stress.nz - 1 - k) * 600.0;
      if (stress.tauAt(i, k) >
          friction.strength(0.0, depth, stress.sigmaAt(i, k)))
        ++super;
    }
  EXPECT_GE(super, 1u);
  EXPECT_LE(static_cast<double>(super),
            0.25 * static_cast<double>(stress.nx * stress.nz));

  // Deterministic: the same event maps to byte-identical spec encodings.
  EXPECT_EQ(eventSpec(event, config).canonicalBytes(), spec.canonicalBytes());
}

// --- catalog through the fabric, with a broker killed mid-catalog ----------

fabric::FabricConfig smallFabricConfig(const fs::path& root) {
  fabric::FabricConfig c;
  c.brokers = 3;
  c.vnodes = 64;
  c.rootDir = root.string();
  c.leaseSeconds = 0.4;
  c.heartbeatSeconds = 0.06;
  c.degradedAfterMisses = 2;
  c.pumpIntervalSeconds = 0.004;
  c.service.coreBudget = 4;
  c.service.queueCapacity = 32;
  return c;
}

TEST(CycleFabricChaos, CatalogSurvivesABrokerDeathBitIdentically) {
  const CycleConfig cycleConfig = smallFaultConfig(/*seed=*/11);
  BridgeConfig bridgeConfig;
  bridgeConfig.h = 600.0;
  bridgeConfig.steps = 12;
  bridgeConfig.nranks = 2;

  // Two independent seeded solver runs (the catalog's provenance).
  CycleSolver clean(cycleConfig);
  const CycleRunSummary cleanSummary = clean.run();
  CycleSolver chaos(cycleConfig);
  const CycleRunSummary chaosSummary = chaos.run();
  ASSERT_GE(clean.events().size(), 3u);
  ASSERT_EQ(clean.events().size(), chaos.events().size());

  // Undisturbed catalog.
  CycleCatalog baseline;
  {
    const fs::path root = tempDir("catalog-clean");
    util::resetRetryRegistry();
    fabric::HazardFabric fabricClean(smallFabricConfig(root));
    baseline = submitCatalog(fabricClean, cycleConfig, cleanSummary,
                             clean.events(), bridgeConfig);
    fabricClean.shutdown();
  }
  for (const CycleCatalogRow& row : baseline.rows) {
    EXPECT_EQ(row.phase, "completed") << row.index;
    EXPECT_EQ(row.completions, 1) << row.index;
    EXPECT_EQ(row.productDigest.size(), 32u) << row.index;
  }

  // Same catalog with the owner of the first event fail-stopping at its
  // first pump tick with that work in flight (the broker_death consult
  // counts only such ticks, so the death cannot miss the ensemble).
  const fabric::HashRing ring(3, 64);
  const int victim = ring.ownerOf(
      fabric::HashRing::pointFor(
          eventSpec(chaos.events().front(), bridgeConfig).hashHex()),
      0x7u);
  CycleCatalog survived;
  {
    const fs::path root = tempDir("catalog-chaos");
    util::resetRetryRegistry();
    fault::FaultPlan plan;
    plan.brokerDeath(victim, /*occurrence=*/1);
    fault::FaultInjector injector(std::move(plan));
    fault::ScopedInjection scoped(injector);

    fabric::HazardFabric fabricChaos(smallFabricConfig(root));
    survived = submitCatalog(fabricChaos, cycleConfig, chaosSummary,
                             chaos.events(), bridgeConfig);
    EXPECT_EQ(fabricChaos.brokerState(victim), fabric::BrokerState::Dead)
        << "broker " << victim;
    fabricChaos.shutdown();
  }

  // Exactly-once completion for every event, and the whole catalog —
  // event digests, spec hashes, product digests, phases, completions —
  // is bit-identical to the undisturbed run.
  for (const CycleCatalogRow& row : survived.rows) {
    EXPECT_EQ(row.phase, "completed") << row.index;
    EXPECT_EQ(row.completions, 1) << row.index;
  }
  EXPECT_EQ(survived.canonicalBytes(), baseline.canonicalBytes());
  EXPECT_EQ(survived.digestHex(), baseline.digestHex());

  const std::string json = toJson(survived);
  const auto violations = validateCycleCatalogJson(json);
  EXPECT_TRUE(violations.empty())
      << "catalog JSON invalid: " << violations.front();
}

}  // namespace
}  // namespace awp::cycle
