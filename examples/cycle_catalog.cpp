// Earthquake-cycle catalog demonstration: a seeded quasi-dynamic sequence
// run detects a handful of events on a rate-and-state fault, bridges each
// nucleation snapshot into a dynamic-rupture scenario (spec encoding v2,
// content-addressed by the event digest), and submits the whole catalog
// through the fault-tolerant hazard fabric — twice. The second submission
// fail-stops one of the three brokers mid-catalog; the survivors replay
// the orphaned scenarios from the submission log, every event still
// completes exactly once, and the resulting catalog is bit-identical to
// the undisturbed one (its canonical bytes exclude wall-clock, so the MD5
// digests must match).
//
// Exits nonzero unless the run detects at least three events, every
// bridged scenario completes with completions == 1 after the broker
// death, the two catalogs share one digest, and the catalog JSON
// validates.

#include <cstdio>
#include <filesystem>
#include <string>

#include "cycle/bridge.hpp"
#include "cycle/catalog.hpp"
#include "cycle/solver.hpp"
#include "fabric/fabric.hpp"
#include "fault/injector.hpp"
#include "util/retry.hpp"
#include "util/timer.hpp"

using namespace awp;
namespace fs = std::filesystem;

namespace {

bool expect(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "FAIL: %s\n", what);
  return ok;
}

cycle::CycleConfig sequenceConfig() {
  cycle::CycleConfig config;
  config.nx = 24;
  config.nz = 8;
  config.cell = 500.0;
  config.friction.L = 0.005;  // cell-scale events ("inherently discrete")
  config.interaction = 0.05;
  config.stencilRadius = 3;
  config.vpl = 1.0e-8;
  config.heterogeneity = 0.3;
  config.corrX = 4000.0;
  config.corrZ = 2000.0;
  config.seed = 11;
  config.years = 40.0;
  config.maxEvents = 3;
  return config;
}

fabric::FabricConfig fabricConfig(const fs::path& root) {
  fabric::FabricConfig config;
  config.brokers = 3;
  config.vnodes = 64;
  config.rootDir = root.string();
  config.leaseSeconds = 0.4;
  config.heartbeatSeconds = 0.06;
  config.degradedAfterMisses = 2;
  config.pumpIntervalSeconds = 0.004;
  config.service.coreBudget = 4;
  config.service.queueCapacity = 32;
  return config;
}

}  // namespace

int main() {
  bool ok = true;
  const cycle::CycleConfig config = sequenceConfig();

  // --- the interseismic sequence, twice from one seed ---------------------
  std::printf("simulating %.0f years of earthquake cycle (%zux%zu fault, "
              "seed %llu)...\n",
              config.years, config.nx, config.nz,
              static_cast<unsigned long long>(config.seed));
  cycle::CycleSolver solver(config);
  const cycle::CycleRunSummary summary = solver.run();
  cycle::CycleSolver rerun(config);
  const cycle::CycleRunSummary rerunSummary = rerun.run();

  std::printf("  %d events in %llu adaptive steps (%.1f simulated years, "
              "peak slip rate %.2e m/s)\n",
              summary.eventsDetected,
              static_cast<unsigned long long>(summary.steps),
              summary.simulatedSeconds / (365.25 * 86400.0),
              summary.peakSlipRate);
  for (const cycle::CycleEvent& event : solver.events())
    std::printf("  event %d: Mw %.2f at %.2f yr, nucleated at (%zu, %zu), "
                "digest %s\n",
                event.index, event.magnitude,
                event.onsetSeconds / (365.25 * 86400.0), event.nucI,
                event.nucK, event.digest.c_str());

  ok &= expect(summary.eventsDetected >= 3, "at least three events detected");
  ok &= expect(summary.steps == rerunSummary.steps,
               "rerun takes the identical step count");
  ok &= expect(solver.events().size() == rerun.events().size() &&
                   [&] {
                     for (std::size_t i = 0; i < solver.events().size(); ++i)
                       if (solver.events()[i].digest !=
                           rerun.events()[i].digest)
                         return false;
                     return true;
                   }(),
               "rerun reproduces every event digest");

  cycle::BridgeConfig bridge;
  bridge.h = 600.0;
  bridge.steps = 12;
  bridge.nranks = 2;

  // --- undisturbed catalog ------------------------------------------------
  std::printf("\nsubmitting %zu bridged rupture scenarios (clean fabric)...\n",
              solver.events().size());
  cycle::CycleCatalog baseline;
  {
    const fs::path root = fs::temp_directory_path() / "awp-cycle-catalog-a";
    fs::remove_all(root);
    util::resetRetryRegistry();
    Stopwatch timer;
    fabric::HazardFabric clean(fabricConfig(root));
    baseline = cycle::submitCatalog(clean, config, summary, solver.events(),
                                    bridge);
    baseline.wallSeconds = timer.seconds();
    clean.shutdown();
    fs::remove_all(root);
  }
  std::printf("  catalog digest %s (%.2f s)\n", baseline.digestHex().c_str(),
              baseline.wallSeconds);

  // --- catalog with an event's owner fail-stopping mid-catalog -----------
  // The victim owns the first event, and dies at its first pump tick with
  // that work in flight.
  const fabric::HashRing ring(3, 64);
  const int victim = ring.ownerOf(
      fabric::HashRing::pointFor(
          cycle::eventSpec(rerun.events().front(), bridge).hashHex()),
      0x7u);
  std::printf("\nresubmitting with broker %d fail-stopping mid-catalog...\n",
              victim);
  cycle::CycleCatalog survived;
  {
    const fs::path root = fs::temp_directory_path() / "awp-cycle-catalog-b";
    fs::remove_all(root);
    util::resetRetryRegistry();
    fault::FaultPlan plan;
    plan.brokerDeath(victim, /*occurrence=*/1);
    fault::FaultInjector injector(std::move(plan));
    fault::ScopedInjection scoped(injector);

    Stopwatch timer;
    fabric::HazardFabric chaos(fabricConfig(root));
    survived = cycle::submitCatalog(chaos, config, rerunSummary,
                                    rerun.events(), bridge);
    survived.wallSeconds = timer.seconds();
    ok &= expect(chaos.brokerState(victim) == fabric::BrokerState::Dead,
                 "the victim broker actually died");
    chaos.shutdown();
    fs::remove_all(root);
  }
  for (const cycle::CycleCatalogRow& row : survived.rows) {
    std::printf("  event %d: %s, completions=%d, product %s\n", row.index,
                row.phase.c_str(), row.completions,
                row.productDigest.c_str());
    ok &= expect(row.phase == "completed", "event completed after the death");
    ok &= expect(row.completions == 1, "exactly-once completion");
  }
  std::printf("  catalog digest %s (%.2f s)\n", survived.digestHex().c_str(),
              survived.wallSeconds);

  ok &= expect(survived.canonicalBytes() == baseline.canonicalBytes(),
               "catalog bit-identical across the broker death");

  const auto violations = cycle::validateCycleCatalogJson(toJson(survived));
  for (const std::string& v : violations)
    std::fprintf(stderr, "catalog JSON violation: %s\n", v.c_str());
  ok &= expect(violations.empty(), "catalog JSON validates");

  std::printf("\n%s\n", ok ? "cycle catalog OK" : "cycle catalog FAILED");
  return ok ? 0 : 1;
}
