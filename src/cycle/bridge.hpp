#pragma once
// The cycle → rupture catalog bridge. Each CycleEvent (an interseismically
// evolved nucleation snapshot, content-addressed by its canonical digest)
// becomes one dynamic-rupture ScenarioSpec: the snapshot's τ/(−σn) ratio
// field is resampled onto the rupture fault plane, accommodated into the
// slip-weakening strength band (rupture/stress_model.hpp's
// accommodateStressPattern — the preflight's supercritical-fraction gate
// still applies), and attached as the spec's unhashed stress carrier while
// the event digest rides in the hashed cycleDigest field (canonical
// encoding v2). The specs are then submitted through the HazardFabric,
// and the settled handles are folded into a CycleCatalog whose canonical
// bytes are bit-identical across reruns: every row is derived from the
// deterministic solver output and the content-addressed products, never
// from wall-clock or broker topology.

#include <cstdint>
#include <vector>

#include "cycle/catalog.hpp"
#include "cycle/solver.hpp"
#include "fabric/fabric.hpp"
#include "rupture/stress_model.hpp"
#include "sched/spec.hpp"

namespace awp::cycle {

struct BridgeConfig {
  double h = 600.0;          // rupture grid spacing [m]
  std::uint64_t steps = 16;  // rupture steps per event scenario
  int nranks = 2;
  int priority = 5;          // bridged scenarios outrank routine ensembles
  // Fraction of the fault area the nucleation patch may cover; kept well
  // under the rupture preflight's supercritical limit (0.25, health::
  // RupturePreflightContext) so the accommodated field always clears it.
  double maxNucFraction = 0.1;
  // Strength-band accommodation knobs (normal-stress profile, reload/max
  // fractions, nucExcess). Random-field members are ignored on this path.
  rupture::StressModelConfig stress;
};

// Map one detected event onto a rupture scenario. The returned spec hashes
// under encoding v2 (cycleDigest = event.digest) and carries the
// accommodated FaultInitialStress in its unhashed cycleStress field.
// Deterministic: equal events produce byte-identical canonical encodings.
sched::ScenarioSpec eventSpec(const CycleEvent& event,
                              const BridgeConfig& config);

// Submit every event through the fabric, wait for all digests to settle,
// and assemble the catalog (rows in event order; specHash / productDigest /
// phase / completions from the settled handles). wallSeconds is left 0 for
// the caller to stamp — it is outside the canonical bytes.
CycleCatalog submitCatalog(fabric::HazardFabric& fabric,
                           const CycleConfig& cycleConfig,
                           const CycleRunSummary& summary,
                           const std::vector<CycleEvent>& events,
                           const BridgeConfig& config);

}  // namespace awp::cycle
