#pragma once
// Shared mini-scenario builders for the bench harness. Every bench that
// regenerates a science figure runs one of these laptop-scale replicas of
// the paper's SCEC milestone runs (Table 3): same physics and geometry
// proportions, reduced resolution and extent. EXPERIMENTS.md records the
// scale mapping per experiment.

#include <string>
#include <vector>

#include "analysis/aval.hpp"
#include "core/solver.hpp"
#include "rupture/solver.hpp"
#include "source/dsrcg.hpp"
#include "vmodel/cvm.hpp"

namespace awp::bench {

// A mini southern-California-like wave-propagation domain. The fault
// trace runs along x at faultY; basins follow the CVM socal layout.
struct MiniDomain {
  grid::GridDims dims{144, 72, 24};  // cells
  double h = 1000.0;                 // m -> 144 x 72 x 24 km volume
  double faultYFraction = 0.55;

  [[nodiscard]] double lx() const { return dims.nx * h; }
  [[nodiscard]] double ly() const { return dims.ny * h; }
  [[nodiscard]] double faultY() const { return faultYFraction * ly(); }
  [[nodiscard]] vmodel::CommunityVelocityModel cvm() const {
    return vmodel::CommunityVelocityModel::socal(lx(), ly(), faultY());
  }
  [[nodiscard]] source::FaultTrace trace(double marginFraction = 0.15,
                                         double bend = 0.0) const;
};

struct ScenarioResult {
  std::vector<float> pgvh;  // global surface map on exit (x fastest)
  std::vector<float> pgv;
  std::vector<core::SeismogramTrace> traces;
  double dt = 0.0;
  std::size_t steps = 0;
  double wallSeconds = 0.0;
  std::size_t gridPoints = 0;
};

// Run a wave-propagation scenario on `nranks` virtual ranks with the given
// sources; records PGV maps and traces at the CVM's named sites.
ScenarioResult runWaveScenario(
    const MiniDomain& domain, std::vector<core::MomentRateSource> sources,
    std::size_t steps, int nranks = 4,
    const core::KernelOptions& kernels = {}, bool attenuation = false,
    const std::vector<vmodel::Site>& extraSites = {});

// A mini TeraShake/ShakeOut-style kinematic scenario along the domain's
// fault trace.
std::vector<core::MomentRateSource> miniKinematicSource(
    const MiniDomain& domain, double mw, double faultLengthFraction,
    bool reverseDirection, double dt, double traceMargin = 0.15);

// A mini dynamic rupture (the two-step method's first step): run the DFR
// solver on a planar fault and return the gathered history. The fault
// length is `lengthKm` at `hRupture` spacing.
rupture::FaultHistory runMiniRupture(double lengthKm, double depthKm,
                                     double hRupture, std::uint64_t seed,
                                     std::size_t steps, int nranks = 2,
                                     double nucAlongStrikeFraction = 0.15);

// Solver time-step estimate for a mini domain (for pre-sizing sources).
double estimateDt(const MiniDomain& domain);

}  // namespace awp::bench
