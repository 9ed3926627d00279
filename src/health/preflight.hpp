#pragma once
// Pre-flight validation (layer 1 of the health guard): collective fail-fast
// checks before step 0. A capability job discovers a bad material cell, an
// unstable dt, or an impossible absorbing-layer width in seconds instead of
// after hours of queue wait plus a blow-up at step 40k. Every rank
// validates its own block; the verdicts are combined with one
// allreduce(Max) so all ranks abort *together* with a per-rank diagnostic
// instead of one rank throwing while its neighbors deadlock in a halo
// exchange.
//
// Checks:
//   material  — Vp/Vs/rho positive, finite and physical; Vp/Vs ratio sane
//               (below sqrt(2) means a negative λ: Fatal); Q derivable
//   stability — dt against the local CFL limit of this rank's material
//   boundary  — sponge/PML width vs the global dims (overlapping layers)
//               and, for PML, vs this rank's subdomain extent (split-field
//               zones cannot span rank boundaries)
//   topology  — halo width vs this rank's subdomain extent on every
//               partitioned axis: an extreme decomposition can shave a
//               rank's block below the ghost-layer depth, at which point
//               the planes it must send overlap the planes it receives
//   sources   — inside the global grid (Fatal: today they are silently
//               dropped by SourceSet::bind) and time-windows inside the
//               planned run (Degraded: the tail would be truncated)

#include <cstddef>
#include <vector>

#include "grid/staggered_grid.hpp"
#include "health/verdict.hpp"
#include "util/error.hpp"
#include "vcluster/comm.hpp"

namespace awp::health {

// A Fatal preflight verdict. It judges the inputs alone, so a retry of the
// same inputs meets the same verdict: callers must not treat it like a
// numerical blow-up.
class PreflightError : public Error {
 public:
  using Error::Error;
};

struct PreflightLimits {
  float minVpVsRatio = 1.415f;  // just above sqrt(2); below ⇒ λ < 0
  float maxVpVsRatio = 6.0f;    // beyond ⇒ Degraded (suspicious, not fatal)
  float maxVp = 15000.0f;       // m/s — nothing in the crust is faster
  float minRho = 500.0f;        // kg/m³ — Degraded outside [minRho, maxRho]
  float maxRho = 8000.0f;
  double cflSlack = 1.000001;   // dt may exceed stableDt by this factor
};

enum class BoundaryKind { None, Sponge, Pml };

struct SourceWindow {
  std::size_t gi = 0, gj = 0, gk = 0;  // global grid indices
  std::size_t steps = 0;               // history length in solver steps
};

// Everything the checks need, assembled by the caller (the solver) so this
// layer stays independent of core.
struct PreflightContext {
  const grid::StaggeredGrid* grid = nullptr;  // material already loaded
  grid::GridDims globalDims;
  double dt = 0.0;
  double h = 0.0;
  BoundaryKind boundary = BoundaryKind::None;
  int boundaryWidth = 0;
  // Which physical faces this rank touches (the damped faces: the four
  // sides and the bottom; the free surface is never damped).
  bool touchesXMin = false, touchesXMax = false;
  bool touchesYMin = false, touchesYMax = false;
  bool touchesBottom = false;
  // Process decomposition (ranks per axis) and the ghost-layer depth, for
  // the halo-vs-extent topology check. haloWidth = 0 skips the check (for
  // callers that have no topology, e.g. single-rank harnesses).
  int decompX = 1, decompY = 1, decompZ = 1;
  std::size_t haloWidth = 0;
  std::size_t plannedSteps = 0;
  std::vector<SourceWindow> sources;
  PreflightLimits limits;
};

struct PreflightReport {
  Verdict verdict = Verdict::Healthy;
  std::vector<Issue> issues;
};

// Local (this rank only) validation.
PreflightReport runPreflight(const PreflightContext& ctx);

// Collective validation: runs the local checks, allgathers the verdicts,
// and when any rank is Fatal throws PreflightError on EVERY rank with the
// per-rank verdict table plus this rank's own findings. Returns the local
// report (possibly Degraded) otherwise.
PreflightReport collectivePreflight(vcluster::Communicator& comm,
                                    const PreflightContext& ctx);

// --- Rupture-solver preflight ---------------------------------------------
// Validates dynamic-rupture inputs the same way the material path is
// validated: friction parameters must be physical, and the initial stress
// must sit below the static strength everywhere except a bounded
// nucleation patch (a fault that is supercritical over a large fraction of
// its area releases everything in step 0; one that is supercritical
// nowhere can never nucleate).

// One locally owned fault node, as sampled by the rupture solver.
struct RuptureNode {
  std::size_t gi = 0, gk = 0;  // global fault-plane indices (strike, depth)
  double tau0 = 0.0;           // initial strike shear [Pa]
  double sigmaN = 0.0;         // effective normal stress (negative) [Pa]
  double depth = 0.0;          // [m]
};

struct RupturePreflightContext {
  // Friction parameters, copied so this layer stays independent of
  // src/rupture (mirrors PreflightContext's relationship to core).
  double muS = 0.75;
  double muD = 0.50;
  double dc = 0.3;        // m
  double dcSurface = 1.0; // m
  double cohesion = 1.0e6;  // Pa
  // Supercritical nodes (tau0 above static strength) tolerated as the
  // nucleation patch, as a fraction of the global fault area. Fatal above.
  double maxSupercriticalFraction = 0.25;
  std::vector<RuptureNode> nodes;  // locally owned fault nodes
};

// Local validation; reports this rank's supercritical node count through
// `supercriticalLocal` (the global fraction needs a reduction).
PreflightReport runRupturePreflight(const RupturePreflightContext& ctx,
                                    std::size_t* supercriticalLocal);

// Collective: local checks + cluster-wide supercritical fraction, then the
// same allgather-and-throw-together protocol as collectivePreflight.
PreflightReport collectiveRupturePreflight(vcluster::Communicator& comm,
                                           const RupturePreflightContext& ctx);

}  // namespace awp::health
