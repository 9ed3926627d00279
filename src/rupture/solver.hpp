#pragma once
// DFR: dynamic fault rupture — AWP-ODC's "SGSN mode" (Fig 6). As in the
// paper, rupture is not a second engine: FaultCondition is a
// core::FaultPlugin that the one wave time loop (core::WaveSolver) steps
// as an interior boundary condition, so a rupture shares the wave run's
// kernels, halo exchange, free surface, sponge, health guard, checkpoints
// and respawn ladder. Its state rides the solver's checkpoint blob.
//
// A vertical planar fault (normal +y) is embedded in the FD volume on the
// plane y = faultJ + 1/2, which in our staggering is exactly the plane
// carrying the σxy (strike-direction) and σyz (dip-direction) shear
// tractions. Each step the elastic trial tractions at the fault nodes are
// bounded by the slip-weakening frictional strength; the clamped stress
// difference drives the velocity discontinuity (slip rate) across the
// plane.
//
// Substitution note (recorded in DESIGN.md): the paper integrates the
// split-node SGSN scheme of Dalguer & Day (2007); we implement the
// traction-bounding (stress-glut) formulation on the same staggered grid —
// the method of the original Olsen FD code lineage. It shares the
// slip-weakening dynamics and the 2nd-order near-fault accuracy, and
// converges to the same rupture behaviour with grid refinement; the
// split-velocity bookkeeping (plus/minus sides) is carried through the
// velocity difference across the plane.
//
// The solver's products are the paper's Fig 19 quantities — final slip,
// peak slip rate, rupture time (hence rupture velocity) — plus the
// slip-rate time histories that dSrcG (src/source) turns into the moment-
// rate source for the wave-propagation run (the two-step M8 method).

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/kernels.hpp"
#include "core/solver.hpp"
#include "grid/staggered_grid.hpp"
#include "rupture/friction.hpp"
#include "rupture/stress_model.hpp"
#include "vcluster/cart.hpp"
#include "vcluster/comm.hpp"
#include "vmodel/cvm.hpp"

namespace awp::rupture {

struct RuptureConfig {
  grid::GridDims globalDims;
  double h = 100.0;  // M8's rupture model used 100 m (§VII.A)
  double dt = 0.0;   // 0 = CFL

  std::size_t faultJ = 0;  // fault plane at global y = faultJ + 1/2
  // Fault extent on the plane: x (strike) and z (k, increasing upward).
  std::size_t fi0 = 0, fi1 = 0, fk0 = 0, fk1 = 0;

  FrictionParams friction;
  StressModelConfig stress;
  // When set, replaces the model-built initial stress with an externally
  // evolved snapshot (the earthquake-cycle bridge hands in a stress field
  // already accommodated to this fault's strength profile). Dimensions
  // must match the fault extent [fi0, fi1) x [fk0, fk1); the stress
  // model's random-field knobs are ignored on this path.
  std::shared_ptr<const FaultInitialStress> stressOverride;
  core::KernelOptions kernels;
  int spongeWidth = 15;

  double slipRateThreshold = 1.0e-3;  // m/s, rupture-time pick
  int timeDecimation = 1;             // slip-rate history decimation
};

struct FaultHistory {
  std::size_t nx = 0, nz = 0;  // fault node counts (strike, depth)
  double h = 0.0, dt = 0.0;
  int timeDecimation = 1;
  std::size_t recordedSteps = 0;

  // Node-major maps [i + nx*k] (k as in the solver: increasing upward).
  std::vector<float> finalSlip;     // |slip| [m]
  std::vector<float> peakSlipRate;  // [m/s]
  std::vector<float> ruptureTime;   // [s]; < 0 if never ruptured
  std::vector<float> rigidity;      // μ at the fault nodes [Pa]

  // Histories [node * recordedSteps + t].
  std::vector<float> slipRateX;
  std::vector<float> slipRateZ;

  [[nodiscard]] double seismicMoment() const;  // Σ μ A s
  [[nodiscard]] double momentMagnitude() const;
  [[nodiscard]] double averageSlip() const;  // over ruptured nodes
  // Fraction of ruptured nodes whose rupture speed (from the rupture-time
  // gradient along strike) exceeds the local shear speed.
  [[nodiscard]] double superShearFraction(double vs) const;
};

// The fault as a boundary-condition plug-in on core::WaveSolver: binds the
// locally owned fault nodes, bounds their tractions by the slip-weakening
// strength each step, and keeps the slip-rate bookkeeping. Its state rides
// the solver's checkpoint blob, so a rupture restores (disk, buddy,
// rollback, respawn) exactly like a wave run.
class FaultCondition final : public core::FaultPlugin {
 public:
  // Collective (the rupture preflight). `solver` must outlive this object;
  // attach with solver.attachFault(&fault).
  FaultCondition(core::WaveSolver& solver, const RuptureConfig& config);

  void afterVelocity(const grid::StaggeredGrid& g, std::size_t step) override;
  void afterStress(grid::StaggeredGrid& g) override;
  void saveState(std::vector<std::byte>& blob) const override;
  void restoreState(std::span<const std::byte> state) override;

  // Collective: assemble the full fault history on rank 0 (others get an
  // empty FaultHistory with nx == 0).
  [[nodiscard]] FaultHistory gather();

 private:
  struct LocalNode {
    std::size_t gi, gk;      // global fault-plane indices
    std::size_t li, lj, lk;  // local raw indices of the σxy/σyz node
    float tau0;              // initial strike shear [Pa]
    float sigmaN;            // effective normal stress [Pa]
    float depth;             // [m]
    float mu;                // rigidity at the node [Pa]
    // Evolving state.
    float slipPath = 0.0f;
    float peakRate = 0.0f;
    float ruptureTime = -1.0f;
  };

  core::WaveSolver& solver_;
  RuptureConfig config_;
  SlipWeakeningFriction friction_;
  std::vector<LocalNode> nodes_;
  std::vector<float> historyX_, historyZ_;  // [t * nodes + node]
  std::size_t recordedSteps_ = 0;
};

// The wave solver a rupture runs on: the config's grid, spacing, kernels
// and sponge over the rank's sampling of `model`. `base` supplies the rest
// (health guard, telemetry, a dt override); config.dt > 0 wins over it.
// Collective (CFL probe, material exchange).
std::unique_ptr<core::WaveSolver> makeRuptureWaveSolver(
    vcluster::Communicator& comm, const vcluster::CartTopology& topo,
    const RuptureConfig& config, const vmodel::VelocityModel& model,
    core::SolverConfig base = {});

// A standalone rupture run: a WaveSolver with a FaultCondition attached.
class DynamicRuptureSolver {
 public:
  DynamicRuptureSolver(vcluster::Communicator& comm,
                       const vcluster::CartTopology& topo,
                       const RuptureConfig& config,
                       const vmodel::VelocityModel& model);

  void run(std::size_t nSteps) { wave_->run(nSteps); }
  [[nodiscard]] std::size_t currentStep() const {
    return wave_->currentStep();
  }
  // Collective: the fault history on rank 0 (see FaultCondition::gather).
  [[nodiscard]] FaultHistory gather() { return fault_->gather(); }

 private:
  std::unique_ptr<core::WaveSolver> wave_;
  std::unique_ptr<FaultCondition> fault_;
};

}  // namespace awp::rupture
