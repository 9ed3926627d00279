#pragma once
// CycleSolver: the quasi-dynamic earthquake-sequence engine. A planar
// rate-and-state fault (aging law, src/rupture/rate_state.hpp) is loaded
// at the plate rate through the precomputed stiffness kernel; inertia is
// approximated by radiation damping η·V with η = μ/(2·cs) (Rice 1993;
// Ozawa et al., arXiv:2110.12165). Each step solves the strength balance
//   τ_i = (−σn_i)·f(V_i, θ_i) + η·V_i
// per node by a safeguarded Newton iteration in ln V (monotone: the
// damping term makes the balance strictly increasing), advances (τ, θ)
// with a midpoint rule, and picks the next dt adaptively — bounded
// fractional change of θ and of slip per L — so the step shrinks from
// years in the interseismic to fractions of a second coseismically.
// Event detection: peak slip rate crossing eventRate opens a window
// (snapshotting τ/σ/θ into a content-addressed CycleEvent at nucleation);
// dropping below lockRate closes (heals) it. Evolution is deterministic
// and seed-reproducible: pure double arithmetic in a fixed iteration
// order, heterogeneity drawn once from the seeded von Kármán field.
//
// Observability: CycleStep/CycleBridge telemetry phases, Cycle* counters,
// the "cycle.step" fault site (deterministic state perturbation absorbed
// by the adaptive stepper; stall caught by the heartbeat watchdog).

#include <cstdint>
#include <vector>

#include "cycle/catalog.hpp"
#include "cycle/kernel.hpp"
#include "health/watchdog.hpp"
#include "rupture/rate_state.hpp"

namespace awp::cycle {

struct CycleConfig {
  std::size_t nx = 96, nz = 32;  // fault nodes (strike x depth)
  double cell = 500.0;           // node spacing [m]
  double mu = 30.0e9;            // rigidity [Pa]
  double cs = 3464.0;            // shear speed [m/s]; η = μ/(2·cs)
  double vpl = 1.0e-9;           // plate loading rate [m/s] (~32 mm/yr)

  rupture::RateStateParams friction;  // velocity-weakening interior
  // Velocity-strengthening rim: `a` raised above b in the outer rimNodes
  // ring so events arrest before the grid edge (0 = no rim).
  double aStrengthened = 0.025;
  int rimNodes = 2;
  double sigma = 50.0e6;  // effective normal stress magnitude [Pa]

  // Seeded heterogeneity of the initial shear stress: a von Kármán field
  // scaled to heterogeneity·(b−a)·σ (0 = homogeneous; the spring-slider
  // tests want the clean analytic limit and a 1×1 grid draws no field).
  double heterogeneity = 0.3;
  double corrX = 8000.0, corrZ = 4000.0, hurst = 0.75;
  std::uint64_t seed = 1;
  // Uniform initial over-stress, in fractions of (b−a)·σ. Steady state at
  // the plate rate is an exact (unstable) equilibrium of the discrete
  // system; this deterministic kick moves every node off it so the
  // instability actually develops — essential for the homogeneous
  // spring-slider limit, harmless next to the heterogeneity field.
  double initialKick = 0.05;

  // Stiffness kernel (cycle/kernel.hpp): κ, χ, truncation radius.
  double loadingFactor = 0.1;
  double interaction = 0.25;
  int stencilRadius = 8;

  // Run span and event detection.
  double years = 600.0;
  int maxEvents = 0;          // stop after n closed events (0 = no cap)
  double eventRate = 1.0e-3;  // peak V opening an event window [m/s]
  double lockRate = 1.0e-5;   // peak V closing (healing) the window [m/s]

  // Adaptive stepping: dt = min over nodes of (epsTheta·θ/|θ̇|,
  // epsSlip·L/V, epsTau·a·σ/|τ̇|), clamped to [dtMin, dtMax]. The τ bound
  // keeps one step's stress change a fraction of the direct-effect scale
  // a·σ — without it a deeply locked node (θ̇ ≈ 1 allows a decade-long
  // step) can reload straight past its strength inside a single step.
  double epsTheta = 0.2, epsSlip = 0.2, epsTau = 0.2;
  double dtMin = 1.0e-4;
  double dtMax = 3.15e8;           // ~10 years
  std::uint64_t stepCap = 5'000'000;  // hard stop (wedged-run guard)

  // Observability: rank id for cycle.step fault attribution; optional
  // heartbeat board beaten once per step so a watchdog catches a wedged
  // stepping loop (not owned; may be null).
  int rank = 0;
  health::HeartbeatBoard* heartbeat = nullptr;
};

struct CycleRunSummary {
  std::uint64_t steps = 0;
  double simulatedSeconds = 0.0;
  double peakSlipRate = 0.0;        // over the whole run [m/s]
  int eventsDetected = 0;           // closed windows
  std::uint64_t statePerturbs = 0;  // injected cycle.step perturbations
};

class CycleSolver {
 public:
  explicit CycleSolver(const CycleConfig& config);

  // Advance until the configured span (or the event cap) is reached; an
  // event window still open at span end is stepped to its close. Returns
  // the run summary; detected events accumulate in events().
  CycleRunSummary run();
  // One adaptive step (exposed for tests); returns the dt taken [s].
  double step();

  [[nodiscard]] const std::vector<CycleEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const CycleRunSummary& summary() const { return summary_; }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] double peakRate() const { return peakRateNow_; }
  [[nodiscard]] const std::vector<double>& tau() const { return tau_; }
  [[nodiscard]] const std::vector<double>& theta() const { return theta_; }
  [[nodiscard]] const std::vector<double>& slip() const { return slip_; }
  [[nodiscard]] const StiffnessKernel& kernel() const { return kernel_; }
  [[nodiscard]] const CycleConfig& config() const { return config_; }

 private:
  // Solve V at one node from the strength balance (Newton in ln V).
  double solveSlipRate(std::size_t n, double tau, double theta) const;
  // v/tauRate/thetaRate from a (tau, theta) state.
  void derivatives(const std::vector<double>& tau,
                   const std::vector<double>& theta, std::vector<double>& v,
                   std::vector<double>& tauRate,
                   std::vector<double>& thetaRate) const;
  [[nodiscard]] double pickDt(const std::vector<double>& v,
                              const std::vector<double>& theta,
                              const std::vector<double>& thetaRate,
                              const std::vector<double>& tauRate) const;
  void detectEvents();
  void consultFaultSite();

  CycleConfig config_;
  rupture::RateStateFriction friction_;
  StiffnessKernel kernel_;
  double eta_ = 0.0;  // radiation damping [Pa·s/m]

  std::vector<double> aNode_;   // direct-effect a per node (VS rim)
  std::vector<double> sigma_;   // compression magnitude per node [Pa]
  std::vector<double> tau_, theta_, v_, slip_;
  // Scratch for the midpoint rule (sized once; step() never allocates).
  std::vector<double> tauRate_, thetaRate_, tauHalf_, thetaHalf_, vHalf_,
      tauRate2_, thetaRate2_;
  mutable std::vector<double> lnvGuess_;  // warm-start Newton iterate

  double time_ = 0.0;
  double peakRateNow_ = 0.0;

  // Open event window.
  bool windowOpen_ = false;
  CycleEvent pending_;
  std::vector<double> slipAtOpen_;
  double windowPeak_ = 0.0;

  std::vector<CycleEvent> events_;
  CycleRunSummary summary_;
};

}  // namespace awp::cycle
