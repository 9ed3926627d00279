#include "cycle/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "fault/injector.hpp"
#include "rupture/stress_model.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"

namespace awp::cycle {

namespace {
constexpr double kSecondsPerYear = 365.25 * 86400.0;
constexpr double kThetaFloor = 1.0e-12;
}  // namespace

CycleSolver::CycleSolver(const CycleConfig& config)
    : config_(config),
      friction_(config.friction),
      kernel_({config.nx, config.nz, config.cell, config.mu,
               config.loadingFactor, config.interaction,
               config.stencilRadius}) {
  AWP_CHECK(config_.nx > 0 && config_.nz > 0);
  AWP_CHECK(config_.vpl > 0.0 && config_.sigma > 0.0);
  AWP_CHECK(config_.eventRate > config_.lockRate);
  AWP_CHECK(config_.epsTheta > 0.0 && config_.epsSlip > 0.0 &&
            config_.epsTau > 0.0);
  eta_ = config_.mu / (2.0 * config_.cs);

  const std::size_t n = config_.nx * config_.nz;
  const auto& p = config_.friction;

  aNode_.assign(n, p.a);
  if (config_.rimNodes > 0) {
    const auto rim = static_cast<std::size_t>(config_.rimNodes);
    for (std::size_t k = 0; k < config_.nz; ++k)
      for (std::size_t i = 0; i < config_.nx; ++i) {
        const bool inRim = i < rim || i >= config_.nx - std::min(rim, config_.nx) ||
                           k < rim || k >= config_.nz - std::min(rim, config_.nz);
        if (inRim) aNode_[i + config_.nx * k] = config_.aStrengthened;
      }
  }
  sigma_.assign(n, config_.sigma);

  // Steady state at the plate rate, plus the seeded stress heterogeneity
  // that staggers nucleation across the fault. A 1×1 grid (the spring-
  // slider limit) or heterogeneity = 0 skips the field draw entirely.
  theta_.assign(n, p.L / config_.vpl);
  v_.assign(n, config_.vpl);
  slip_.assign(n, 0.0);
  tau_.assign(n, 0.0);
  std::vector<double> noise;
  if (config_.heterogeneity > 0.0 && n > 1)
    noise = rupture::vonKarmanField(config_.nx, config_.nz, config_.cell,
                                    config_.corrX, config_.corrZ,
                                    config_.hurst, config_.seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double fss = p.f0 + (aNode_[i] - p.b) * std::log(config_.vpl / p.V0);
    double tau = sigma_[i] * fss + eta_ * config_.vpl;
    tau += config_.initialKick * (p.b - p.a) * sigma_[i];
    if (!noise.empty())
      tau += config_.heterogeneity * (p.b - p.a) * sigma_[i] * noise[i];
    tau_[i] = tau;
  }

  tauRate_.assign(n, 0.0);
  thetaRate_.assign(n, 0.0);
  tauHalf_.assign(n, 0.0);
  thetaHalf_.assign(n, 0.0);
  vHalf_.assign(n, 0.0);
  tauRate2_.assign(n, 0.0);
  thetaRate2_.assign(n, 0.0);
  lnvGuess_.assign(n, std::log(config_.vpl / p.V0));
  slipAtOpen_.assign(n, 0.0);
}

double CycleSolver::solveSlipRate(std::size_t n, double tau,
                                  double theta) const {
  // Strength balance in x = ln(V/V0):
  //   g(x) = σ·(f0 + a·x + b·ln(V0·θ/L)) + η·V0·e^x − τ = 0.
  // g is strictly increasing and convex (g' = σ·a + η·V0·e^x > 0), so the
  // safeguarded Newton below converges for any bracketed root.
  const auto& p = config_.friction;
  const double sigma = sigma_[n];
  const double a = aNode_[n];
  const double state =
      sigma * (p.f0 + p.b * std::log(p.V0 * std::max(theta, kThetaFloor) /
                                     p.L));
  const double etaV0 = eta_ * p.V0;
  constexpr double kXMin = -60.0;  // V0·e^-60 ~ 1e-32 m/s: fully locked
  constexpr double kXMax = 25.0;   // V0·e^25 ~ 7e4 m/s: never reached
  double x = std::clamp(lnvGuess_[n], kXMin, kXMax);
  for (int it = 0; it < 100; ++it) {
    const double ex = std::exp(x);
    const double g = state + sigma * a * x + etaV0 * ex - tau;
    const double gp = sigma * a + etaV0 * ex;
    double dx = -g / gp;
    dx = std::clamp(dx, -30.0, 30.0);
    x = std::clamp(x + dx, kXMin, kXMax);
    if (std::abs(dx) < 1.0e-13 * std::max(1.0, std::abs(x))) break;
  }
  lnvGuess_[n] = x;
  return p.V0 * std::exp(x);
}

void CycleSolver::derivatives(const std::vector<double>& tau,
                              const std::vector<double>& theta,
                              std::vector<double>& v,
                              std::vector<double>& tauRate,
                              std::vector<double>& thetaRate) const {
  const std::size_t n = tau.size();
  const double L = config_.friction.L;
  for (std::size_t i = 0; i < n; ++i) {
    const double th = std::max(theta[i], kThetaFloor);
    v[i] = solveSlipRate(i, tau[i], th);
    thetaRate[i] = 1.0 - v[i] * th / L;
  }
  kernel_.stressingRate(v, config_.vpl, tauRate);
}

double CycleSolver::pickDt(const std::vector<double>& v,
                           const std::vector<double>& theta,
                           const std::vector<double>& thetaRate,
                           const std::vector<double>& tauRate) const {
  const double L = config_.friction.L;
  double dt = config_.dtMax;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double th = std::max(theta[i], kThetaFloor);
    const double rate = std::abs(thetaRate[i]);
    if (rate > 0.0) dt = std::min(dt, config_.epsTheta * th / rate);
    if (v[i] > 0.0) dt = std::min(dt, config_.epsSlip * L / v[i]);
    const double loading = std::abs(tauRate[i]);
    if (loading > 0.0)
      dt = std::min(dt,
                    config_.epsTau * aNode_[i] * sigma_[i] / loading);
  }
  return std::max(dt, config_.dtMin);
}

void CycleSolver::consultFaultSite() {
  if (!fault::injectionEnabled()) return;
  const auto action =
      fault::activeInjector()->check("cycle.step", config_.rank);
  if (!action) return;
  switch (action->kind) {
    case fault::FaultKind::RankStall:
      std::this_thread::sleep_for(std::chrono::duration<double>(
          action->stallSeconds));
      break;
    case fault::FaultKind::FieldPoison: {
      // Deterministic finite state perturbation: one node's θ scaled by
      // a large factor. The adaptive stepper must absorb it — the node
      // locks, heals back toward steady state, and evolution continues
      // without a NaN anywhere.
      const std::size_t node =
          static_cast<std::size_t>(summary_.steps) % theta_.size();
      theta_[node] *= 1.0e3;
      ++summary_.statePerturbs;
      telemetry::count(telemetry::Counter::CycleStatePerturbs);
      break;
    }
    default:
      break;  // other kinds have no cycle.step semantics
  }
}

double CycleSolver::step() {
  telemetry::ScopedSpan span(telemetry::Phase::CycleStep);
  if (config_.heartbeat != nullptr)
    config_.heartbeat->beat(config_.rank, summary_.steps);
  consultFaultSite();

  const std::size_t n = tau_.size();
  derivatives(tau_, theta_, v_, tauRate_, thetaRate_);
  const double dt = pickDt(v_, theta_, thetaRate_, tauRate_);

  // Midpoint rule on (τ, θ); slip advances at the midpoint rate, which is
  // also the rate event detection sees.
  for (std::size_t i = 0; i < n; ++i) {
    tauHalf_[i] = tau_[i] + 0.5 * dt * tauRate_[i];
    thetaHalf_[i] =
        std::max(theta_[i] + 0.5 * dt * thetaRate_[i], kThetaFloor);
  }
  derivatives(tauHalf_, thetaHalf_, vHalf_, tauRate2_, thetaRate2_);
  double peak = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    tau_[i] += dt * tauRate2_[i];
    theta_[i] = std::max(theta_[i] + dt * thetaRate2_[i], kThetaFloor);
    slip_[i] += dt * vHalf_[i];
    v_[i] = vHalf_[i];
    if (vHalf_[i] > peak) peak = vHalf_[i];
  }
  time_ += dt;
  peakRateNow_ = peak;
  summary_.peakSlipRate = std::max(summary_.peakSlipRate, peak);
  ++summary_.steps;
  summary_.simulatedSeconds = time_;
  telemetry::count(telemetry::Counter::CycleSteps);

  detectEvents();
  return dt;
}

void CycleSolver::detectEvents() {
  const std::size_t n = v_.size();
  if (!windowOpen_ && peakRateNow_ > config_.eventRate) {
    windowOpen_ = true;
    windowPeak_ = peakRateNow_;
    std::size_t nuc = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (v_[i] > v_[nuc]) nuc = i;
    pending_ = CycleEvent{};
    pending_.index = static_cast<int>(events_.size());
    pending_.onsetSeconds = time_;
    pending_.nucI = nuc % config_.nx;
    pending_.nucK = nuc / config_.nx;
    pending_.nx = config_.nx;
    pending_.nz = config_.nz;
    pending_.cell = config_.cell;
    pending_.tau = tau_;
    pending_.theta = theta_;
    pending_.sigmaN.resize(n);
    for (std::size_t i = 0; i < n; ++i) pending_.sigmaN[i] = -sigma_[i];
    slipAtOpen_ = slip_;
    telemetry::count(telemetry::Counter::CycleEventsDetected);
    return;
  }
  if (windowOpen_) {
    windowPeak_ = std::max(windowPeak_, peakRateNow_);
    if (peakRateNow_ < config_.lockRate) {
      windowOpen_ = false;
      pending_.durationSeconds = time_ - pending_.onsetSeconds;
      pending_.peakSlipRate = windowPeak_;
      double moment = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        moment += slip_[i] - slipAtOpen_[i];
      moment *= config_.mu * config_.cell * config_.cell;
      pending_.momentNm = moment;
      pending_.magnitude =
          moment > 0.0 ? (std::log10(moment) - 9.05) / 1.5 : 0.0;
      pending_.tauCloseNuc =
          tau_[pending_.nucI + config_.nx * pending_.nucK];
      pending_.digest = pending_.computeDigest();
      events_.push_back(pending_);
      summary_.eventsDetected = static_cast<int>(events_.size());
    }
  }
}

CycleRunSummary CycleSolver::run() {
  const double span = config_.years * kSecondsPerYear;
  while (summary_.steps < config_.stepCap) {
    const bool spanDone = time_ >= span;
    const bool capDone =
        config_.maxEvents > 0 &&
        static_cast<int>(events_.size()) >= config_.maxEvents;
    // Finish an in-flight event before stopping so the catalog never
    // carries a half-detected nucleation.
    if ((spanDone || capDone) && !windowOpen_) break;
    step();
  }
  return summary_;
}

}  // namespace awp::cycle
