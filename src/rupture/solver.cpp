#include "rupture/solver.hpp"

#include <cmath>
#include <cstring>
#include <string>

#include "core/source.hpp"
#include "health/preflight.hpp"
#include "mesh/partitioner.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"

namespace awp::rupture {

namespace {

template <class T>
void put(std::vector<std::byte>& out, const T* p, std::size_t n = 1) {
  const auto* b = reinterpret_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n * sizeof(T));
}

// Bounds-checked read cursor over a serialized byte span.
struct Cursor {
  std::span<const std::byte> bytes;
  template <class T>
  void take(T& v) {
    AWP_CHECK_MSG(bytes.size() >= sizeof(T), "fault state truncated");
    std::memcpy(&v, bytes.data(), sizeof(T));
    bytes = bytes.subspan(sizeof(T));
  }
};

}  // namespace

double FaultHistory::seismicMoment() const {
  double m0 = 0.0;
  for (std::size_t n = 0; n < finalSlip.size(); ++n)
    m0 += static_cast<double>(rigidity[n]) * finalSlip[n] * h * h;
  return m0;
}

double FaultHistory::momentMagnitude() const {
  return core::momentMagnitude(seismicMoment());
}

double FaultHistory::averageSlip() const {
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < finalSlip.size(); ++i)
    if (ruptureTime[i] >= 0.0f) {
      s += finalSlip[i];
      ++n;
    }
  return n > 0 ? s / static_cast<double>(n) : 0.0;
}

double FaultHistory::superShearFraction(double vs) const {
  std::size_t super = 0, total = 0;
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t i = 1; i + 1 < nx; ++i) {
      const float t0 = ruptureTime[i - 1 + nx * k];
      const float t1 = ruptureTime[i + 1 + nx * k];
      if (t0 < 0.0f || t1 < 0.0f) continue;
      const double dtDx = std::abs(t1 - t0) / (2.0 * h);
      if (dtDx <= 0.0) continue;
      const double vr = 1.0 / dtDx;
      ++total;
      if (vr > vs) ++super;
    }
  return total > 0 ? static_cast<double>(super) / total : 0.0;
}

std::unique_ptr<core::WaveSolver> makeRuptureWaveSolver(
    vcluster::Communicator& comm, const vcluster::CartTopology& topo,
    const RuptureConfig& config, const vmodel::VelocityModel& model,
    core::SolverConfig base) {
  base.globalDims = config.globalDims;
  base.h = config.h;
  if (config.dt > 0.0) base.dt = config.dt;
  base.kernels = config.kernels;
  base.absorbing = core::AbsorbingType::Sponge;
  base.spongeWidth = config.spongeWidth;

  // Sample the velocity model into this rank's block (the rupture model
  // uses a 1D average structure along the SAF, §VII.A).
  const mesh::MeshSpec spec{config.globalDims.nx, config.globalDims.ny,
                            config.globalDims.nz, config.h, 0.0, 0.0};
  return std::make_unique<core::WaveSolver>(
      comm, topo, base,
      mesh::sampleBlock(model, spec,
                        mesh::subdomainFor(topo, spec, comm.rank())));
}

FaultCondition::FaultCondition(core::WaveSolver& solver,
                               const RuptureConfig& config)
    : solver_(solver), config_(config), friction_(config.friction) {
  AWP_CHECK(config_.fi1 > config_.fi0 && config_.fk1 > config_.fk0);
  AWP_CHECK(config_.fi1 <= config_.globalDims.nx &&
            config_.fk1 <= config_.globalDims.nz);
  AWP_CHECK_MSG(config_.faultJ + 2 < config_.globalDims.ny,
                "fault plane too close to the +y boundary");

  // Initial stress over the full fault extent (global), then bind the
  // locally owned nodes. The stress model grid covers [fi0, fi1) x
  // [fk0, fk1).
  FaultInitialStress stress;
  if (config_.stressOverride) {
    const auto& ov = *config_.stressOverride;
    if (ov.nx != config_.fi1 - config_.fi0 ||
        ov.nz != config_.fk1 - config_.fk0)
      throw Error("rupture: stress override is " + std::to_string(ov.nx) +
                  "x" + std::to_string(ov.nz) + ", fault extent wants " +
                  std::to_string(config_.fi1 - config_.fi0) + "x" +
                  std::to_string(config_.fk1 - config_.fk0));
    stress = ov;
  } else {
    stress = buildInitialStress(config_.fi1 - config_.fi0,
                                config_.fk1 - config_.fk0, config_.h,
                                config_.stress, friction_);
  }

  const core::DomainGeometry& geom = solver_.geometry();
  for (std::size_t gk = config_.fk0; gk < config_.fk1; ++gk)
    for (std::size_t gi = config_.fi0; gi < config_.fi1; ++gi) {
      std::size_t li, lj, lk;
      if (!geom.owns(gi, config_.faultJ, gk, li, lj, lk)) continue;
      LocalNode n;
      n.gi = gi;
      n.gk = gk;
      n.li = li;
      n.lj = lj;
      n.lk = lk;
      n.tau0 = static_cast<float>(
          stress.tauAt(gi - config_.fi0, gk - config_.fk0));
      n.sigmaN = static_cast<float>(
          stress.sigmaAt(gi - config_.fi0, gk - config_.fk0));
      n.depth = static_cast<float>(
          static_cast<double>(config_.globalDims.nz - 1 - gk) * config_.h);
      n.mu = solver_.grid().mu(li, lj, lk);
      nodes_.push_back(n);
    }

  // Collective input validation: friction parameters physical, initial
  // shear below static strength outside a bounded nucleation patch.
  health::RupturePreflightContext pf;
  pf.muS = config_.friction.muS;
  pf.muD = config_.friction.muD;
  pf.dc = config_.friction.dc;
  pf.dcSurface = config_.friction.dcSurface;
  pf.cohesion = config_.friction.cohesion;
  pf.nodes.reserve(nodes_.size());
  for (const LocalNode& n : nodes_)
    pf.nodes.push_back({n.gi, n.gk, n.tau0, n.sigmaN, n.depth});
  health::collectiveRupturePreflight(solver_.comm(), pf);  // throws when Fatal
}

void FaultCondition::afterVelocity(const grid::StaggeredGrid& g,
                                   std::size_t step) {
  telemetry::ScopedSpan span(telemetry::Phase::Rupture);
  const bool record =
      step % static_cast<std::size_t>(config_.timeDecimation) == 0;
  if (record) ++recordedSteps_;
  const float dt = static_cast<float>(g.dt());
  const float t = static_cast<float>(step) * dt;

  for (LocalNode& node : nodes_) {
    // Velocity discontinuity across the plane: the split-node slip rate.
    const float rateX =
        g.u(node.li, node.lj + 1, node.lk) - g.u(node.li, node.lj, node.lk);
    const float rateZ =
        g.w(node.li, node.lj + 1, node.lk) - g.w(node.li, node.lj, node.lk);
    const float rate = std::sqrt(rateX * rateX + rateZ * rateZ);
    node.slipPath += rate * dt;
    node.peakRate = std::max(node.peakRate, rate);
    if (node.ruptureTime < 0.0f &&
        rate > static_cast<float>(config_.slipRateThreshold))
      node.ruptureTime = t;
    if (record) {
      historyX_.push_back(rateX);
      historyZ_.push_back(rateZ);
    }
  }
}

void FaultCondition::afterStress(grid::StaggeredGrid& g) {
  telemetry::ScopedSpan span(telemetry::Phase::Rupture);
  for (LocalNode& node : nodes_) {
    const float txTotal = node.tau0 + g.xy(node.li, node.lj, node.lk);
    const float tzTotal = g.yz(node.li, node.lj, node.lk);
    const float mag = std::sqrt(txTotal * txTotal + tzTotal * tzTotal);
    const float strength = static_cast<float>(
        friction_.strength(node.slipPath, node.depth, node.sigmaN));
    if (mag > strength && mag > 0.0f) {
      const float scale = strength / mag;
      g.xy(node.li, node.lj, node.lk) = txTotal * scale - node.tau0;
      g.yz(node.li, node.lj, node.lk) = tzTotal * scale;
    }
  }
}

void FaultCondition::saveState(std::vector<std::byte>& blob) const {
  // [recorded steps][slip path, peak rate, rupture time per node]
  // [x history][z history], histories time-major across nodes.
  const std::uint64_t recorded = recordedSteps_;
  put(blob, &recorded);
  for (const LocalNode& node : nodes_) {
    put(blob, &node.slipPath);
    put(blob, &node.peakRate);
    put(blob, &node.ruptureTime);
  }
  put(blob, historyX_.data(), historyX_.size());
  put(blob, historyZ_.data(), historyZ_.size());
}

void FaultCondition::restoreState(std::span<const std::byte> state) {
  Cursor in{state};
  std::uint64_t recorded = 0;
  in.take(recorded);
  const std::size_t histLen = recorded * nodes_.size();
  AWP_CHECK_MSG(in.bytes.size() ==
                    (3 * nodes_.size() + 2 * histLen) * sizeof(float),
                "fault checkpoint state size mismatch");
  for (LocalNode& node : nodes_) {
    in.take(node.slipPath);
    in.take(node.peakRate);
    in.take(node.ruptureTime);
  }
  recordedSteps_ = recorded;
  for (std::vector<float>* history : {&historyX_, &historyZ_}) {
    history->resize(histLen);
    for (float& v : *history) in.take(v);
  }
}

FaultHistory FaultCondition::gather() {
  // Each rank ships its nodes' coordinates and rigidities, then its
  // checkpoint state (the layout restoreState reads).
  std::vector<std::byte> payload;
  const std::uint64_t count = nodes_.size();
  put(payload, &count);
  for (const LocalNode& node : nodes_) {
    const std::uint64_t gi = node.gi, gk = node.gk;
    put(payload, &gi);
    put(payload, &gk);
    put(payload, &node.mu);
  }
  saveState(payload);

  vcluster::Communicator& comm = solver_.comm();
  const auto gathered = comm.gatherBytes(0, payload);
  FaultHistory out;
  if (comm.rank() != 0) return out;

  out.nx = config_.fi1 - config_.fi0;
  out.nz = config_.fk1 - config_.fk0;
  out.h = config_.h;
  out.dt = solver_.dt();
  out.timeDecimation = config_.timeDecimation;
  // Every rank records the same steps.
  const std::size_t steps = out.recordedSteps = recordedSteps_;
  const std::size_t nNodes = out.nx * out.nz;
  out.finalSlip.assign(nNodes, 0.0f);
  out.peakSlipRate.assign(nNodes, 0.0f);
  out.ruptureTime.assign(nNodes, -1.0f);
  out.rigidity.assign(nNodes, 0.0f);
  out.slipRateX.assign(nNodes * steps, 0.0f);
  out.slipRateZ.assign(nNodes * steps, 0.0f);

  for (const auto& blob : gathered) {
    Cursor in{blob};
    std::uint64_t n = 0, recorded = 0;
    in.take(n);
    std::vector<std::size_t> idx(n);
    for (std::size_t& i : idx) {
      std::uint64_t gi = 0, gk = 0;
      in.take(gi);
      in.take(gk);
      i = (gi - config_.fi0) + out.nx * (gk - config_.fk0);
      in.take(out.rigidity[i]);
    }
    in.take(recorded);
    AWP_CHECK(recorded == steps);
    for (std::size_t i : idx) {
      in.take(out.finalSlip[i]);
      in.take(out.peakSlipRate[i]);
      in.take(out.ruptureTime[i]);
    }
    for (std::vector<float>* series : {&out.slipRateX, &out.slipRateZ})
      for (std::size_t t = 0; t < steps; ++t)
        for (std::size_t i : idx) in.take((*series)[i * steps + t]);
  }
  return out;
}

DynamicRuptureSolver::DynamicRuptureSolver(vcluster::Communicator& comm,
                                           const vcluster::CartTopology& topo,
                                           const RuptureConfig& config,
                                           const vmodel::VelocityModel& model) {
  core::SolverConfig base;
  // A standalone run owns no telemetry report: spans and counters only.
  base.telemetry.emitAggregates = false;
  wave_ = makeRuptureWaveSolver(comm, topo, config, model, base);
  fault_ = std::make_unique<FaultCondition>(*wave_, config);
  wave_->attachFault(fault_.get());
}

}  // namespace awp::rupture
