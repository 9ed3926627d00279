#include "scenarios.hpp"

#include <algorithm>

#include "mesh/generator.hpp"
#include "mesh/partitioner.hpp"
#include "sched/spec.hpp"
#include "util/timer.hpp"
#include "vcluster/cluster.hpp"

namespace awp::bench {

source::FaultTrace MiniDomain::trace(double marginFraction,
                                     double bend) const {
  const double x0 = marginFraction * lx();
  const double x1 = (1.0 - marginFraction) * lx();
  if (bend <= 0.0) return source::FaultTrace::straight(x0, x1, faultY());
  return source::FaultTrace::bent(x0, faultY(), x1, faultY(), 12, bend);
}

double estimateDt(const MiniDomain& domain) {
  // CFL with the fastest background material.
  const auto m = domain.cvm().sample(0.0, 0.0, domain.dims.nz * domain.h);
  const double vp = m.vp;
  return 0.45 * domain.h / vp;
}

ScenarioResult runWaveScenario(const MiniDomain& domain,
                               std::vector<core::MomentRateSource> sources,
                               std::size_t steps, int nranks,
                               const core::KernelOptions& kernels,
                               bool attenuation,
                               const std::vector<vmodel::Site>& extraSites) {
  ScenarioResult result;
  result.gridPoints = domain.dims.count();
  const auto cvm = domain.cvm();
  Stopwatch wall;

  vcluster::ThreadCluster::run(nranks, [&](vcluster::Communicator& comm) {
    const auto dims = vcluster::CartTopology::balancedDims(
        nranks, domain.dims.nx, domain.dims.ny, domain.dims.nz);
    vcluster::CartTopology topo(dims);

    // Sample this rank's mesh block directly from the CVM.
    const mesh::MeshSpec spec{domain.dims.nx, domain.dims.ny,
                              domain.dims.nz, domain.h, 0.0, 0.0};
    const mesh::MeshBlock block = mesh::sampleBlock(
        cvm, spec, mesh::subdomainFor(topo, spec, comm.rank()));

    core::SolverConfig config;
    config.globalDims = domain.dims;
    config.h = domain.h;
    config.kernels = kernels;
    config.attenuation.enabled = attenuation;
    config.attenuation.fMax = 0.5 / estimateDt(domain) / 10.0;
    config.absorbing = core::AbsorbingType::Sponge;
    config.spongeWidth = 10;

    core::WaveSolver solver(comm, topo, config, block);
    for (auto& s : sources) solver.addSource(s);
    for (const auto& site : cvm.sites())
      solver.addReceiver(site.name,
                         static_cast<std::size_t>(site.x / domain.h),
                         static_cast<std::size_t>(site.y / domain.h));
    for (const auto& site : extraSites)
      solver.addReceiver(site.name,
                         static_cast<std::size_t>(site.x / domain.h),
                         static_cast<std::size_t>(site.y / domain.h));
    solver.run(steps);

    auto pgvh = solver.surface().gatherPgvh(comm);
    auto pgv = solver.surface().gatherPgv(comm);
    auto traces = solver.receivers().gather(comm);
    if (comm.rank() == 0) {
      result.pgvh = std::move(pgvh);
      result.pgv = std::move(pgv);
      result.traces = std::move(traces);
      result.dt = solver.config().dt;
      result.steps = solver.currentStep();
    }
  });
  result.wallSeconds = wall.seconds();
  return result;
}

std::vector<core::MomentRateSource> miniKinematicSource(
    const MiniDomain& domain, double mw, double faultLengthFraction,
    bool reverseDirection, double dt, double traceMargin) {
  source::KinematicScenario sc;
  const auto trace = domain.trace(traceMargin);
  sc.faultLength = faultLengthFraction * trace.length();
  sc.faultDepth = std::min(16e3, 0.6 * domain.dims.nz * domain.h);
  sc.targetMw = mw;
  sc.reverseDirection = reverseDirection;
  sc.riseTime = 3.0;
  source::WaveModelTarget target;
  target.dims = domain.dims;
  target.h = domain.h;
  target.dt = dt;
  return source::kinematicSource(sc, trace, target);
}

rupture::FaultHistory runMiniRupture(double lengthKm, double depthKm,
                                     double hRupture, std::uint64_t seed,
                                     std::size_t steps, int nranks,
                                     double nucAlongStrikeFraction) {
  // The scenario service's mapping: fault plus absorbing margins on every
  // side, dc scaled with h, the seeded stress model.
  sched::ScenarioSpec spec;
  spec.kind = sched::ScenarioKind::Rupture;
  spec.h = hRupture;
  spec.lengthKm = lengthKm;
  spec.depthKm = depthKm;
  spec.seed = seed;
  spec.nucFraction = nucAlongStrikeFraction;
  const rupture::RuptureConfig config = spec.ruptureConfig();

  rupture::FaultHistory out;
  vcluster::ThreadCluster::run(nranks, [&](vcluster::Communicator& comm) {
    const auto dims = vcluster::CartTopology::balancedDims(
        nranks, config.globalDims.nx, config.globalDims.ny,
        config.globalDims.nz);
    vcluster::CartTopology topo(dims);
    const auto model = vmodel::LayeredModel::socalBackground();
    rupture::DynamicRuptureSolver solver(comm, topo, config, model);
    solver.run(steps);
    auto h = solver.gather();
    if (comm.rank() == 0) out = std::move(h);
  });
  return out;
}

}  // namespace awp::bench
