// ShakeOut-style scenario: a large strike-slip earthquake in a basin-
// bearing community velocity model, comparing a smooth kinematic source
// description with a physics-based spontaneous-rupture source (the
// TeraShake-K vs TeraShake-D / ShakeOut-K vs ShakeOut-D methodology of
// the paper's Section VI).
//
// Demonstrates:
//   * the synthetic community velocity model with sedimentary basins,
//   * dSrcG's two source paths (kinematic + from a DFR rupture),
//   * PGV map extraction and site seismograms,
//   * basin amplification relative to rock sites.

#include <cmath>
#include <iostream>

#include "analysis/aval.hpp"
#include "analysis/pgv.hpp"
#include "core/solver.hpp"
#include "mesh/partitioner.hpp"
#include "rupture/solver.hpp"
#include "source/dsrcg.hpp"
#include "util/table.hpp"
#include "vcluster/cluster.hpp"

using namespace awp;

namespace {

struct RunOutput {
  std::vector<float> pgvh;
  std::vector<core::SeismogramTrace> traces;
};

RunOutput runScenario(const grid::GridDims& dims, double h,
                      const vmodel::CommunityVelocityModel& cvm,
                      std::vector<core::MomentRateSource> sources,
                      std::size_t steps) {
  RunOutput out;
  vcluster::ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
    const auto pdims =
        vcluster::CartTopology::balancedDims(4, dims.nx, dims.ny, dims.nz);
    vcluster::CartTopology topo(pdims);

    // Sample this rank's material block from the CVM.
    const mesh::MeshSpec spec{dims.nx, dims.ny, dims.nz, h, 0.0, 0.0};
    const mesh::MeshBlock block = mesh::sampleBlock(
        cvm, spec, mesh::subdomainFor(topo, spec, comm.rank()));

    core::SolverConfig config;
    config.globalDims = dims;
    config.h = h;
    core::WaveSolver solver(comm, topo, config, block);
    for (auto& s : sources) solver.addSource(s);
    for (const auto& site : cvm.sites())
      solver.addReceiver(site.name,
                         static_cast<std::size_t>(site.x / h),
                         static_cast<std::size_t>(site.y / h));
    solver.run(steps);
    auto pgvh = solver.surface().gatherPgvh(comm);
    auto traces = solver.receivers().gather(comm);
    if (comm.rank() == 0) {
      out.pgvh = std::move(pgvh);
      out.traces = std::move(traces);
    }
  });
  return out;
}

}  // namespace

int main() {
  const grid::GridDims dims{112, 56, 22};
  const double h = 1500.0;
  const double lx = dims.nx * h, ly = dims.ny * h;
  const double faultY = 0.55 * ly;
  const auto cvm = vmodel::CommunityVelocityModel::socal(lx, ly, faultY);
  const auto trace =
      source::FaultTrace::straight(0.15 * lx, 0.85 * lx, faultY);
  const double dt = 0.45 * h / 6800.0;
  const std::size_t steps = 260;

  std::cout << "ShakeOut-style scenario: " << dims.nx << "x" << dims.ny
            << "x" << dims.nz << " cells at " << h << " m\n\n";

  // --- Kinematic source ------------------------------------------------------
  source::KinematicScenario sc;
  sc.faultLength = 0.5 * trace.length();
  sc.faultDepth = 14e3;
  sc.targetMw = 7.6;
  source::WaveModelTarget target{dims, h, dt};
  auto kinematic = source::kinematicSource(sc, trace, target);
  std::cout << "[1/3] kinematic run (" << kinematic.size()
            << " subfaults)...\n";
  const auto resK = runScenario(dims, h, cvm, kinematic, steps);

  // --- Dynamic source (two-step method) ---------------------------------------
  std::cout << "[2/3] spontaneous rupture (DFR)...\n";
  rupture::RuptureConfig rc;
  rc.globalDims = {120, 30, 36};
  rc.h = 600.0;
  rc.faultJ = 14;
  rc.fi0 = 12;
  rc.fi1 = 108;
  rc.fk1 = rc.globalDims.nz - 1;
  rc.fk0 = rc.fk1 - 22;
  rc.stress.nucX = 0.2 * (rc.fi1 - rc.fi0) * rc.h;
  rc.stress.nucZ = 8000.0;
  rc.stress.nucRadius = 2200.0;
  rc.stress.corrX = 10e3;
  rc.stress.corrZ = 4e3;
  rc.timeDecimation = 2;
  rc.slipRateThreshold = 0.01;

  rupture::FaultHistory fault;
  vcluster::ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    vcluster::CartTopology topo(vcluster::Dims3{2, 1, 1});
    rupture::DynamicRuptureSolver dfr(comm, topo, rc,
                                      vmodel::LayeredModel::socalBackground());
    dfr.run(420);
    auto gathered = dfr.gather();
    if (comm.rank() == 0) fault = std::move(gathered);
  });
  std::cout << "      rupture Mw = "
            << TextTable::num(fault.momentMagnitude(), 2)
            << ", average slip = "
            << TextTable::num(fault.averageSlip(), 2) << " m\n";

  source::FilterConfig filter;
  filter.cutoffHz = 0.4 / dt / 10.0;
  auto dynamic = source::fromRupture(fault, trace, target, filter);
  std::cout << "[3/3] dynamic-source run (" << dynamic.size()
            << " subfaults)...\n\n";
  const auto resD = runScenario(dims, h, cvm, dynamic, steps);

  // --- Compare ---------------------------------------------------------------
  TextTable table({"Site", "Kinematic PGVH (cm/s)", "Dynamic PGVH (cm/s)"});
  for (const auto& tK : resK.traces) {
    double dyn = 0.0;
    for (const auto& tD : resD.traces)
      if (tD.name == tK.name) dyn = analysis::tracePgv(tD, true);
    table.addRow({tK.name,
                  TextTable::num(analysis::tracePgv(tK, true) * 100.0, 1),
                  TextTable::num(dyn * 100.0, 1)});
  }
  table.print(std::cout);

  const auto peakK = analysis::mapPeak(resK.pgvh, dims.nx, dims.ny);
  const auto peakD = analysis::mapPeak(resD.pgvh, dims.nx, dims.ny);
  std::cout << "\nPeak PGVH: kinematic " << TextTable::num(peakK.value, 2)
            << " m/s, dynamic " << TextTable::num(peakD.value, 2)
            << " m/s.\nThe dynamic source's heterogeneous rupture "
               "produces a less coherent wavefield — the TeraShake-D "
               "result that motivated physics-based sources.\n";
  return 0;
}
