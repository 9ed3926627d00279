// Table 3 / §VI — F3DT: "an I/O intensive 3D waveform tomography to
// iteratively improve the CVM4 in southern California. Here, AWP-ODC is
// used to calculate sensitivity kernels accounting for the full physics
// of 3D wave propagation, generating updated velocity models with
// substantially better fit to data as compared to the starting models."
//
// Miniature: synthetic "observed" waveforms are generated in a true model
// (basin of depth D* = 3.5 km); candidate models sweep the basin depth;
// the full-physics forward solver evaluates each candidate's waveform
// misfit (the aVal L2 metric) against the observations. The updated model
// — the misfit minimizer — must recover the true depth and fit the data
// far better than the starting model.

#include <algorithm>
#include <iostream>

#include "analysis/aval.hpp"
#include "core/solver.hpp"
#include "mesh/partitioner.hpp"
#include "util/table.hpp"
#include "vmodel/cvm.hpp"
#include "vcluster/cluster.hpp"

using namespace awp;

namespace {

const grid::GridDims kDims{56, 48, 22};
constexpr double kH = 800.0;

std::vector<core::SeismogramTrace> forward(double basinDepth) {
  const vmodel::LayeredModel background(
      {{0.0, 2400.0}, {4000.0, 3000.0}, {16000.0, 3500.0}});
  std::vector<vmodel::Basin> basins = {
      {"target", 0.55 * kDims.nx * kH, 0.5 * kDims.ny * kH, 9e3, 8e3,
       basinDepth, 900.0}};
  const vmodel::CommunityVelocityModel cvm(background, std::move(basins),
                                           800.0);

  std::vector<core::SeismogramTrace> traces;
  vcluster::ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
    vcluster::CartTopology topo(vcluster::Dims3{2, 2, 1});
    const mesh::MeshSpec spec{kDims.nx, kDims.ny, kDims.nz, kH, 0, 0};
    const mesh::MeshBlock block = mesh::sampleBlock(
        cvm, spec, mesh::subdomainFor(topo, spec, comm.rank()));
    core::SolverConfig config;
    config.globalDims = kDims;
    config.h = kH;
    config.dt = 0.45 * kH / 7000.0;  // shared dt across all models
    core::WaveSolver real(comm, topo, config, block);  // full 3D model
    real.addSource(core::explosionPointSource(
        10, 24, kDims.nz - 10,
        core::rickerWavelet(0.5, 2.5, config.dt, 250, 1e16)));
    real.addReceiver("basin", 31, 24);
    real.addReceiver("edge", 40, 33);
    real.addReceiver("rock", 20, 10);
    real.run(250);
    auto gathered = real.receivers().gather(comm);
    if (comm.rank() == 0) traces = std::move(gathered);
  });
  return traces;
}

}  // namespace

int main() {
  std::cout << "=== F3DT miniature: waveform-fit velocity-model update "
               "===\n\n";
  const double trueDepth = 3500.0;
  std::cout << "generating 'observed' data in the true model (basin depth "
            << trueDepth << " m)...\n";
  const auto observed = forward(trueDepth);

  TextTable table({"Candidate basin depth (m)", "Waveform misfit (L2)"});
  double bestDepth = 0.0, bestMisfit = 1e18, startMisfit = 0.0;
  // The truth (3500 m) is deliberately off the search grid, as in a real
  // inversion where the update approximates the target structure.
  const std::vector<double> candidates = {1500.0, 2600.0, 3200.0, 3900.0,
                                          5000.0};
  for (double depth : candidates) {
    const auto synthetic = forward(depth);
    const auto result = analysis::acceptanceTest(synthetic, observed, 1e9);
    double misfit = 0.0;
    for (double m : result.perTraceMisfit) misfit += m;
    if (depth == candidates.front()) startMisfit = misfit;
    if (misfit < bestMisfit) {
      bestMisfit = misfit;
      bestDepth = depth;
    }
    table.addRow({TextTable::num(depth, 0), TextTable::num(misfit, 4)});
  }
  table.print(std::cout);

  std::cout << "\nUpdated model: basin depth " << bestDepth
            << " m (true: " << trueDepth << " m); misfit improved "
            << TextTable::num(startMisfit / std::max(1e-12, bestMisfit), 1)
            << "x over the starting model.\nPaper anchor: F3DT's "
               "full-physics kernels produce 'updated velocity models "
               "with substantial better fit to data as compared to the "
               "starting models'.\n";
  return std::abs(bestDepth - trueDepth) <= 700.0 ? 0 : 1;
}
