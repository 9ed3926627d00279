// Fig 12 — breakdown of execution time into computing, communication,
// synchronization and I/O for the M8 settings on Jaguar, v6.0 (left
// panel: no cache blocking, no reduced communication) vs v7.2 (right),
// between 65,610 and 223,074 cores. The paper's observations to
// reproduce: I/O is 0.6–2% of total; v7.2 shows lower comm+sync AND lower
// compute (cache blocking); compute drops super-linearly as the per-core
// working set falls into cache.
//
// A measured mini-run (real solver, 8 virtual ranks) validates that the
// instrumented phase fractions behave like the model's.

#include <iostream>

#include "core/solver.hpp"
#include "perfmodel/machine.hpp"
#include "perfmodel/model.hpp"
#include "telemetry/report.hpp"
#include "util/table.hpp"
#include "vcluster/cluster.hpp"

using namespace awp;
using namespace awp::perfmodel;

int main() {
  std::cout << "=== Fig 12: execution-time breakdown, M8 on Jaguar ===\n\n";
  ScalingModel model(machineByName("Jaguar"), m8Problem());

  for (CodeVersion v : {CodeVersion::V6_0, CodeVersion::V7_2}) {
    auto traits = traitsOf(v);
    if (v == CodeVersion::V6_0) {
      // Fig 12's v6.0 panel: async comm already in, no cache blocking or
      // reduced communication.
      traits.cacheBlocking = false;
      traits.reducedComm = false;
    }
    std::cout << "Version " << traits.label << ":\n";
    TextTable table({"Cores", "Tcomp (s)", "Tcomm (s)", "Tsync (s)",
                     "I/O (s)", "Total (s)", "I/O share"});
    for (int cores : {65610, 87480, 109350, 131220, 223074}) {
      const auto dims = vcluster::CartTopology::balancedDims(
          cores, 20250, 10125, 2125);
      const auto t = model.perStep(traits, dims);
      table.addRow({std::to_string(cores), TextTable::num(t.comp, 4),
                    TextTable::num(t.comm, 5), TextTable::num(t.sync, 5),
                    TextTable::num(t.output, 5),
                    TextTable::num(t.total(), 4),
                    TextTable::pct(t.output / t.total(), 2)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // Measured phase fractions from a real mini-run on 8 virtual ranks: the
  // telemetry report's spans, folded into the Eq. (7) buckets.
  std::cout << "Measured mini-run (real solver, 64x32x32, 8 ranks):\n";
  telemetry::Session session(telemetry::SessionConfig{/*nranks=*/8});
  telemetry::ClusterReport report;
  {
    telemetry::ScopedSession installed(session);
    vcluster::ThreadCluster::run(8, [&](vcluster::Communicator& comm) {
      vcluster::CartTopology topo(vcluster::Dims3{2, 2, 2});
      core::SolverConfig config;
      config.globalDims = {64, 32, 32};
      config.h = 200.0;
      core::WaveSolver solver(comm, topo, config,
                              vmodel::Material{5000.0f, 2900.0f, 2700.0f});
      solver.addSource(core::explosionPointSource(
          32, 16, 16,
          core::rickerWavelet(4.0, 0.4, solver.config().dt, 60, 1e15)));
      solver.run(60);
      if (comm.rank() == 0) report = solver.lastTelemetryReport();
    });
  }
  const auto buckets = telemetry::eq7Breakdown(report);
  double total = 0.0;
  for (double s : buckets) total += s;
  TextTable measured({"Phase", "Seconds", "Share"});
  for (auto b : {telemetry::Eq7Bucket::Compute, telemetry::Eq7Bucket::Comm,
                 telemetry::Eq7Bucket::Sync, telemetry::Eq7Bucket::Output}) {
    const auto i = static_cast<std::size_t>(b);
    measured.addRow({std::string(telemetry::kEq7BucketNames[i]),
                     TextTable::num(buckets[i], 3),
                     TextTable::pct(buckets[i] / total, 1)});
  }
  measured.print(std::cout);
  std::cout << "\nPaper anchors: I/O between 0.6% and 2% of total; v7.2 "
               "reduces both Tcomp (cache blocking) and Tcomm+Tsync "
               "(reduced communication) relative to v6.0.\n";
  return 0;
}
