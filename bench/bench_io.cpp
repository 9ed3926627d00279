// §III.E / §IV.E — the I/O stack: output aggregation (49% -> <2%
// overhead), the concurrent-open throttle against MDS contention (20 GB/s
// at <=650 opens on Jaguar), striping policy, and the mesh partitioning
// models' real throughput at laptop scale.

#include <filesystem>
#include <iostream>
#include <unistd.h>

#include "core/solver.hpp"
#include "io/contention.hpp"
#include "mesh/generator.hpp"
#include "mesh/partitioner.hpp"
#include "telemetry/report.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "vcluster/cluster.hpp"

using namespace awp;

namespace {

// Run a solver with surface output at the given aggregation depth and
// return (wall seconds, output-phase seconds, flush count).
struct IoRun {
  double wall = 0.0;
  double outputSeconds = 0.0;
  double totalSeconds = 0.0;
};

IoRun runWithAggregation(const std::string& file, int flushEvery) {
  IoRun out;
  telemetry::Session session(telemetry::SessionConfig{/*nranks=*/4});
  telemetry::ScopedSession installed(session);
  Stopwatch wall;
  vcluster::ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
    vcluster::CartTopology topo(vcluster::Dims3{2, 2, 1});
    core::SolverConfig config;
    config.globalDims = {64, 64, 24};
    config.h = 500.0;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5000.0f, 2900.0f, 2700.0f});
    io::SharedFile shared(file, io::SharedFile::Mode::Write);
    core::SurfaceOutputConfig surf;
    surf.file = &shared;
    surf.sampleEverySteps = 1;  // heavy output to expose the overhead
    surf.spatialDecimation = 1;
    surf.flushEverySamples = flushEvery;
    solver.attachSurfaceOutput(surf);
    solver.addSource(core::explosionPointSource(
        32, 32, 12,
        core::rickerWavelet(2.0, 0.5, solver.config().dt, 100, 1e15)));
    solver.run(100);
    if (comm.rank() == 0) {
      // The output share from the telemetry report's Eq. (7) buckets.
      const auto buckets =
          telemetry::eq7Breakdown(solver.lastTelemetryReport());
      out.outputSeconds =
          buckets[static_cast<std::size_t>(telemetry::Eq7Bucket::Output)];
      for (double s : buckets) out.totalSeconds += s;
    }
  });
  out.wall = wall.seconds();
  return out;
}

}  // namespace

int main() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("awp_bench_io_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  std::cout << "=== I/O stack (Sections III.E, IV.E) ===\n\n";

  // --- Output aggregation ---------------------------------------------------
  std::cout << "Output aggregation (real runs, per-step surface dump):\n";
  TextTable agg({"Aggregation", "Output share of solver time",
                 "Output seconds"});
  const auto unbuffered = runWithAggregation((dir / "u.bin").string(), 1);
  const auto buffered = runWithAggregation((dir / "b.bin").string(), 50);
  agg.addRow({"flush every sample (pre-tuning)",
              TextTable::pct(unbuffered.outputSeconds /
                                 unbuffered.totalSeconds,
                             1),
              TextTable::num(unbuffered.outputSeconds, 3)});
  agg.addRow({"aggregate 50 samples (tuned)",
              TextTable::pct(buffered.outputSeconds / buffered.totalSeconds,
                             1),
              TextTable::num(buffered.outputSeconds, 3)});
  agg.print(std::cout);
  std::cout << "Paper anchor: aggregation reduced I/O overhead from 49% "
               "to <2% of wall clock (at petascale, where each flush "
               "costs far more than here).\n\n";

  // --- MDS contention / open throttle ---------------------------------------
  std::cout << "Concurrent-open throttle (Jaguar Lustre model):\n";
  TextTable cont({"Concurrent writers", "Aggregate GB/s"});
  const auto fs = io::FileSystemModel::jaguarLustre();
  for (int w : {10, 100, 650, 2000, 20000, 223074}) {
    cont.addRow({std::to_string(w),
                 TextTable::num(fs.aggregateBandwidth(w) / 1e9, 2)});
  }
  cont.print(std::cout);
  std::cout << "Best writer count within 223K clients: "
            << fs.bestWriterCount(223074)
            << " (paper limited synchronous opens to 650 of 670 OSTs and "
               "reached ~20 GB/s; unthrottled 100K+ opens collapsed on "
               "BG/P).\n\n";

  // --- Striping policy -------------------------------------------------------
  std::cout << "Striping policy (lfs setstripe classes, §IV.E):\n";
  TextTable stripes({"File class", "Stripe count", "Stripe size (MiB)"});
  for (auto [cls, name] :
       {std::pair{io::FileClass::LargeSharedInput, "large shared input"},
        {io::FileClass::PrePartitioned, "pre-partitioned/checkpoint"},
        {io::FileClass::SimulationOutput, "simulation output"}}) {
    const auto s = io::stripePolicy(cls, fs);
    stripes.addRow({name, std::to_string(s.stripeCount),
                    TextTable::num(s.stripeSizeBytes / 1048576.0, 0)});
  }
  stripes.print(std::cout);

  // --- Mesh partitioning models ----------------------------------------------
  std::cout << "\nPetaMeshP models (real 96x64x32 mesh, 8 ranks):\n";
  const mesh::MeshSpec spec{96, 64, 32, 500.0, 0.0, 0.0};
  const auto cvm =
      vmodel::CommunityVelocityModel::socal(48e3, 32e3, 18e3);
  const std::string meshPath = (dir / "mesh.bin").string();
  vcluster::ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
    mesh::generateMesh(comm, cvm, spec, meshPath);
  });

  vcluster::CartTopology topo(vcluster::Dims3{2, 2, 2});
  TextTable part({"Model", "Seconds", "MB moved"});
  const double meshMb =
      static_cast<double>(mesh::meshFileSize(spec)) / 1048576.0;
  {
    Stopwatch w;
    vcluster::ThreadCluster::run(8, [&](vcluster::Communicator& comm) {
      mesh::prePartitionMesh(comm, meshPath, topo, (dir / "pp").string());
      mesh::readPrePartitioned((dir / "pp").string(), comm.rank());
    });
    part.addRow({"pre-partitioned (serial I/O)", TextTable::num(w.seconds(), 3),
                 TextTable::num(2.0 * meshMb, 1)});
  }
  {
    Stopwatch w;
    vcluster::ThreadCluster::run(8, [&](vcluster::Communicator& comm) {
      mesh::readAndRedistribute(comm, meshPath, topo, 4, 2);
    });
    part.addRow({"read+redistribute (MPI-IO model)",
                 TextTable::num(w.seconds(), 3),
                 TextTable::num(meshMb, 1)});
  }
  {
    Stopwatch w;
    vcluster::ThreadCluster::run(8, [&](vcluster::Communicator& comm) {
      mesh::readDirect(meshPath, topo, comm.rank());
    });
    part.addRow({"direct strided reads", TextTable::num(w.seconds(), 3),
                 TextTable::num(meshMb, 1)});
  }
  part.print(std::cout);
  std::cout << "\nPaper anchor: the pre-partitioned path read M8's "
               "223,074 files in 4 minutes at 20 GB/s; the MPI-IO "
               "read+redistribute model is the contention-safe "
               "alternative.\n";

  std::filesystem::remove_all(dir);
  return 0;
}
