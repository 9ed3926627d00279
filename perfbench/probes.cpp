// Per-layer probes: fixed-size calls into one layer's public functions,
// timed from outside. They run in every traced run, whatever the workload,
// so each layer number has one meaning everywhere.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/solver.hpp"
#include "core/source.hpp"
#include "cycle/bridge.hpp"
#include "cycle/kernel.hpp"
#include "cycle/solver.hpp"
#include "grid/halo.hpp"
#include "io/checkpoint.hpp"
#include "mesh/generator.hpp"
#include "mesh/partitioner.hpp"
#include "reference.hpp"
#include "rupture/solver.hpp"
#include "vcluster/cart.hpp"
#include "vcluster/cluster.hpp"
#include "vmodel/cvm.hpp"
#include "workload_defs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace awp;

constexpr double kH = 600.0;  // wave_large grid spacing [m]

// Last-level cache of the reference host (105 MiB L3); triad arrays are
// four times that, each.
constexpr std::size_t kLlcBytes = std::size_t{105} << 20;
constexpr std::size_t kTriadArrayBytes = 4 * kLlcBytes;

// Bytes each kernel sweep moves per interior point, computed from the
// arrays it touches (4-byte floats, each array once per sweep, a
// read-modify-write counted twice, halo and cache misses ignored).
//   velocity: 3 sweeps x (component rw 2 + 3 stresses + rho) = 18 accesses
//   stress:   normal (3 velocities + lam + mu + 3 rw) = 11 accesses,
//             3 shear sweeps x (2 velocities + 1/mu + rw 2) = 15 accesses
constexpr double kVelocityBytesPerPoint = 18 * 4.0;
constexpr double kStressBytesPerPoint = 26 * 4.0;

mesh::MeshSpec waveLargeMesh() {
  return mesh::MeshSpec{kWaveLargeDims.nx, kWaveLargeDims.ny,
                        kWaveLargeDims.nz, kH, 0.0, 0.0};
}

vmodel::CommunityVelocityModel waveLargeModel() {
  const double lx = static_cast<double>(kWaveLargeDims.nx) * kH;
  const double ly = static_cast<double>(kWaveLargeDims.ny) * kH;
  return vmodel::CommunityVelocityModel::socal(lx, ly, 0.55 * ly);
}

mesh::MeshBlock sampleBlock(const vmodel::VelocityModel& model,
                            const mesh::SubdomainSpec& sub) {
  mesh::MeshBlock block;
  block.spec = sub;
  block.points.resize(sub.pointCount());
  for (std::size_t k = 0; k < sub.z.count(); ++k)
    for (std::size_t j = 0; j < sub.y.count(); ++j)
      for (std::size_t i = 0; i < sub.x.count(); ++i)
        block.at(i, j, k) = model.sample(
            static_cast<double>(sub.x.begin + i) * kH,
            static_cast<double>(sub.y.begin + j) * kH,
            static_cast<double>(sub.z.begin + k) * kH);
  return block;
}

grid::GridDims dimsOf(const mesh::SubdomainSpec& sub) {
  return grid::GridDims{sub.x.count(), sub.y.count(), sub.z.count()};
}

std::unique_ptr<grid::StaggeredGrid> makeGrid(const mesh::MeshBlock& block) {
  auto g = std::make_unique<grid::StaggeredGrid>(dimsOf(block.spec), kH, 1e-3);
  g->setMaterial(block);
  g->setDt(g->stableDt());
  return g;
}

// Median seconds per call of `fn`, over `batches` batches sized to about
// `batchSeconds` each.
template <typename Fn>
double secondsPerCall(Fn&& fn, int batches, double batchSeconds) {
  Clock::time_point t0 = Clock::now();
  fn();  // warm-up, also sizes the batches
  const double one = std::max(secondsSince(t0), 1e-7);
  const int reps = std::max(1, static_cast<int>(batchSeconds / one));
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    t0 = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    samples.push_back(secondsSince(t0) / reps);
  }
  return median(samples);
}

// --- mem: STREAM-style triad ---------------------------------------------------

double probeTriadGbs(Tracer& tracer) {
  Tracer::Scope span(tracer, "probe.mem.triad");
  const std::size_t n = kTriadArrayBytes / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double scalar = 3.0;
  std::vector<double> gbs;
  for (int pass = 0; pass < 5; ++pass) {
    const Clock::time_point t0 = Clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
    const double s = secondsSince(t0);
    gbs.push_back(3.0 * static_cast<double>(n * sizeof(double)) / s / 1e9);
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("triad produced a wrong value");
  return median(gbs);
}

// --- core: FD kernels ----------------------------------------------------------

struct KernelTimes {
  double velocityNs = 0.0;  // per interior point
  double stressNs = 0.0;
};

KernelTimes timeKernels(grid::StaggeredGrid& g, int batches,
                        const core::KernelOptions& opts) {
  const double points = static_cast<double>(g.dims().count());
  KernelTimes t;
  t.velocityNs =
      secondsPerCall([&] { core::updateVelocity(g, opts); }, batches, 0.04) *
      1e9 / points;
  t.stressNs =
      secondsPerCall([&] { core::updateStress(g, opts); }, batches, 0.04) *
      1e9 / points;
  return t;
}

// One whole single-rank WaveSolver step on the full wave_large grid — the
// plain baseline the kernel numbers are compared against.
double singleRankStepNs(const mesh::MeshBlock& full) {
  double ns = 0.0;
  vcluster::ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    const vcluster::CartTopology topo(vcluster::Dims3{1, 1, 1});
    core::SolverConfig config;
    config.globalDims = kWaveLargeDims;
    config.h = kH;
    config.absorbing = core::AbsorbingType::Sponge;
    config.spongeWidth = 4;
    config.health.enabled = true;
    config.health.monitor.everySteps = 5;
    config.telemetry.emitAggregates = false;
    core::WaveSolver solver(comm, topo, config, full);
    const double dt = solver.dt();
    const double f0 = 1.0 / (20.0 * dt);
    const std::size_t steps = 12;
    solver.addSource(core::explosionPointSource(
        kWaveLargeDims.nx / 2, kWaveLargeDims.ny / 2, kWaveLargeDims.nz / 2,
        core::rickerWavelet(f0, 1.5 / f0, dt, steps, 1.0e15)));
    solver.run(2);  // warm-up (preflight, first touches)
    const Clock::time_point t0 = Clock::now();
    solver.run(steps - 2);
    ns = secondsSince(t0) * 1e9 /
         (static_cast<double>(steps - 2) *
          static_cast<double>(kWaveLargeDims.count()));
  });
  return ns;
}

// --- grid: halo exchange on the wave_large decomposition -----------------------

struct HaloResult {
  double pairUs = 0.0;
  double bytesPerStep = 0.0;
  double messagesPerStep = 0.0;
};

HaloResult probeHalo() {
  HaloResult out;
  const int reps = 40;
  const auto dims = vcluster::CartTopology::balancedDims(
      kWaveLargeRanks, kWaveLargeDims.nx, kWaveLargeDims.ny, kWaveLargeDims.nz);
  vcluster::ThreadCluster::run(kWaveLargeRanks, [&](vcluster::Communicator& comm) {
    const vcluster::CartTopology topo(dims);
    const mesh::SubdomainSpec sub =
        mesh::subdomainFor(topo, waveLargeMesh(), comm.rank());
    grid::StaggeredGrid g(dimsOf(sub), kH, 1e-3);
    grid::HaloExchanger ex(comm, topo, grid::HaloExchanger::Mode::Asynchronous,
                           /*reduced=*/true);
    for (int i = 0; i < 3; ++i) {
      ex.exchangeVelocities(g);
      ex.exchangeStresses(g);
    }
    ex.resetStats();
    comm.barrier();
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      ex.exchangeVelocities(g);
      ex.exchangeStresses(g);
    }
    const double seconds = comm.allreduce(secondsSince(t0), vcluster::ReduceOp::Max);
    const auto bytes = comm.allreduce(
        static_cast<std::int64_t>(ex.stats().bytes), vcluster::ReduceOp::Sum);
    const auto messages = comm.allreduce(
        static_cast<std::int64_t>(ex.stats().messages), vcluster::ReduceOp::Sum);
    if (comm.rank() == 0) {
      out.pairUs = seconds * 1e6 / reps;
      out.bytesPerStep = static_cast<double>(bytes) / reps;
      out.messagesPerStep = static_cast<double>(messages) / reps;
    }
  });
  return out;
}

}  // namespace

void runProbes(const RunOptions& options, Tracer& tracer, Outcome& outcome,
               Metrics& metrics) {
  Tracer::Scope probes(tracer, "bench.probes");
  const fs::path dir = fs::path(options.workDir) / "probes";
  fs::create_directories(dir);

  // mem
  const double triadGbs = probeTriadGbs(tracer);

  // core: one wave_large rank subdomain, then the whole grid on one rank.
  const auto model = waveLargeModel();
  const vcluster::CartTopology topo(vcluster::CartTopology::balancedDims(
      kWaveLargeRanks, kWaveLargeDims.nx, kWaveLargeDims.ny, kWaveLargeDims.nz));
  const mesh::MeshBlock rankBlock =
      sampleBlock(model, mesh::subdomainFor(topo, waveLargeMesh(), 0));
  auto rankGrid = makeGrid(rankBlock);
  const core::KernelOptions solverOpts;  // the WaveSolver default
  core::KernelOptions blockedOpts;        // the 16/8 blocking of §IV.B
  blockedOpts.cacheBlocked = true;
  KernelTimes sub, blocked;
  {
    Tracer::Scope span(tracer, "probe.core.rank_subdomain", probes.id());
    sub = timeKernels(*rankGrid, 7, solverOpts);
    blocked = timeKernels(*rankGrid, 5, blockedOpts);
  }
  mesh::SubdomainSpec whole;
  whole.x = {0, kWaveLargeDims.nx};
  whole.y = {0, kWaveLargeDims.ny};
  whole.z = {0, kWaveLargeDims.nz};
  const mesh::MeshBlock fullBlock = sampleBlock(model, whole);
  KernelTimes full;
  double stepNs = 0.0;
  {
    Tracer::Scope span(tracer, "probe.core.single_rank", probes.id());
    auto fullGrid = makeGrid(fullBlock);
    full = timeKernels(*fullGrid, 3, solverOpts);
    fullGrid.reset();
    stepNs = singleRankStepNs(fullBlock);
  }
  const double kernelNs = sub.velocityNs + sub.stressNs;
  const double flops = core::flopsPerPointPerStep(false);
  const double bytes = kVelocityBytesPerPoint + kStressBytesPerPoint;
  const double boundNs = bytes / triadGbs;  // GB/s == bytes/ns

  // grid
  HaloResult halo;
  {
    Tracer::Scope span(tracer, "probe.grid.halo", probes.id());
    halo = probeHalo();
  }

  // io: CheckpointStore::write of one rank's state, fsync included.
  std::vector<double> ckptSeconds;
  const std::vector<std::byte> state = rankGrid->saveState();
  {
    Tracer::Scope span(tracer, "probe.io.checkpoint", probes.id());
    io::CheckpointStore store((dir / "ckpt").string());
    fs::create_directories(dir / "ckpt");
    for (std::uint64_t step = 1; step <= 3; ++step) {
      const Clock::time_point t0 = Clock::now();
      store.write(0, step, state);
      ckptSeconds.push_back(secondsSince(t0));
    }
    outcome.check(store.read(0).step == 3, "io: checkpoint reads back");
  }
  const double ckptS = median(ckptSeconds);

  // mesh
  double meshSeconds = 0.0;
  {
    Tracer::Scope span(tracer, "probe.mesh.generateMeshSerial", probes.id());
    const Clock::time_point t0 = Clock::now();
    mesh::generateMeshSerial(model, waveLargeMesh(), (dir / "mesh.bin").string());
    meshSeconds = secondsSince(t0);
  }

  // cycle: stiffness kernel on the cycle_catalog fault, then the sequence.
  const cycle::CycleConfig cc = catalogCycleConfig();
  double nodeUpdatesPerS = 0.0;
  {
    Tracer::Scope span(tracer, "probe.cycle.stressingRate", probes.id());
    cycle::StiffnessKernel kernel({cc.nx, cc.nz, cc.cell, cc.mu,
                                   cc.loadingFactor, cc.interaction,
                                   cc.stencilRadius});
    std::vector<double> v(cc.nx * cc.nz), rate(cc.nx * cc.nz);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = cc.vpl * (1.0 + 0.1 * static_cast<double>(i % 7));
    const double s = secondsPerCall(
        [&] { kernel.stressingRate(v, cc.vpl, rate); }, 5, 0.06);
    nodeUpdatesPerS = static_cast<double>(v.size()) / s;
  }
  cycle::CycleSolver solver(cc);
  cycle::CycleRunSummary summary;
  double sequenceSeconds = 0.0;
  {
    Tracer::Scope span(tracer, "probe.cycle.run", probes.id());
    const Clock::time_point t0 = Clock::now();
    summary = solver.run();
    sequenceSeconds = secondsSince(t0);
  }
  // The probe runs the cycle_catalog sequence, so its events must be the
  // stored ones, bit for bit (the sequence is pure double arithmetic).
  constexpr std::size_t kEvents = std::size(reference::kEventDigests);
  const bool allEvents = summary.eventsDetected == kEvents &&
                         solver.events().size() == kEvents;
  outcome.check(allEvents, "cycle: the sequence detects " +
                               std::to_string(kEvents) + " events");
  for (std::size_t i = 0; allEvents && i < kEvents; ++i)
    outcome.check(solver.events()[i].digest == reference::kEventDigests[i],
                  "cycle: event " + std::to_string(i) +
                      " digest matches the stored reference");

  // rupture: one bridged event scenario run directly on the solver.
  std::vector<double> runMs, ruptureNs;
  if (!solver.events().empty()) {
    const sched::ScenarioSpec spec =
        cycle::eventSpec(solver.events().front(), catalogBridgeConfig());
    const rupture::RuptureConfig rc = ruptureConfigFor(spec);
    const double cellSteps =
        static_cast<double>(rc.globalDims.count() * spec.steps);
    for (int rep = 0; rep < 3; ++rep) {
      Tracer::Scope span(tracer, "probe.rupture.run", probes.id());
      double stepSeconds = 0.0;
      const Clock::time_point t0 = Clock::now();
      vcluster::ThreadCluster::run(spec.nranks, [&](vcluster::Communicator& comm) {
        const vcluster::CartTopology rtopo(vcluster::CartTopology::balancedDims(
            spec.nranks, rc.globalDims.nx, rc.globalDims.ny, rc.globalDims.nz));
        const auto background = vmodel::LayeredModel::socalBackground();
        rupture::DynamicRuptureSolver rs(comm, rtopo, rc, background);
        const Clock::time_point s0 = Clock::now();
        rs.run(spec.steps);
        const double s = comm.allreduce(secondsSince(s0), vcluster::ReduceOp::Max);
        const rupture::FaultHistory history = rs.gather();
        if (comm.rank() == 0) {
          stepSeconds = s;
          // Also guards ruptureConfigFor against drifting from the
          // configuration the scenario service derives.
          outcome.check(
              history.nx > 0 &&
                  std::fabs(history.momentMagnitude() -
                            reference::kRuptureMagnitudes[0]) <=
                      kMagnitudeTolerance,
              "rupture: event 0 moment magnitude matches the stored "
              "reference");
        }
      });
      runMs.push_back(secondsSince(t0) * 1e3);
      ruptureNs.push_back(stepSeconds * 1e9 / cellSteps);
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);

  metrics.add("core.velocity_ns_per_point", sub.velocityNs, "ns");
  metrics.add("core.stress_ns_per_point", sub.stressNs, "ns");
  metrics.add("core.kernel_ns_per_point", kernelNs, "ns");
  metrics.add("core.gflops", flops / kernelNs, "Gflop/s");
  metrics.add("core.bytes_per_point_computed", bytes, "B");
  metrics.add("core.flops_per_byte_computed", flops / bytes, "flop/B");
  metrics.add("core.pct_of_stream_bound", 100.0 * boundNs / kernelNs, "%");
  metrics.add("core.blocked_kernel_ns_per_point",
              blocked.velocityNs + blocked.stressNs, "ns");
  metrics.add("core.full_grid_kernel_ns_per_point",
              full.velocityNs + full.stressNs, "ns");
  metrics.add("core.single_rank_step_ns_per_point", stepNs, "ns");
  metrics.add("mem.triad_gbs", triadGbs, "GB/s");
  metrics.add("grid.halo_exchange_us", halo.pairUs, "us");
  metrics.add("grid.halo_bytes_per_step", halo.bytesPerStep, "B");
  metrics.add("grid.halo_messages_per_step", halo.messagesPerStep, "count");
  metrics.add("io.checkpoint_write_ms", ckptS * 1e3, "ms");
  metrics.add("io.checkpoint_mb_per_s",
              static_cast<double>(state.size()) / 1e6 / ckptS, "MB/s");
  metrics.add("mesh.cvm_build_s", meshSeconds, "s");
  metrics.add("cycle.kernel_node_updates_per_s", nodeUpdatesPerS, "1/s");
  metrics.add("cycle.sequence_s", sequenceSeconds, "s");
  metrics.add("cycle.us_per_step",
              sequenceSeconds * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, summary.steps)),
              "us");
  metrics.add("cycle.steps", static_cast<double>(summary.steps), "count");
  metrics.add("cycle.events", static_cast<double>(summary.eventsDetected), "count");
  metrics.add("rupture.ns_per_point", median(ruptureNs), "ns");
  metrics.add("rupture.run_p50_ms", median(runMs), "ms");
}

}  // namespace perfbench
