// Integration tests across modules: the full two-step M8 method (rupture
// -> dSrcG -> wave propagation), mesh pipeline feeding the solver, basin
// amplification phenomenology, and solver + aggregated output + partitioned
// sources working together.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>

#include "analysis/aval.hpp"
#include "analysis/pgv.hpp"
#include "core/solver.hpp"
#include "fault/injector.hpp"
#include "io/checkpoint.hpp"
#include "io/checksum.hpp"
#include "util/retry.hpp"
#include "mesh/generator.hpp"
#include "mesh/partitioner.hpp"
#include "rupture/solver.hpp"
#include "source/dsrcg.hpp"
#include "source/petasrcp.hpp"
#include "vcluster/cluster.hpp"
#include "vcluster/respawn.hpp"

namespace awp {
namespace {

using vcluster::CartTopology;
using vcluster::Dims3;
using vcluster::ThreadCluster;

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("awp_integ_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~IntegrationTest() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IntegrationTest, MeshPipelineFeedsSolverIdentically) {
  // CVM -> CVM2MESH -> PetaMeshP (both models) -> solver: the solver fed
  // by pre-partitioned files must produce the same wavefield as one fed
  // by read+redistribute.
  const grid::GridDims dims{32, 24, 16};
  const double h = 800.0;
  const auto cvm = vmodel::CommunityVelocityModel::socal(
      dims.nx * h, dims.ny * h, 0.5 * dims.ny * h);
  const std::string meshPath = (dir_ / "mesh.bin").string();
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    mesh::generateMesh(comm, cvm, {dims.nx, dims.ny, dims.nz, h, 0, 0},
                       meshPath);
  });

  CartTopology topo(Dims3{2, 2, 1});
  auto runWith = [&](bool prePartitioned) {
    std::vector<float> result;
    ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
      mesh::MeshBlock block;
      if (prePartitioned) {
        mesh::prePartitionMesh(comm, meshPath, topo,
                               (dir_ / "parts").string());
        block = mesh::readPrePartitioned((dir_ / "parts").string(),
                                         comm.rank());
      } else {
        block = mesh::readAndRedistribute(comm, meshPath, topo, 2, 2);
      }
      core::SolverConfig config;
      config.globalDims = dims;
      config.h = h;
      core::WaveSolver solver(comm, topo, config, block);
      solver.addSource(core::explosionPointSource(
          16, 12, 8,
          core::rickerWavelet(1.5, 0.8, solver.config().dt, 60, 1e15)));
      solver.run(60);
      if (comm.rank() == 0) {
        const auto& u = solver.grid().u;
        result.assign(u.data(), u.data() + u.size());
      }
    });
    return result;
  };

  const auto a = runWith(true);
  const auto b = runWith(false);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) ASSERT_EQ(a[n], b[n]);
}

TEST_F(IntegrationTest, TwoStepMethodProducesGroundMotion) {
  // Step 1: spontaneous rupture on a planar fault.
  rupture::RuptureConfig rc;
  rc.globalDims = {72, 26, 28};
  rc.h = 700.0;
  rc.faultJ = 12;
  rc.fi0 = 12;
  rc.fi1 = 60;
  rc.fk1 = rc.globalDims.nz - 1;
  rc.fk0 = rc.fk1 - 16;
  rc.friction.dc = 1.0;
  rc.friction.dcSurface = 3.0;
  rc.stress.nucX = 0.3 * (rc.fi1 - rc.fi0) * rc.h;
  rc.stress.nucZ = 6000.0;
  rc.stress.nucRadius = 4500.0;
  rc.stress.nucExcess = 0.15;
  rc.stress.corrX = 8e3;
  rc.stress.corrZ = 3e3;
  rc.timeDecimation = 2;
  rc.slipRateThreshold = 0.01;

  rupture::FaultHistory fault;
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{2, 1, 1});
    rupture::DynamicRuptureSolver dfr(
        comm, topo, rc, vmodel::LayeredModel::socalBackground());
    dfr.run(260);
    auto h = dfr.gather();
    if (comm.rank() == 0) fault = std::move(h);
  });
  ASSERT_GT(fault.nx, 0u);
  ASSERT_GT(fault.momentMagnitude(), 5.0);

  // Step 2: dSrcG -> PetaSrcP -> wave propagation.
  const grid::GridDims dims{64, 40, 18};
  const double h = 1200.0;
  const auto trace = source::FaultTrace::straight(
      0.2 * dims.nx * h, 0.8 * dims.nx * h, 0.5 * dims.ny * h);
  const double dt = 0.45 * h / 7000.0;
  source::WaveModelTarget target{dims, h, dt};
  source::FilterConfig filter;
  filter.cutoffHz = 0.4 / dt / 10.0;
  const auto sources = source::fromRupture(fault, trace, target, filter);
  ASSERT_FALSE(sources.empty());

  // The moment must survive the mapping within the filter/resample loss.
  const double m0Fault = fault.seismicMoment();
  const double m0Sources = source::totalMoment(sources, dt);
  EXPECT_NEAR(m0Sources / m0Fault, 1.0, 0.3);

  CartTopology topo(Dims3{2, 2, 1});
  const auto info = source::partitionSources(sources, topo, dims, 200,
                                             (dir_ / "src").string());
  EXPECT_GE(info.segments, 1);

  std::vector<float> pgvh;
  ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
    core::SolverConfig config;
    config.globalDims = dims;
    config.h = h;
    config.dt = dt;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5600.0f, 3200.0f, 2700.0f});
    for (int seg = 0; seg < info.segments; ++seg)
      for (auto& s :
           source::loadSegment((dir_ / "src").string(), comm.rank(), seg))
        solver.addSource(std::move(s));
    solver.run(160);
    auto map = solver.surface().gatherPgvh(comm);
    if (comm.rank() == 0) pgvh = std::move(map);
  });

  // Ground motion exists, and the largest PGVs hug the fault trace.
  const auto peak = analysis::mapPeak(pgvh, dims.nx, dims.ny);
  ASSERT_GT(peak.value, 1e-4f);
  const double peakDist = analysis::distanceToTrace(
      peak.i * h, peak.j * h, trace);
  EXPECT_LT(peakDist, 10e3);

  // PGV decays away from the fault: mean at 3-10 km > mean at 20-35 km.
  const double nearMean = analysis::meanWithinDistance(
      pgvh, dims.nx, dims.ny, h, trace, 3.0, 10.0);
  const double farMean = analysis::meanWithinDistance(
      pgvh, dims.nx, dims.ny, h, trace, 20.0, 35.0);
  EXPECT_GT(nearMean, farMean);
}

TEST_F(IntegrationTest, BasinsAmplifyGroundMotion) {
  // The same source in a basin model vs a rock-only model: the basin-top
  // site must see larger PGV than the same location without the basin
  // (the basin-amplification phenomenology of §VI-VII). The basin must be
  // numerically resolvable: h = 500 m with basin Vs 800 m/s keeps a few
  // points per wavelength at the 0.6 Hz source.
  const grid::GridDims dims{48, 48, 26};
  const double h = 500.0;

  auto runModel = [&](bool withBasins) {
    // Hard-rock background so the sediment impedance contrast is strong
    // (the socal background is itself soft near the surface).
    const vmodel::LayeredModel background(
        {{0.0, 2500.0}, {4000.0, 3000.0}, {16000.0, 3500.0}});
    std::vector<vmodel::Basin> basins;
    if (withBasins)
      basins.push_back(vmodel::Basin{"test", 12e3, 12e3, 6e3, 6e3, 2500.0,
                                     800.0});
    const vmodel::CommunityVelocityModel cvm(background, basins, 700.0);

    std::vector<core::SeismogramTrace> traces;
    ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
      CartTopology topo(Dims3{2, 2, 1});
      const mesh::MeshSpec spec{dims.nx, dims.ny, dims.nz, h, 0, 0};
      const mesh::MeshBlock block = mesh::sampleBlock(
          cvm, spec, mesh::subdomainFor(topo, spec, comm.rank()));
      core::SolverConfig config;
      config.globalDims = dims;
      config.h = h;
      core::WaveSolver solver(comm, topo, config, block);
      // Explosion directly under the basin, 10 km below the surface.
      solver.addSource(core::explosionPointSource(
          24, 24, dims.nz - 1 - 20,
          core::rickerWavelet(0.6, 2.2, solver.config().dt, 300, 1e16)));
      solver.addReceiver("basin-top", 24, 24);
      solver.run(300);
      auto gathered = solver.receivers().gather(comm);
      if (comm.rank() == 0) traces = std::move(gathered);
    });
    return analysis::tracePgv(traces.at(0));
  };

  const double withBasin = runModel(true);
  const double withoutBasin = runModel(false);
  EXPECT_GT(withBasin, 1.25 * withoutBasin);
}

TEST_F(IntegrationTest, ChecksummedSurfaceOutputRoundTrip) {
  // AWM with aggregated surface output; afterwards the file is readable,
  // has the expected layout, and its parallel checksum is deterministic.
  const grid::GridDims dims{32, 32, 16};
  const std::string out = (dir_ / "surface.bin").string();
  std::string sum1, sum2;
  for (std::string* sum : {&sum1, &sum2}) {
    ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
      CartTopology topo(Dims3{2, 2, 1});
      core::SolverConfig config;
      config.globalDims = dims;
      config.h = 500.0;
      core::WaveSolver solver(comm, topo, config,
                              vmodel::Material{5000.0f, 2900.0f, 2700.0f});
      io::SharedFile file(out, io::SharedFile::Mode::Write);
      core::SurfaceOutputConfig surf;
      surf.file = &file;
      surf.sampleEverySteps = 5;
      surf.spatialDecimation = 2;
      surf.flushEverySamples = 4;
      solver.attachSurfaceOutput(surf);
      solver.addSource(core::explosionPointSource(
          16, 16, 8,
          core::rickerWavelet(2.0, 0.5, solver.config().dt, 60, 1e15)));
      solver.run(60);

      // Checksum the file cooperatively (each rank hashes a slice).
      io::SharedFile reread(out, io::SharedFile::Mode::Read);
      const std::uint64_t size = reread.size();
      const std::uint64_t slice = size / comm.size();
      const std::uint64_t begin = comm.rank() * slice;
      const std::uint64_t len =
          comm.rank() == comm.size() - 1 ? size - begin : slice;
      std::vector<std::byte> buf(len);
      reread.readAt(begin, std::span<std::byte>(buf));
      const auto result = io::parallelMd5(comm, buf);
      if (comm.rank() == 0) *sum = result.collectionHex;
    });
  }
  EXPECT_FALSE(sum1.empty());
  EXPECT_EQ(sum1, sum2);  // deterministic across reruns

  // Layout: 12 sampled steps of 3 floats per decimated surface point.
  io::SharedFile file(out, io::SharedFile::Mode::Read);
  EXPECT_EQ(file.size(), 12ull * 3 * 16 * 16 * sizeof(float));
}

TEST_F(IntegrationTest, ChaosRestartReproducesUninterruptedRun) {
  // Resilience end-to-end (§III.F/§III.H): run a simulation under fault
  // injection — the newest checkpoint generation of rank 1 is silently
  // corrupted on disk and rank 0 sees transient write errors — then
  // restart a fresh solver. The collective restart must agree on the
  // newest step valid on *every* rank (the older generation), and the
  // restarted receiver traces must be bit-identical to the uninterrupted
  // run's tail.
  const grid::GridDims dims{28, 20, 14};
  const std::string ckptDir = (dir_ / "ckpt").string();
  const CartTopology topo(Dims3{2, 1, 1});

  auto makeSolver = [&](vcluster::Communicator& comm,
                        io::CheckpointStore* store) {
    core::SolverConfig config;
    config.globalDims = dims;
    config.h = 600.0;
    auto solver = std::make_unique<core::WaveSolver>(
        comm, topo, config, vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    solver->addSource(core::explosionPointSource(
        14, 10, 7,
        core::rickerWavelet(2.0, 0.5, solver->config().dt, 40, 1e15)));
    solver->addReceiver("site", 20, 12);
    if (store != nullptr) solver->attachCheckpoints(store, 10);
    return solver;
  };

  // Run A: fault-free reference, 30 steps.
  std::vector<core::SeismogramTrace> refTraces;
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    io::CheckpointStore store((dir_ / "ref_ckpt").string());
    auto solver = makeSolver(comm, &store);
    solver->run(30);
    auto gathered = solver->receivers().gather(comm);
    if (comm.rank() == 0) refTraces = std::move(gathered);
  });
  ASSERT_EQ(refTraces.size(), 1u);
  ASSERT_EQ(refTraces[0].u.size(), 30u);

  // Run B: same simulation under fault injection. Rank 1's second
  // checkpoint (step 20) is bit-flipped on disk; rank 0's second
  // checkpoint hits two transient write errors, which the shared-file
  // retry layer absorbs. Physics is unaffected either way.
  fault::FaultPlan plan;
  plan.bitFlip("ckpt.payload", /*rank=*/1, /*occurrence=*/2);
  plan.transientIoError("sharedfile.write", /*rank=*/0, /*occurrence=*/3,
                        /*count=*/2);
  fault::FaultInjector injector(std::move(plan), /*seed=*/2026);
  util::resetRetryRegistry();
  std::vector<core::SeismogramTrace> chaosTraces;
  {
    fault::ScopedInjection scope(injector);
    ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
      io::CheckpointStore store(ckptDir);
      auto solver = makeSolver(comm, &store);
      solver->run(30);
      auto gathered = solver->receivers().gather(comm);
      if (comm.rank() == 0) chaosTraces = std::move(gathered);
    });
  }
  // All three scheduled faults fired, and the transient errors were
  // recovered by retries without exhausting the budget.
  EXPECT_EQ(injector.faultsInjected(), 3u);
  const auto reg = util::retryRegistrySnapshot();
  EXPECT_EQ(reg.at("sharedfile.write").failures, 2u);
  EXPECT_EQ(reg.at("sharedfile.write").exhausted, 0u);
  // The faults were invisible to the running simulation.
  ASSERT_EQ(chaosTraces.size(), 1u);
  EXPECT_EQ(chaosTraces[0].u, refTraces[0].u);

  // Run B2: fresh solver, no injection. Rank 0's newest valid step is 20
  // but rank 1's step-20 generation fails its digest check, so the
  // collective restart must agree on step 10 for everyone.
  std::vector<core::SeismogramTrace> restartTraces;
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    io::CheckpointStore store(ckptDir);
    EXPECT_EQ(store.newestValidStep(comm.rank()),
              comm.rank() == 0 ? 20u : 10u);
    auto solver = makeSolver(comm, &store);
    solver->restart();
    EXPECT_EQ(solver->currentStep(), 11u);
    solver->run(30 - solver->currentStep());
    auto gathered = solver->receivers().gather(comm);
    if (comm.rank() == 0) restartTraces = std::move(gathered);
  });

  // Recording is step-indexed, so the restarted solver's trace is aligned
  // to simulation steps: entries for the pre-restart window it never saw
  // stay zero-filled, and the re-run tail is bit-identical to the
  // uninterrupted run at the same steps.
  ASSERT_EQ(restartTraces.size(), 1u);
  const auto& ref = refTraces[0];
  const auto& got = restartTraces[0];
  ASSERT_EQ(got.u.size(), 30u);
  for (std::size_t k = 0; k < 11; ++k) {
    ASSERT_EQ(got.u[k], 0.0f) << "pre-restart step " << k;
    ASSERT_EQ(got.v[k], 0.0f) << "pre-restart step " << k;
    ASSERT_EQ(got.w[k], 0.0f) << "pre-restart step " << k;
  }
  for (std::size_t k = 11; k < got.u.size(); ++k) {
    ASSERT_EQ(got.u[k], ref.u[k]) << "step " << k;
    ASSERT_EQ(got.v[k], ref.v[k]) << "step " << k;
    ASSERT_EQ(got.w[k], ref.w[k]) << "step " << k;
  }
}

// The chaos test's two-rank case, with a checkpoint every 10 steps.
std::unique_ptr<core::WaveSolver> makeCheckpointedSolver(
    vcluster::Communicator& comm, const CartTopology& topo,
    io::CheckpointStore& store) {
  core::SolverConfig config;
  config.globalDims = {28, 20, 14};
  config.h = 600.0;
  auto solver = std::make_unique<core::WaveSolver>(
      comm, topo, config, vmodel::Material{5200.0f, 3000.0f, 2700.0f});
  solver->addSource(core::explosionPointSource(
      14, 10, 7,
      core::rickerWavelet(2.0, 0.5, solver->config().dt, 40, 1e15)));
  solver->attachCheckpoints(&store, 10);
  return solver;
}

TEST_F(IntegrationTest, RankDeathDuringACheckpointWriteResumesFromIt) {
  // Rank 1 hands its step-10 checkpoint to its writer and dies entering
  // step 11 while the writer sits in a 0.3 s stall on the header write.
  // The unwinding solver waits for that write, so when the replacement
  // joins, both ranks agree on step 10 and replay from it, and the final
  // wavefields equal the fault-free run's bits.
  const CartTopology topo(Dims3{2, 1, 1});
  auto attempt = [&](const std::string& ckptDir, int respawnBudget,
                     std::vector<std::uint64_t>& resumedAt) {
    std::vector<std::vector<std::byte>> finals(2);
    vcluster::SupervisorOptions options;
    options.respawnBudget = respawnBudget;
    vcluster::SupervisedCluster cluster(2, options);
    cluster.run([&](vcluster::Communicator& comm) {
      io::CheckpointStore store(ckptDir);
      auto solver = makeCheckpointedSolver(comm, topo, store);
      const std::int64_t have =
          store.newestValidStep(comm.rank()).has_value() ? 1 : 0;
      if (comm.allreduce(have, vcluster::ReduceOp::Min) == 1) {
        solver->restart();
        resumedAt[static_cast<std::size_t>(comm.rank())] =
            solver->currentStep();
      }
      solver->run(30 - solver->currentStep());
      finals[static_cast<std::size_t>(comm.rank())] =
          solver->grid().saveState();
    });
    EXPECT_EQ(cluster.respawnsUsed(), respawnBudget);
    return finals;
  };

  std::vector<std::uint64_t> none(2, 0);
  const auto reference = attempt((dir_ / "ref").string(), 0, none);

  fault::FaultPlan plan;
  plan.stall("sharedfile.write", /*rank=*/1, /*occurrence=*/1, 0.3);
  plan.rankDeath(/*rank=*/1, /*occurrence=*/12);
  fault::FaultInjector injector(std::move(plan));
  std::vector<std::uint64_t> resumedAt(2, 0);
  std::vector<std::vector<std::byte>> chaos;
  {
    fault::ScopedInjection scope(injector);
    chaos = attempt((dir_ / "chaos").string(), 1, resumedAt);
  }
  EXPECT_EQ(injector.faultsInjected(), 2u);
  EXPECT_EQ(resumedAt, (std::vector<std::uint64_t>{11, 11}));
  ASSERT_EQ(chaos.size(), reference.size());
  for (std::size_t r = 0; r < chaos.size(); ++r)
    EXPECT_TRUE(chaos[r] == reference[r]) << "rank " << r;
}

TEST_F(IntegrationTest, FailedCheckpointWriteSurfacesAtTheNextDrain) {
  // Rank 0's step-20 write hits ENOSPC on its writer thread. The step goes
  // on; the error surfaces on rank 0's thread when the step-30 checkpoint
  // drains the writer, and the step-10 generation stays its newest valid
  // one on disk. The failure joins the step-30 veto, so rank 1 writes no
  // step 30 either: its store still holds step 10, and a restart resumes
  // both ranks from it.
  const CartTopology topo(Dims3{2, 1, 1});
  const std::string ckptDir = (dir_ / "ckpt").string();
  fault::FaultPlan plan;
  plan.add({"sharedfile.write", fault::FaultKind::NoSpace, /*rank=*/0,
            /*occurrence=*/3, /*count=*/1, 0.0});
  fault::FaultInjector injector(std::move(plan));
  std::string what;
  std::size_t failedAt = 0;
  {
    fault::ScopedInjection scope(injector);
    try {
      ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
        io::CheckpointStore store(ckptDir);
        auto solver = makeCheckpointedSolver(comm, topo, store);
        try {
          solver->run(35);
        } catch (const Error&) {
          if (comm.rank() == 0) failedAt = solver->currentStep();
          throw;
        }
      });
    } catch (const Error& e) {
      what = e.what();
    }
  }
  EXPECT_EQ(injector.faultsInjected(), 1u);
  EXPECT_NE(what.find("ENOSPC"), std::string::npos) << what;
  EXPECT_EQ(failedAt, 30u);
  EXPECT_EQ(io::CheckpointStore(ckptDir).newestValidStep(0), 10u);
  EXPECT_EQ(io::CheckpointStore(ckptDir).newestValidStep(1), 20u);

  std::vector<std::uint64_t> resumedAt(2, 0);
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    io::CheckpointStore store(ckptDir);
    auto solver = makeCheckpointedSolver(comm, topo, store);
    solver->restart();
    resumedAt[static_cast<std::size_t>(comm.rank())] = solver->currentStep();
  });
  EXPECT_EQ(resumedAt, (std::vector<std::uint64_t>{11, 11}));
}

}  // namespace
}  // namespace awp
