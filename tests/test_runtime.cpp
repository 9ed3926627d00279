// Tests for the later-added platform features: the §IV.D hybrid
// (thread-parallel) kernel mode, the §III.G runtime configuration, and
// the §III.I dPDA derived products.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "analysis/products.hpp"
#include "core/runtime_config.hpp"
#include "core/solver.hpp"
#include "core/surface_layout.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "vcluster/cluster.hpp"

namespace awp {
namespace {

using vcluster::CartTopology;
using vcluster::Dims3;
using vcluster::ThreadCluster;

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, CoversTheRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallelFor(0, 1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallelFor(0, 97, [&](std::size_t b, std::size_t e) {
      total.fetch_add(e - b);
    });
  }
  EXPECT_EQ(total.load(), 50u * 97u);
}

TEST(ThreadPool, HandlesSmallAndEmptyRanges) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallelFor(5, 5, [&](std::size_t, std::size_t) { count = 99; });
  EXPECT_EQ(count.load(), 0);
  pool.parallelFor(0, 2, [&](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1);
  int sum = 0;
  pool.parallelFor(0, 10, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

// --- Hybrid solver equivalence (§IV.D) ---------------------------------------

TEST(HybridMode, MatchesPureMessagePassing) {
  auto run = [&](int threads) {
    std::vector<float> field;
    ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
      CartTopology topo(Dims3{2, 1, 1});
      core::SolverConfig config;
      config.globalDims = {32, 24, 16};
      config.h = 300.0;
      config.hybridThreads = threads;
      core::WaveSolver solver(comm, topo, config,
                              vmodel::Material{5000.0f, 2900.0f, 2700.0f});
      solver.addSource(core::explosionPointSource(
          16, 12, 8,
          core::rickerWavelet(3.0, 0.5, solver.config().dt, 60, 1e15)));
      solver.run(60);
      if (comm.rank() == 0) {
        const auto& u = solver.grid().u;
        field.assign(u.data(), u.data() + u.size());
      }
    });
    return field;
  };
  const auto pure = run(1);
  const auto hybrid = run(3);
  ASSERT_EQ(pure.size(), hybrid.size());
  for (std::size_t n = 0; n < pure.size(); ++n)
    ASSERT_EQ(pure[n], hybrid[n]);  // bitwise: slabs don't change order
}

// --- Runtime configuration (§III.G) ------------------------------------------

TEST(RuntimeConfig, ParsesFullConfiguration) {
  const auto config = core::parseRuntimeConfig(R"(
      # production configuration
      comm = sync
      reduced_comm = off
      overlap = on
      cache_block = 32x4
      unroll = on
      reciprocals = off
      hybrid_threads = 6
      absorbing = pml
      pml_width = 12
      free_surface = off
      attenuation = on
      dt = 0.004
      output_sample_steps = 20
      output_decimation = 2
      output_aggregate = 1000
      mesh_io = ondemand
      checksums = off
  )");
  const auto& s = config.solver;
  EXPECT_EQ(s.commMode, grid::HaloExchanger::Mode::Synchronous);
  EXPECT_FALSE(s.reducedComm);
  EXPECT_TRUE(s.overlap);
  EXPECT_TRUE(s.kernels.cacheBlocked);
  EXPECT_EQ(s.kernels.kblock, 32);
  EXPECT_EQ(s.kernels.jblock, 4);
  EXPECT_TRUE(s.kernels.unrolled);
  EXPECT_FALSE(s.kernels.useReciprocals);
  EXPECT_EQ(s.hybridThreads, 6);
  EXPECT_EQ(s.absorbing, core::AbsorbingType::Pml);
  EXPECT_EQ(s.pml.width, 12);
  EXPECT_FALSE(s.freeSurface);
  EXPECT_TRUE(s.attenuation.enabled);
  EXPECT_DOUBLE_EQ(s.dt, 0.004);
  EXPECT_EQ(config.output.sampleEverySteps, 20);
  EXPECT_EQ(config.output.spatialDecimation, 2);
  EXPECT_EQ(config.output.flushEverySamples, 1000);
  EXPECT_EQ(config.meshIo, core::MeshIoMode::OnDemand);
  EXPECT_FALSE(config.checksums);
}

TEST(RuntimeConfig, DefaultsPreservedForUnsetKeys) {
  const auto config = core::parseRuntimeConfig("overlap = on\n");
  EXPECT_TRUE(config.solver.overlap);
  EXPECT_TRUE(config.solver.reducedComm);  // untouched default
  EXPECT_EQ(config.solver.commMode,
            grid::HaloExchanger::Mode::Asynchronous);
}

TEST(RuntimeConfig, RejectsMalformedInput) {
  EXPECT_THROW(core::parseRuntimeConfig("nonsense\n"), Error);
  EXPECT_THROW(core::parseRuntimeConfig("unknown_key = 1\n"), Error);
  EXPECT_THROW(core::parseRuntimeConfig("comm = carrier-pigeon\n"), Error);
  EXPECT_THROW(core::parseRuntimeConfig("cache_block = 16by8\n"), Error);
  EXPECT_THROW(core::parseRuntimeConfig("hybrid_threads = 0\n"), Error);
  EXPECT_THROW(core::parseRuntimeConfig("dt = fast\n"), Error);
  // Zero output cadences would divide by zero in the solver.
  for (const char* zero :
       {"output_sample_steps = 0\n", "output_decimation = 0\n",
        "output_aggregate = 0\n"})
    EXPECT_THROW((void)core::parseRuntimeConfig(zero), Error) << zero;
  // Service-layer options are set on their config structs, not by key;
  // these keys and the earlier duplicates are unknown.
  for (const char* removed :
       {"sched_workers = 6\n", "fabric_brokers = 5\n", "serve_tile = 8\n",
        "cycle_nx = 48\n", "telemetry = on\n", "telemetry_ring = 1024\n",
        "health_watchdog_miss_threshold = 7\n", "health_stall_timeout = 5\n",
        "health_respawn_budget = 2\n", "sched_respawn_buddy = off\n"})
    EXPECT_THROW((void)core::parseRuntimeConfig(removed), Error) << removed;
}

TEST(RuntimeConfig, LoadsFromFile) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("awp_rc_" + std::to_string(::getpid()) + ".cfg");
  {
    std::ofstream out(path);
    out << "sponge_width = 25\n";
  }
  const auto config = core::loadRuntimeConfig(path.string());
  EXPECT_EQ(config.solver.spongeWidth, 25);
  std::filesystem::remove(path);
}

TEST(RuntimeConfig, MachineDefaultsAreArchitectureAware) {
  const auto jaguar = core::defaultsForMachine("Jaguar");
  EXPECT_TRUE(jaguar.solver.kernels.cacheBlocked);
  EXPECT_EQ(jaguar.solver.kernels.kblock, 16);
  EXPECT_EQ(jaguar.meshIo, core::MeshIoMode::PrePartitioned);
  EXPECT_FALSE(jaguar.solver.overlap);  // dropped for full-scale production

  const auto intrepid = core::defaultsForMachine("Intrepid");
  EXPECT_EQ(intrepid.solver.kernels.kblock, 8);  // small L1
  EXPECT_EQ(intrepid.meshIo, core::MeshIoMode::OnDemand);

  const auto ranger = core::defaultsForMachine("Ranger");
  EXPECT_TRUE(ranger.solver.overlap);

  EXPECT_THROW(core::defaultsForMachine("Roadrunner"), Error);
}

// --- dPDA products (§III.I) ---------------------------------------------------

TEST(Products, PgmRoundTripHeaderAndScaling) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("awp_pgm_" + std::to_string(::getpid()) + ".pgm");
  std::vector<float> map = {0.0f, 1.0f, 2.0f, 4.0f};
  const double peak = analysis::writePgm(map, 2, 2, path.string(), 1.0);
  EXPECT_DOUBLE_EQ(peak, 4.0);

  std::ifstream in(path, std::ios::binary);
  std::string magic;
  std::size_t nx, ny;
  int maxval;
  in >> magic >> nx >> ny >> maxval;
  in.get();  // single whitespace after header
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(nx, 2u);
  EXPECT_EQ(ny, 2u);
  EXPECT_EQ(maxval, 255);
  unsigned char px[4];
  in.read(reinterpret_cast<char*>(px), 4);
  EXPECT_EQ(px[0], 0);      // zero -> black
  EXPECT_EQ(px[3], 255);    // peak -> white
  EXPECT_EQ(px[1], 64);     // linear gamma: 1/4 of peak
  std::filesystem::remove(path);
}

TEST(Products, SurfaceSnapshotMatchesMonitor) {
  // Run a solver writing surface output; the final snapshot read back via
  // the dPDA layout must be consistent with non-zero motion where the
  // monitor saw motion.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("awp_prod_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "surface.bin").string();

  const grid::GridDims dims{32, 32, 12};
  CartTopology topo(Dims3{2, 2, 1});
  std::vector<float> finalU;
  ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
    core::SolverConfig config;
    config.globalDims = dims;
    config.h = 400.0;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5000.0f, 2900.0f, 2700.0f});
    io::SharedFile file(path, io::SharedFile::Mode::Write);
    core::SurfaceOutputConfig surf;
    surf.file = &file;
    surf.sampleEverySteps = 10;
    surf.spatialDecimation = 1;
    surf.flushEverySamples = 2;
    solver.attachSurfaceOutput(surf);
    solver.addSource(core::explosionPointSource(
        16, 16, 8,
        core::rickerWavelet(3.0, 0.4, solver.config().dt, 80, 1e15)));
    solver.run(80);
    if (comm.rank() == 0) {
      // Record the surface u at the final step for cross-checking.
      const auto& g = solver.grid();
      finalU.push_back(g.u(grid::kHalo + 5, grid::kHalo + 5,
                           grid::kHalo + g.dims().nz - 1));
    }
  });

  const core::SurfaceLayout layout(topo, dims, 1);
  EXPECT_EQ(layout.nx(), 32u);
  EXPECT_EQ(layout.stepFloats(), 3ull * 32 * 32);

  io::SharedFile file(path, io::SharedFile::Mode::Read);
  const std::size_t samples = layout.sampleCount(file.size());
  EXPECT_EQ(samples, 8u);

  const auto early = analysis::readSurfaceSnapshot(path, layout, 0);
  const auto late =
      analysis::readSurfaceSnapshot(path, layout, samples - 1);
  double earlyPeak = 0.0, latePeak = 0.0;
  for (float v : early) earlyPeak = std::max<double>(earlyPeak, v);
  for (float v : late) latePeak = std::max<double>(latePeak, v);
  EXPECT_EQ(earlyPeak, 0.0);  // step 0: nothing has arrived
  EXPECT_GT(latePeak, 0.0);   // wave reached the surface by the end

  // Out-of-range sample throws.
  EXPECT_THROW(analysis::readSurfaceSnapshot(path, layout, samples), Error);

  // A PGM of the snapshot is writable.
  analysis::writePgm(late, layout.nx(), layout.ny(),
                     (dir / "snap.pgm").string());
  EXPECT_TRUE(std::filesystem::exists(dir / "snap.pgm"));
  std::filesystem::remove_all(dir);
  (void)finalU;
}

TEST(Products, DecimatedSnapshotMatchesTopPlane) {
  // 2x2x1 ranks on an uneven 33x30 surface with spatial decimation 2: the
  // rank blocks are 9/8 decimated points wide and 8/7 deep, so their
  // record displacements differ. Every decimated point of the last sample
  // read back through the layout must equal |v| taken straight from the
  // owning rank's top plane at the end of the run.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("awp_dec_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "surface.bin").string();

  const grid::GridDims dims{33, 30, 12};
  const CartTopology topo(Dims3{2, 2, 1});
  const core::SurfaceLayout layout(topo, dims, 2);
  ASSERT_EQ(layout.nx(), 17u);
  ASSERT_EQ(layout.ny(), 15u);
  ASSERT_EQ(layout.blocks().size(), 4u);

  // Samples at steps 0, 5, ..., 40: the last one is the final state.
  constexpr std::size_t kSteps = 41;
  constexpr int kEvery = 5;
  std::vector<float> expected(layout.nx() * layout.ny(), -1.0f);
  ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
    core::SolverConfig config;
    config.globalDims = dims;
    config.h = 400.0;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5000.0f, 2900.0f, 2700.0f});
    io::SharedFile file(path, io::SharedFile::Mode::Write);
    core::SurfaceOutputConfig surf;
    surf.file = &file;
    surf.sampleEverySteps = kEvery;
    surf.spatialDecimation = 2;
    surf.flushEverySamples = 3;
    solver.attachSurfaceOutput(surf);
    solver.addSource(core::explosionPointSource(
        16, 15, 6,
        core::rickerWavelet(3.0, 0.4, solver.config().dt, kSteps, 1e15)));
    solver.run(kSteps);

    // Each rank fills the decimated points it owns (disjoint elements).
    const auto& g = solver.grid();
    const auto& geom = solver.geometry();
    const std::size_t top = grid::kHalo + g.dims().nz - 1;
    for (std::size_t j = grid::kHalo; j < grid::kHalo + g.dims().ny; ++j)
      for (std::size_t i = grid::kHalo; i < grid::kHalo + g.dims().nx; ++i) {
        const std::size_t gx = geom.globalX(i);
        const std::size_t gy = geom.globalY(j);
        if (gx % 2 != 0 || gy % 2 != 0) continue;
        const float u = g.u(i, j, top);
        const float v = g.v(i, j, top);
        const float w = g.w(i, j, top);
        expected[gx / 2 + layout.nx() * (gy / 2)] =
            std::sqrt(u * u + v * v + w * w);
      }
  });

  io::SharedFile file(path, io::SharedFile::Mode::Read);
  EXPECT_EQ(file.size(), 9 * layout.stepFloats() * sizeof(float));
  const std::size_t samples = layout.sampleCount(file.size());
  ASSERT_EQ(samples, 9u);
  const auto snapshot =
      analysis::readSurfaceSnapshot(path, layout, samples - 1);
  ASSERT_EQ(snapshot.size(), expected.size());
  float peak = 0.0f;
  for (std::size_t p = 0; p < expected.size(); ++p) {
    ASSERT_GE(expected[p], 0.0f) << "decimated point " << p << " unowned";
    EXPECT_EQ(snapshot[p], expected[p]) << "decimated point " << p;
    peak = std::max(peak, expected[p]);
  }
  EXPECT_GT(peak, 0.0f);  // the wave reached the surface
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace awp
