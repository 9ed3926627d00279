// Health-guard tests: preflight collective fail-fast, the in-loop blow-up
// monitor with rollback-and-resume through the checkpoint store, the
// collective checkpoint veto, the rank watchdog driven by the fault
// injector's rank-stall site, and the load-path material validation.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "core/runtime_config.hpp"
#include "core/solver.hpp"
#include "fault/injector.hpp"
#include "health/guard.hpp"
#include "health/monitor.hpp"
#include "health/preflight.hpp"
#include "health/verdict.hpp"
#include "health/watchdog.hpp"
#include "io/checkpoint.hpp"
#include "mesh/partitioner.hpp"
#include "vcluster/cluster.hpp"
#include "vmodel/material.hpp"

namespace awp {
namespace {

using vcluster::CartTopology;
using vcluster::Dims3;
using vcluster::ThreadCluster;

class HealthTest : public ::testing::Test {
 protected:
  HealthTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("awp_health_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~HealthTest() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

// --- verdict lattice -------------------------------------------------------

TEST(Verdict, LatticeCombinesToWorst) {
  using health::Verdict;
  EXPECT_EQ(health::worse(Verdict::Healthy, Verdict::Degraded),
            Verdict::Degraded);
  EXPECT_EQ(health::worse(Verdict::Fatal, Verdict::Degraded), Verdict::Fatal);
  EXPECT_EQ(health::decode(health::encode(Verdict::Fatal)), Verdict::Fatal);
  EXPECT_EQ(health::decode(0), Verdict::Healthy);
}

// --- material admissibility ------------------------------------------------

TEST(MaterialIssue, FlagsUnphysicalMaterials) {
  EXPECT_EQ(vmodel::materialIssue({5000.0f, 2900.0f, 2700.0f}), nullptr);
  EXPECT_STREQ(vmodel::materialIssue({5000.0f, 0.0f, 2700.0f}), "vs <= 0");
  EXPECT_STREQ(vmodel::materialIssue({5000.0f, -100.0f, 2700.0f}), "vs <= 0");
  EXPECT_STREQ(vmodel::materialIssue({5000.0f, 2900.0f, -1.0f}), "rho <= 0");
  EXPECT_STREQ(vmodel::materialIssue({2000.0f, 2900.0f, 2700.0f}),
               "vp <= vs");
  EXPECT_STREQ(vmodel::materialIssue({NAN, 2900.0f, 2700.0f}),
               "non-finite vp/vs/rho");
}

TEST(MaterialIssue, ValidateBlockNamesTheCell) {
  mesh::MeshBlock block;
  block.spec.x = {0, 2};
  block.spec.y = {0, 2};
  block.spec.z = {0, 1};
  block.points.assign(4, vmodel::Material{5000.0f, 2900.0f, 2700.0f});
  EXPECT_NO_THROW(mesh::validateBlock(block, "test"));
  block.at(1, 1, 0).vs = -5.0f;
  try {
    mesh::validateBlock(block, "somefile.bin");
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("somefile.bin"), std::string::npos) << what;
    EXPECT_NE(what.find("vs <= 0"), std::string::npos) << what;
    EXPECT_NE(what.find("(1, 1, 0)"), std::string::npos) << what;
  }
}

TEST_F(HealthTest, PrePartitionedLoadRejectsCorruptVs) {
  // A mesh block file whose third cell has a negative Vs must be rejected
  // at load time with a clear error, not fed to the kernels as mu = 25e9.
  const std::string path = (dir_ / "mesh_rank0.bin").string();
  {
    const std::uint64_t header[8] = {0x4157504d424c4b31ULL,  // AWPMBLK1
                                     0, 0, 2, 0, 2, 0, 2};
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(header), sizeof(header));
    for (int n = 0; n < 8; ++n) {
      vmodel::Material m{5000.0f, 2900.0f, 2700.0f};
      if (n == 2) m.vs = -437.0f;
      f.write(reinterpret_cast<const char*>(&m), sizeof(m));
    }
  }
  try {
    mesh::readPrePartitioned(dir_.string(), 0);
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vs <= 0"), std::string::npos) << what;
    EXPECT_NE(what.find("mesh_rank0.bin"), std::string::npos) << what;
  }
}

TEST(MaterialIssue, GridRejectsBadUniformMaterial) {
  grid::StaggeredGrid g({4, 4, 4}, 100.0, 0.001);
  EXPECT_THROW(g.setUniformMaterial({5000.0f, 0.0f, 2700.0f}), Error);
}

// --- derived dt ------------------------------------------------------------

TEST(DerivedDt, ExposedOnSolver) {
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    core::SolverConfig config;
    config.globalDims = {12, 10, 8};
    config.h = 600.0;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    EXPECT_TRUE(solver.dtDerived());
    EXPECT_NEAR(solver.dt(), 0.45 * 600.0 / 5200.0, 1e-6);
    EXPECT_EQ(solver.dt(), solver.config().dt);
  });
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    core::SolverConfig config;
    config.globalDims = {12, 10, 8};
    config.h = 600.0;
    config.dt = 0.01;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    EXPECT_FALSE(solver.dtDerived());
    EXPECT_EQ(solver.dt(), 0.01);
  });
}

// --- preflight -------------------------------------------------------------

// Run a 2-rank solver with `mutate` applied to the config/solver and return
// the preflight error message ("" if no throw).
template <typename ConfigFn, typename SolverFn>
std::string preflightFailure(ConfigFn&& configure, SolverFn&& prepare) {
  std::string message;
  try {
    ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
      CartTopology topo(Dims3{2, 1, 1});
      core::SolverConfig config;
      config.globalDims = {16, 12, 10};
      config.h = 600.0;
      config.spongeWidth = 3;  // the default 20 cannot fit this grid
      config.health.enabled = true;
      vmodel::Material material{5200.0f, 3000.0f, 2700.0f};
      configure(config, material);
      core::WaveSolver solver(comm, topo, config, material);
      prepare(solver);
      solver.run(10);
    });
  } catch (const Error& e) {
    message = e.what();
  }
  return message;
}

TEST(Preflight, RejectsVpVsRatioBelowSqrt2) {
  const std::string what = preflightFailure(
      [](core::SolverConfig&, vmodel::Material& m) {
        m = {3000.0f, 2900.0f, 2700.0f};  // lambda < 0
      },
      [](core::WaveSolver&) {});
  EXPECT_NE(what.find("preflight failed"), std::string::npos) << what;
  EXPECT_NE(what.find("below sqrt(2)"), std::string::npos) << what;
}

TEST(Preflight, RejectsUnstableDt) {
  const std::string what = preflightFailure(
      [](core::SolverConfig& c, vmodel::Material&) { c.dt = 0.1; },
      [](core::WaveSolver&) {});
  EXPECT_NE(what.find("CFL violated"), std::string::npos) << what;
}

TEST(Preflight, RejectsOverlappingSpongeLayers) {
  const std::string what = preflightFailure(
      [](core::SolverConfig& c, vmodel::Material&) { c.spongeWidth = 10; },
      [](core::WaveSolver&) {});
  EXPECT_NE(what.find("does not fit the global grid"), std::string::npos)
      << what;
}

TEST(Preflight, RejectsSourceOutsideGrid) {
  const std::string what = preflightFailure(
      [](core::SolverConfig&, vmodel::Material&) {},
      [](core::WaveSolver& s) {
        s.addSource(core::explosionPointSource(
            1000, 5, 5, core::rickerWavelet(2.0, 0.5, 0.01, 10, 1e15)));
      });
  EXPECT_NE(what.find("outside the global grid"), std::string::npos) << what;
}

TEST(Preflight, DegradedVerdictDoesNotAbort) {
  // A source history longer than the planned run is suspicious (the tail
  // is silently truncated) but must not kill the job.
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{2, 1, 1});
    core::SolverConfig config;
    config.globalDims = {16, 12, 10};
    config.h = 600.0;
    config.spongeWidth = 3;
    config.health.enabled = true;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    solver.addSource(core::explosionPointSource(
        8, 6, 5,
        core::rickerWavelet(2.0, 0.5, solver.dt(), 100, 1e15)));
    solver.run(10);
    EXPECT_EQ(solver.currentStep(), 10u);
    ASSERT_NE(solver.healthGuard(), nullptr);
    const auto& events = solver.healthGuard()->events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events[0].kind, health::EventKind::Preflight);
    EXPECT_EQ(events[0].verdict, health::Verdict::Degraded);
    EXPECT_NE(events[0].detail.find("tail truncated"), std::string::npos);
  });
}

TEST(Preflight, PmlCannotSpanRankBoundaries) {
  // Unit-level: a face rank whose extent is narrower than the PML width is
  // Fatal (split-field zones hold private state), while the sponge taper
  // only degrades.
  grid::StaggeredGrid g({6, 20, 12}, 600.0, 0.001);
  g.setUniformMaterial({5200.0f, 3000.0f, 2700.0f});
  health::PreflightContext ctx;
  ctx.grid = &g;
  ctx.globalDims = {24, 20, 12};
  ctx.dt = 0.9 * g.stableDt();
  ctx.h = 600.0;
  ctx.boundary = health::BoundaryKind::Pml;
  ctx.boundaryWidth = 8;
  ctx.touchesXMin = true;
  const auto pml = health::runPreflight(ctx);
  EXPECT_EQ(pml.verdict, health::Verdict::Fatal);
  EXPECT_NE(health::describeIssues(pml.issues).find("cannot span ranks"),
            std::string::npos);

  ctx.boundary = health::BoundaryKind::Sponge;
  const auto sponge = health::runPreflight(ctx);
  EXPECT_EQ(sponge.verdict, health::Verdict::Degraded);
}

TEST(Preflight, FlagsExtremeDecomposition) {
  // Topology check: halo width vs subdomain extent on partitioned axes.
  // A sliver rank (extent below the halo width) is Fatal — its ghost
  // planes cannot be sourced from its own cells; collectivePreflight then
  // aborts every rank together instead of deadlocking the exchange.
  grid::StaggeredGrid g({1, 20, 12}, 600.0, 0.001);
  g.setUniformMaterial({5200.0f, 3000.0f, 2700.0f});
  health::PreflightContext ctx;
  ctx.grid = &g;
  ctx.globalDims = {64, 20, 12};
  ctx.dt = 0.9 * g.stableDt();
  ctx.h = 600.0;
  ctx.decompX = 64;
  ctx.haloWidth = grid::kHalo;
  const auto fatal = health::runPreflight(ctx);
  EXPECT_EQ(fatal.verdict, health::Verdict::Fatal);
  EXPECT_NE(
      health::describeIssues(fatal.issues).find("decomposition too fine"),
      std::string::npos);

  // The same sliver on an UNPARTITIONED axis exchanges nothing: clean.
  ctx.decompX = 1;
  EXPECT_EQ(health::runPreflight(ctx).verdict, health::Verdict::Healthy);

  // haloWidth = 0 opts out (callers without topology information).
  ctx.decompX = 64;
  ctx.haloWidth = 0;
  EXPECT_EQ(health::runPreflight(ctx).verdict, health::Verdict::Healthy);

  // Between one and two halo widths the exchange regions overlap: legal
  // but pathological — Degraded, not Fatal.
  grid::StaggeredGrid g3({3, 20, 12}, 600.0, 0.001);
  g3.setUniformMaterial({5200.0f, 3000.0f, 2700.0f});
  ctx.grid = &g3;
  ctx.dt = 0.9 * g3.stableDt();
  ctx.decompX = 4;
  ctx.haloWidth = grid::kHalo;
  const auto degraded = health::runPreflight(ctx);
  EXPECT_EQ(degraded.verdict, health::Verdict::Degraded);
  EXPECT_NE(
      health::describeIssues(degraded.issues).find("decomposition is extreme"),
      std::string::npos);
}

TEST(Preflight, ExtremeDecompositionDegradesEndToEnd) {
  // Solver-level wiring: a 2-way x split of a 5-cell axis leaves extents of
  // 3 and 2 — above the halo width (so init accepts it) but below twice the
  // halo width. The preflight must record the Degraded verdict and the run
  // must still complete.
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{2, 1, 1});
    core::SolverConfig config;
    config.globalDims = {5, 12, 10};
    config.h = 600.0;
    config.absorbing = core::AbsorbingType::None;
    config.health.enabled = true;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    solver.run(4);
    EXPECT_EQ(solver.currentStep(), 4u);
    ASSERT_NE(solver.healthGuard(), nullptr);
    const auto& events = solver.healthGuard()->events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events[0].kind, health::EventKind::Preflight);
    EXPECT_EQ(events[0].verdict, health::Verdict::Degraded);
    EXPECT_NE(events[0].detail.find("decomposition is extreme"),
              std::string::npos);
  });
}

// --- monitor ---------------------------------------------------------------

TEST(Monitor, SustainedGrowthPromotesToFatal) {
  grid::StaggeredGrid g({6, 6, 6}, 100.0, 0.001);
  g.setUniformMaterial({5000.0f, 2900.0f, 2700.0f});
  health::MonitorConfig mc;
  mc.growthLimit = 10.0;
  mc.degradedFatalAfter = 2;
  health::FieldMonitor monitor(mc);

  g.u.fill(1.0f);
  EXPECT_EQ(monitor.scan(g).verdict, health::Verdict::Healthy);
  g.u.fill(100.0f);
  EXPECT_EQ(monitor.scan(g).verdict, health::Verdict::Degraded);
  g.u.fill(10000.0f);
  const auto fatal = monitor.scan(g);
  EXPECT_EQ(fatal.verdict, health::Verdict::Fatal);
  EXPECT_NE(fatal.detail.find("blow-up"), std::string::npos);

  // A rollback forgets the growth track.
  monitor.resetAfterRollback();
  g.u.fill(1e6f);
  EXPECT_EQ(monitor.scan(g).verdict, health::Verdict::Healthy);
}

TEST(Monitor, NamesTheFirstNonFiniteSample) {
  grid::StaggeredGrid g({6, 6, 6}, 100.0, 0.001);
  g.setUniformMaterial({5000.0f, 2900.0f, 2700.0f});
  health::FieldMonitor monitor({});
  EXPECT_TRUE(health::FieldMonitor::allFinite(g));
  g.xy(grid::kHalo + 3, grid::kHalo + 1, grid::kHalo + 2) =
      std::numeric_limits<float>::infinity();
  EXPECT_FALSE(health::FieldMonitor::allFinite(g));
  const auto r = monitor.scan(g);
  EXPECT_EQ(r.verdict, health::Verdict::Fatal);
  EXPECT_EQ(r.field, "xy");
  EXPECT_NE(r.detail.find("non-finite xy"), std::string::npos);
  EXPECT_NE(r.detail.find("(3,1,2)"), std::string::npos);
}

// The scalar, early-exit scan the vectorized FieldMonitor::scan replaced,
// kept as its oracle: the first non-finite sample in field order (u, v, w,
// then the stresses) and the peak |velocity| over the velocity samples
// before it.
health::ScanResult exactScanOracle(const grid::StaggeredGrid& g) {
  using grid::kHalo;
  const auto& d = g.dims();
  const std::pair<const Array3f*, const char*> fields[] = {
      {&g.u, "u"},   {&g.v, "v"},   {&g.w, "w"},
      {&g.xx, "xx"}, {&g.yy, "yy"}, {&g.zz, "zz"},
      {&g.xy, "xy"}, {&g.xz, "xz"}, {&g.yz, "yz"}};
  health::ScanResult r;
  for (std::size_t n = 0; n < 9; ++n)
    for (std::size_t k = kHalo; k < kHalo + d.nz; ++k)
      for (std::size_t j = kHalo; j < kHalo + d.ny; ++j)
        for (std::size_t i = kHalo; i < kHalo + d.nx; ++i) {
          const float v = (*fields[n].first)(i, j, k);
          if (!std::isfinite(v)) {
            r.verdict = health::Verdict::Fatal;
            r.field = fields[n].second;
            r.i = i;
            r.j = j;
            r.k = k;
            r.value = static_cast<double>(v);
            std::ostringstream os;
            os << "non-finite " << r.field << " = " << r.value
               << " at local (" << i - kHalo << "," << j - kHalo << ","
               << k - kHalo << ")";
            r.detail = os.str();
            return r;
          }
          if (n < 3)
            r.peakVelocity =
                std::max(r.peakVelocity, static_cast<double>(std::fabs(v)));
        }
  return r;
}

TEST(FieldMonitor, FastScanMatchesExactScan) {
  using grid::kHalo;
  // nx = 13: no vector width divides the row, so the last interior cell of
  // each row falls in the vector loop's remainder.
  const grid::GridDims d{13, 5, 4};
  const float kSpecials[] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             -0.0f,
                             std::numeric_limits<float>::denorm_min(),
                             -3.0f * std::numeric_limits<float>::denorm_min(),
                             std::numeric_limits<float>::max(),
                             -std::numeric_limits<float>::max()};
  // First and last interior cell of the first and last interior row.
  const std::size_t kCells[][3] = {
      {kHalo, kHalo, kHalo},
      {kHalo + d.nx - 1, kHalo, kHalo},
      {kHalo, kHalo + d.ny - 1, kHalo + d.nz - 1},
      {kHalo + d.nx - 1, kHalo + d.ny - 1, kHalo + d.nz - 1}};
  const grid::FieldId kFields[] = {
      grid::FieldId::U,  grid::FieldId::V,  grid::FieldId::W,
      grid::FieldId::XX, grid::FieldId::YY, grid::FieldId::ZZ,
      grid::FieldId::XY, grid::FieldId::XZ, grid::FieldId::YZ};
  std::size_t cases = 0;
  // A signed background, and an all-zero one where a subnormal or -0 is
  // the peak itself.
  for (const bool zeroBackground : {false, true})
    for (const grid::FieldId id : kFields)
      for (const float special : kSpecials)
        for (const auto& cell : kCells) {
          grid::StaggeredGrid g(d, 100.0, 0.001);
          g.setUniformMaterial({5000.0f, 2900.0f, 2700.0f});
          for (const grid::FieldId f : kFields) {
            float* a = g.field(f).data();
            for (std::size_t n = 0; n < g.field(f).size(); ++n)
              a[n] = zeroBackground
                         ? 0.0f
                         : static_cast<float>(static_cast<int>(
                               (n * 37 + static_cast<std::size_t>(f) * 11) %
                               101) - 50) * 1e-3f;
          }
          g.field(id)(cell[0], cell[1], cell[2]) = special;
          SCOPED_TRACE(::testing::Message()
                       << "field " << static_cast<int>(id) << " value "
                       << special << " at (" << cell[0] << "," << cell[1]
                       << "," << cell[2] << ") zero=" << zeroBackground);

          health::FieldMonitor monitor({});
          const health::ScanResult got = monitor.scan(g);
          const health::ScanResult want = exactScanOracle(g);
          EXPECT_EQ(got.verdict, want.verdict);
          EXPECT_EQ(got.detail, want.detail);
          EXPECT_EQ(got.field, want.field);
          EXPECT_EQ(got.i, want.i);
          EXPECT_EQ(got.j, want.j);
          EXPECT_EQ(got.k, want.k);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
                    std::bit_cast<std::uint64_t>(want.value));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.peakVelocity),
                    std::bit_cast<std::uint64_t>(want.peakVelocity));
          EXPECT_EQ(health::FieldMonitor::allFinite(g),
                    want.verdict == health::Verdict::Healthy);
          ++cases;
        }
  EXPECT_EQ(cases, 2u * 9u * 8u * 4u);
}

// --- checkpoint generation inspection --------------------------------------

TEST_F(HealthTest, ValidStepsListsIntactGenerations) {
  io::CheckpointStore store((dir_ / "ckpt").string());
  const std::vector<std::byte> state(256, std::byte{7});
  EXPECT_TRUE(store.validSteps(0).empty());
  store.write(0, 10, state);
  store.write(0, 20, state);
  const auto steps = store.validSteps(0);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0], 20u);  // newest first
  EXPECT_EQ(steps[1], 10u);
}

// --- the flagship scenario: poison -> detect -> rollback -> complete -------

TEST_F(HealthTest, PoisonedCellRollsBackAndCompletes) {
  const grid::GridDims dims{28, 20, 14};
  const CartTopology topo(Dims3{2, 1, 1});
  const std::string ckptDir = (dir_ / "ckpt").string();

  // NaN injected on rank 0 while entering step 22; checkpoints at steps
  // 10 and 20; monitor scans every 5 steps. Expected: detection at the
  // step-25 scan, rollback to step 20, dt halved, clean completion.
  fault::FaultPlan plan;
  plan.poison("solver.step", /*rank=*/0, /*occurrence=*/23);
  fault::FaultInjector injector(std::move(plan), /*seed=*/99);
  fault::ScopedInjection scope(injector);

  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    core::SolverConfig config;
    config.globalDims = dims;
    config.h = 600.0;
    config.spongeWidth = 4;
    config.health.enabled = true;
    config.health.monitor.everySteps = 5;
    io::CheckpointStore store(ckptDir);
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    solver.attachCheckpoints(&store, 10);
    solver.addSource(core::explosionPointSource(
        14, 10, 7,
        core::rickerWavelet(2.0, 0.5, solver.dt(), 40, 1e15)));
    const double dt0 = solver.dt();

    solver.run(40);

    EXPECT_EQ(solver.currentStep(), 40u);
    EXPECT_TRUE(health::FieldMonitor::allFinite(solver.grid()));
    EXPECT_DOUBLE_EQ(solver.dt(), 0.5 * dt0);  // one CFL tightening

    ASSERT_NE(solver.healthGuard(), nullptr);
    const auto* guard = solver.healthGuard();
    EXPECT_EQ(guard->rollbacksUsed(), 1);
    // Verdict trail (identical shape on every rank): clean preflight, the
    // Fatal scan naming rank 0, the rollback.
    const auto& events = guard->events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, health::EventKind::Preflight);
    EXPECT_EQ(events[0].verdict, health::Verdict::Healthy);
    EXPECT_EQ(events[1].kind, health::EventKind::Scan);
    EXPECT_EQ(events[1].verdict, health::Verdict::Fatal);
    EXPECT_EQ(events[1].step, 25u);  // within one monitor interval of 22
    EXPECT_EQ(events[1].offenderRank, 0);
    EXPECT_NE(events[1].detail.find("non-finite"), std::string::npos);
    EXPECT_EQ(events[2].kind, health::EventKind::Rollback);
    EXPECT_NE(events[2].detail.find("from step 25 to step 21"),
              std::string::npos);
  });
  EXPECT_EQ(injector.faultsInjected(), 1u);
}

TEST_F(HealthTest, GuardDisabledLetsThePoisonThrough) {
  // Control for the scenario above: the identical injection without the
  // guard runs to completion with a non-finite field — proving the guard
  // (not the injection plumbing) is what saves the run.
  const grid::GridDims dims{28, 20, 14};
  const CartTopology topo(Dims3{2, 1, 1});

  fault::FaultPlan plan;
  plan.poison("solver.step", /*rank=*/0, /*occurrence=*/23);
  fault::FaultInjector injector(std::move(plan), /*seed=*/99);
  fault::ScopedInjection scope(injector);

  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    core::SolverConfig config;
    config.globalDims = dims;
    config.h = 600.0;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    solver.addSource(core::explosionPointSource(
        14, 10, 7,
        core::rickerWavelet(2.0, 0.5, solver.dt(), 40, 1e15)));
    solver.run(40);
    EXPECT_EQ(solver.currentStep(), 40u);
    if (comm.rank() == 0) {
      EXPECT_FALSE(health::FieldMonitor::allFinite(solver.grid()));
    }
  });
  EXPECT_EQ(injector.faultsInjected(), 1u);
}

TEST_F(HealthTest, CollectiveVetoProtectsTheRollbackTarget) {
  // Checkpoints every 5 steps but scans only every 25: the NaN injected
  // entering step 11 sits undetected across THREE checkpoint cadences.
  // Every rank must veto those writes (rank 1 is clean — a local veto
  // would let it rotate its two generations past the common step 10),
  // so the step-25 scan can still roll everyone back to step 10.
  const grid::GridDims dims{28, 20, 14};
  const CartTopology topo(Dims3{2, 1, 1});
  const std::string ckptDir = (dir_ / "ckpt").string();

  fault::FaultPlan plan;
  plan.poison("solver.step", /*rank=*/0, /*occurrence=*/12);
  fault::FaultInjector injector(std::move(plan), /*seed=*/7);
  fault::ScopedInjection scope(injector);

  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    core::SolverConfig config;
    config.globalDims = dims;
    config.h = 600.0;
    config.spongeWidth = 4;
    config.health.enabled = true;
    config.health.monitor.everySteps = 25;
    io::CheckpointStore store(ckptDir);
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    solver.attachCheckpoints(&store, 5);
    solver.addSource(core::explosionPointSource(
        14, 10, 7,
        core::rickerWavelet(2.0, 0.5, solver.dt(), 30, 1e15)));

    solver.run(30);

    EXPECT_EQ(solver.currentStep(), 30u);
    EXPECT_TRUE(health::FieldMonitor::allFinite(solver.grid()));
    ASSERT_NE(solver.healthGuard(), nullptr);
    const auto* guard = solver.healthGuard();
    EXPECT_EQ(guard->rollbacksUsed(), 1);
    int vetoes = 0;
    for (const auto& e : guard->events())
      if (e.kind == health::EventKind::CheckpointVeto) ++vetoes;
    // The step-15 and step-20 checkpoints carried the poison — vetoed on
    // BOTH ranks. (The step-25 scan fires before the step-25 write, so
    // that one becomes a rollback, not a veto.)
    EXPECT_EQ(vetoes, 2) << "rank " << comm.rank();
  });
}

TEST_F(HealthTest, AbortDumpWhenNothingToRestore) {
  // Without a checkpoint store the guard cannot recover: the run must die
  // on every rank with the structured dump, not hang or return garbage.
  fault::FaultPlan plan;
  plan.poison("solver.step", /*rank=*/0, /*occurrence=*/3);
  fault::FaultInjector injector(std::move(plan), /*seed=*/5);
  fault::ScopedInjection scope(injector);

  std::string what;
  try {
    ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
      CartTopology topo(Dims3{1, 1, 1});
      core::SolverConfig config;
      config.globalDims = {16, 12, 10};
      config.h = 600.0;
      config.spongeWidth = 3;
      config.health.enabled = true;
      config.health.monitor.everySteps = 5;
      core::WaveSolver solver(comm, topo, config,
                              vmodel::Material{5200.0f, 3000.0f, 2700.0f});
      solver.run(10);
    });
  } catch (const Error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("[health] FATAL at step 5"), std::string::npos) << what;
  EXPECT_NE(what.find("offending rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
  EXPECT_NE(what.find("trail:"), std::string::npos) << what;
}

TEST_F(HealthTest, FencedRollbackLeavesThePeerAbortToWin) {
  // Only rank 0 can roll back. On the Fatal verdict rank 1 throws its abort
  // dump while rank 0 waits in restart()'s allreduce, where the fence
  // unwinds it. That fence is not a failure of rank 0: the run must rethrow
  // rank 1's dump, not a "rollback failed" that wins by rank order.
  const std::string ckptDir = (dir_ / "ckpt").string();
  std::string what;
  try {
    ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
      const CartTopology topo(Dims3{2, 1, 1});
      core::SolverConfig config;
      config.globalDims = {28, 20, 14};
      config.h = 600.0;
      config.spongeWidth = 4;
      config.health.enabled = true;
      config.health.monitor.everySteps = 5;
      io::CheckpointStore store(ckptDir);
      core::WaveSolver solver(comm, topo, config,
                              vmodel::Material{5200.0f, 3000.0f, 2700.0f});
      if (comm.rank() == 0) solver.attachCheckpoints(&store, 1000);
      solver.run(10, [&](std::size_t step) {
        if (comm.rank() == 0 && step == 3)
          solver.grid().field(grid::FieldId::U)(5, 5, 5) =
              std::numeric_limits<float>::quiet_NaN();
      });
    });
  } catch (const Error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("[health] FATAL at step 5"), std::string::npos) << what;
  EXPECT_EQ(what.find("rollback failed"), std::string::npos) << what;
}

// --- watchdog --------------------------------------------------------------

TEST(Watchdog, ReportsTheStalledRankInsteadOfHanging) {
  // Rank 1 wedges for 1.2 s entering step 7 (before publishing its beat),
  // so its last heartbeat stays at step 6 while rank 0 beats step 7 and
  // then blocks on the halo exchange. The watchdog must name rank 1.
  const CartTopology topo(Dims3{2, 1, 1});
  health::HeartbeatBoard board(2);
  health::Watchdog watchdog(board, /*stallTimeoutSeconds=*/0.3, nullptr,
                            /*pollIntervalSeconds=*/0.02);

  fault::FaultPlan plan;
  plan.stall("solver.step", /*rank=*/1, /*occurrence=*/8, /*seconds=*/1.2);
  fault::FaultInjector injector(std::move(plan), /*seed=*/3);
  fault::ScopedInjection scope(injector);

  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    core::SolverConfig config;
    config.globalDims = {16, 12, 10};
    config.h = 600.0;
    config.spongeWidth = 3;
    config.health.enabled = true;
    config.health.monitor.everySteps = 0;  // watchdog-only
    config.health.heartbeats = &board;
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    solver.run(20);
    EXPECT_EQ(solver.currentStep(), 20u);
  });
  watchdog.stop();

  const auto reports = watchdog.reports();
  ASSERT_GE(reports.size(), 1u);
  EXPECT_EQ(reports[0].rank, 1);
  EXPECT_EQ(reports[0].lastStep, 6u);
  EXPECT_GE(reports[0].stalledSeconds, 0.3);
  EXPECT_FALSE(reports[0].stalledRanks.empty());
}

TEST(Watchdog, StopDoesNotWaitOutThePoll) {
  // stop() wakes the scan thread out of its poll wait: with a 5 s poll a
  // sleeping scan thread would hold the join for up to 5 s.
  health::HeartbeatBoard board(1);
  health::Watchdog watchdog(board, /*stallTimeoutSeconds=*/30.0, nullptr,
                            /*pollIntervalSeconds=*/5.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  watchdog.stop();
  const double stopSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  EXPECT_LT(stopSeconds, 0.5);
  EXPECT_TRUE(watchdog.reports().empty());
}

TEST(Watchdog, HeartbeatBoardTracksBeats) {
  health::HeartbeatBoard board(3);
  EXPECT_EQ(board.size(), 3);
  EXPECT_FALSE(board.last(1).seen);
  board.beat(1, 42);
  const auto b = board.last(1);
  EXPECT_TRUE(b.seen);
  EXPECT_EQ(b.step, 42u);
  EXPECT_FALSE(board.last(0).seen);
}

// --- comm support ----------------------------------------------------------

TEST(Allgather, CollectsPerRankValuesEverywhere) {
  ThreadCluster::run(3, [&](vcluster::Communicator& comm) {
    const auto all = comm.allgather(10 * (comm.rank() + 1));
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0], 10);
    EXPECT_EQ(all[1], 20);
    EXPECT_EQ(all[2], 30);
  });
}

// --- runtime configuration -------------------------------------------------

TEST(RuntimeConfigHealth, ParsesHealthKeys) {
  const auto config = core::parseRuntimeConfig(
      "health = on\n"
      "health_interval = 10\n"
      "health_max_rollbacks = 2\n"
      "health_dt_tighten = 0.25\n"
      "health_growth_limit = 50\n");
  const auto& h = config.solver.health;
  EXPECT_TRUE(h.enabled);
  EXPECT_EQ(h.monitor.everySteps, 10);
  EXPECT_EQ(h.maxRollbacks, 2);
  EXPECT_DOUBLE_EQ(h.dtTighten, 0.25);
  EXPECT_DOUBLE_EQ(h.monitor.growthLimit, 50.0);
}

TEST(RuntimeConfigHealth, RejectsInvalidValues) {
  EXPECT_THROW(core::parseRuntimeConfig("health_dt_tighten = 1.5\n"), Error);
  EXPECT_THROW(core::parseRuntimeConfig("health_interval = 0\n"), Error);
  EXPECT_THROW(core::parseRuntimeConfig("health_growth_limit = 1\n"), Error);
}

TEST(RuntimeConfigHealth, ParsesRewidenAndTelemetryKeys) {
  const auto config = core::parseRuntimeConfig(
      "health_dt_rewiden_window = 3\n"
      "health_dt_rewiden = 1.5\n"
      "telemetry_interval = 100\n"
      "telemetry_report = Out/Report.json\n"
      "telemetry_trace = Out/trace\n");
  EXPECT_EQ(config.solver.health.dtRewidenWindow, 3);
  EXPECT_DOUBLE_EQ(config.solver.health.dtRewiden, 1.5);
  EXPECT_EQ(config.solver.telemetry.reportEverySteps, 100);
  // Path values keep their case (only enum/switch values are folded).
  EXPECT_EQ(config.solver.telemetry.reportPath, "Out/Report.json");
  EXPECT_EQ(config.solver.telemetry.tracePathPrefix, "Out/trace");

  EXPECT_THROW(core::parseRuntimeConfig("health_dt_rewiden = 1\n"), Error);
  EXPECT_THROW(core::parseRuntimeConfig("health_dt_rewiden_window = -1\n"),
               Error);
  EXPECT_THROW(core::parseRuntimeConfig("telemetry_interval = -5\n"), Error);
}

// --- dt re-widening --------------------------------------------------------

TEST_F(HealthTest, DtRewidensAfterHealthyStreak) {
  // The PoisonedCellRollsBackAndCompletes scenario with re-widening
  // enabled: rollback at the step-25 scan halves dt; the Healthy scans at
  // 30 and 35 complete the streak and dt walks back to the baseline.
  const grid::GridDims dims{28, 20, 14};
  const CartTopology topo(Dims3{2, 1, 1});
  const std::string ckptDir = (dir_ / "ckpt").string();

  fault::FaultPlan plan;
  plan.poison("solver.step", /*rank=*/0, /*occurrence=*/23);
  fault::FaultInjector injector(std::move(plan), /*seed=*/99);
  fault::ScopedInjection scope(injector);

  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    core::SolverConfig config;
    config.globalDims = dims;
    config.h = 600.0;
    config.spongeWidth = 4;
    config.health.enabled = true;
    config.health.monitor.everySteps = 5;
    config.health.dtRewidenWindow = 2;
    config.health.dtRewiden = 2.0;
    io::CheckpointStore store(ckptDir);
    core::WaveSolver solver(comm, topo, config,
                            vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    solver.attachCheckpoints(&store, 10);
    solver.addSource(core::explosionPointSource(
        14, 10, 7,
        core::rickerWavelet(2.0, 0.5, solver.dt(), 40, 1e15)));
    const double dt0 = solver.dt();

    solver.run(40);

    EXPECT_EQ(solver.currentStep(), 40u);
    EXPECT_TRUE(health::FieldMonitor::allFinite(solver.grid()));
    // dt walked all the way back to the pre-rollback baseline, and the
    // walk-back never overshoots it.
    EXPECT_DOUBLE_EQ(solver.dt(), dt0);

    ASSERT_NE(solver.healthGuard(), nullptr);
    const auto& events = solver.healthGuard()->events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[2].kind, health::EventKind::Rollback);
    EXPECT_EQ(events[3].kind, health::EventKind::DtRewiden);
    EXPECT_NE(events[3].detail.find("after 2 consecutive Healthy scans"),
              std::string::npos);
    // Exactly one widening: once dt is back at the baseline, later Healthy
    // streaks must not push it beyond.
    int rewidens = 0;
    for (const auto& e : events)
      if (e.kind == health::EventKind::DtRewiden) ++rewidens;
    EXPECT_EQ(rewidens, 1);
  });
  EXPECT_EQ(injector.faultsInjected(), 1u);
}

// --- rupture preflight -----------------------------------------------------

health::RupturePreflightContext ruptureCtx(std::size_t nodes,
                                           std::size_t supercritical) {
  health::RupturePreflightContext ctx;
  ctx.nodes.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    health::RuptureNode node;
    node.gi = n;
    node.gk = 3;
    node.sigmaN = -60.0e6;  // 60 MPa compression
    node.depth = 5000.0;
    // Static strength = cohesion + muS * 60 MPa = 1 MPa + 45 MPa.
    node.tau0 = n < supercritical ? 50.0e6 : 20.0e6;
    ctx.nodes.push_back(node);
  }
  return ctx;
}

TEST(RupturePreflight, AcceptsBoundedNucleationPatch) {
  std::size_t supercritical = 0;
  const auto report =
      health::runRupturePreflight(ruptureCtx(100, 10), &supercritical);
  EXPECT_EQ(report.verdict, health::Verdict::Healthy);
  EXPECT_EQ(supercritical, 10u);
}

TEST(RupturePreflight, RejectsUnphysicalFrictionParameters) {
  auto ctx = ruptureCtx(4, 1);
  ctx.dc = 0.0;
  auto report = health::runRupturePreflight(ctx, nullptr);
  EXPECT_EQ(report.verdict, health::Verdict::Fatal);
  EXPECT_NE(health::describeIssues(report.issues).find("dc"),
            std::string::npos);

  ctx = ruptureCtx(4, 1);
  ctx.muS = -0.1;
  EXPECT_EQ(health::runRupturePreflight(ctx, nullptr).verdict,
            health::Verdict::Fatal);

  ctx = ruptureCtx(4, 1);
  ctx.cohesion = -1.0;
  EXPECT_EQ(health::runRupturePreflight(ctx, nullptr).verdict,
            health::Verdict::Fatal);

  // Slip-strengthening is suspicious but survivable.
  ctx = ruptureCtx(4, 1);
  ctx.muD = ctx.muS + 0.1;
  EXPECT_EQ(health::runRupturePreflight(ctx, nullptr).verdict,
            health::Verdict::Degraded);
}

TEST(RupturePreflight, FlagsBrokenNodesWithCellDiagnostics) {
  auto ctx = ruptureCtx(8, 1);
  ctx.nodes[5].tau0 = std::numeric_limits<double>::quiet_NaN();
  const auto report = health::runRupturePreflight(ctx, nullptr);
  EXPECT_EQ(report.verdict, health::Verdict::Fatal);
  // The diagnostic names the fault cell.
  EXPECT_NE(health::describeIssues(report.issues).find("(5,3)"),
            std::string::npos);

  auto tensile = ruptureCtx(8, 1);
  tensile.nodes[2].sigmaN = 1.0e6;  // tension
  EXPECT_EQ(health::runRupturePreflight(tensile, nullptr).verdict,
            health::Verdict::Degraded);
}

TEST(RupturePreflight, CollectiveJudgesGlobalSupercriticalFraction) {
  // The nucleation patch lives entirely on rank 0: locally 40% of rank 0's
  // nodes are supercritical, globally only 10% — the collective check must
  // pass where a per-rank check would abort.
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    const auto ctx =
        comm.rank() == 0 ? ruptureCtx(25, 10) : ruptureCtx(75, 0);
    const auto report = health::collectiveRupturePreflight(comm, ctx);
    EXPECT_EQ(report.verdict, health::Verdict::Healthy);
  });

  // A fault supercritical over half its area aborts on EVERY rank, with
  // the per-rank verdict table in the message.
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    const auto ctx =
        comm.rank() == 0 ? ruptureCtx(50, 50) : ruptureCtx(50, 0);
    try {
      health::collectiveRupturePreflight(comm, ctx);
      ADD_FAILURE() << "expected Fatal on rank " << comm.rank();
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("rupture preflight failed"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("r0=Fatal"), std::string::npos);
    }
  });

  // Zero supercritical nodes anywhere: Degraded (cannot nucleate), no
  // throw.
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    const auto report =
        health::collectiveRupturePreflight(comm, ruptureCtx(50, 0));
    EXPECT_EQ(report.verdict, health::Verdict::Degraded);
    EXPECT_NE(health::describeIssues(report.issues).find("cannot nucleate"),
              std::string::npos);
  });
}

}  // namespace
}  // namespace awp
