// Physics and parallel-correctness tests for the AWM wave solver: wave
// speeds, radiation symmetry, free surface, absorbing boundaries,
// attenuation, kernel-variant equivalence and golden wavefield bits,
// plane-wave convergence order, decomposition invariance, and
// checkpoint/restart.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "core/solver.hpp"
#include "io/shared_file.hpp"
#include "mesh/partitioner.hpp"
#include "util/error.hpp"
#include "util/fp_env.hpp"
#include "util/md5.hpp"
#include "vcluster/cluster.hpp"

namespace awp::core {
namespace {

using grid::FieldId;
using grid::kHalo;
using vcluster::CartTopology;
using vcluster::Dims3;
using vcluster::ThreadCluster;

vmodel::Material rock() { return {5196.0f, 3000.0f, 2700.0f}; }

SolverConfig baseConfig(std::size_t n = 32) {
  SolverConfig c;
  c.globalDims = {n, n, n};
  c.h = 100.0;
  c.absorbing = AbsorbingType::Sponge;
  c.spongeWidth = 8;
  return c;
}

// Run a single-rank solver with an explosion at the center and return the
// gathered traces at the requested surface receivers.
std::vector<SeismogramTrace> runExplosion(
    const SolverConfig& config, Dims3 dims, std::size_t steps,
    const std::vector<std::pair<std::size_t, std::size_t>>& receivers,
    double f0 = 4.0) {
  std::vector<SeismogramTrace> out;
  ThreadCluster::run(dims.total(), [&](vcluster::Communicator& comm) {
    CartTopology topo(dims);
    WaveSolver solver(comm, topo, config, rock());
    const auto n = config.globalDims.nx;
    const double dt = solver.config().dt;
    solver.addSource(explosionPointSource(
        n / 2, n / 2, config.globalDims.nz / 2,
        rickerWavelet(f0, 1.5 / f0, dt, steps, 1e16)));
    int r = 0;
    for (auto [gi, gj] : receivers)
      solver.addReceiver("r" + std::to_string(r++), gi, gj);
    solver.run(steps);
    auto traces = solver.receivers().gather(comm);
    if (comm.rank() == 0) out = std::move(traces);
  });
  return out;
}

TEST(SourceHelpers, RickerPeaksAtDelay) {
  const auto w = rickerWavelet(2.0, 0.5, 0.01, 200);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < w.size(); ++i)
    if (w[i] > w[peak]) peak = i;
  EXPECT_NEAR(static_cast<double>(peak) * 0.01, 0.5, 0.011);
}

TEST(SourceHelpers, MomentMagnitude) {
  // "a total seismic moment of 1.0e21 Nm (Mw = 8.0)" (§VII.A).
  EXPECT_NEAR(momentMagnitude(1.0e21), 8.0, 0.04);
  EXPECT_NEAR(momentMagnitude(1.12e20), 7.33, 0.05);
}

TEST(Solver, AutoDtSatisfiesCfl) {
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    WaveSolver solver(comm, topo, baseConfig(16), rock());
    const double dt = solver.config().dt;
    EXPECT_NEAR(dt, 0.45 * 100.0 / 5196.0, 1e-6);
  });
}

TEST(Solver, PWaveArrivesAtTheRightTime) {
  // Explosion at the center of a 48^3 box; receiver on the surface right
  // above. The first P arrival should be near r / vp.
  auto config = baseConfig(48);
  const std::size_t steps = 260;
  const auto traces =
      runExplosion(config, Dims3{1, 1, 1}, steps, {{24, 24}}, 5.0);
  ASSERT_EQ(traces.size(), 1u);
  const auto& w = traces[0].w;

  // First time |w| exceeds 5% of its peak.
  float peak = 0.0f;
  for (float v : w) peak = std::max(peak, std::abs(v));
  ASSERT_GT(peak, 0.0f);
  std::size_t first = 0;
  while (first < w.size() && std::abs(w[first]) < 0.05f * peak) ++first;

  const double dt = 0.45 * 100.0 / 5196.0;
  const double distance = 23.5 * 100.0;  // center to surface plane
  const double expected = distance / 5196.0 + 0.15;  // + source onset ramp
  const double measured = static_cast<double>(first) * dt;
  EXPECT_NEAR(measured, expected, 0.15);
}

TEST(Solver, ExplosionRadiationIsSymmetric) {
  // The interior operator is exactly mirror-symmetric (the asymmetry of a
  // truncated staggered lattice only enters through the boundaries), so an
  // explosion at the center of an odd grid must radiate bitwise-
  // symmetrically as long as no wave has touched a boundary. Mirror pairs
  // respect the staggering: w sits at integer (i, j) and mirrors cell-to-
  // cell about i = 16; u sits at i - 1/2, so the mirror of node i = 10
  // (x = 9.5) is node i = 23 (x = 22.5); same for v in y (j = 10 -> 21).
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    auto config = baseConfig(33);
    config.absorbing = AbsorbingType::None;
    config.freeSurface = false;
    WaveSolver solver(comm, topo, config, rock());
    const double dt = solver.config().dt;
    // Emission finishes by ~step 50; the wavefront needs ~36 steps from
    // the source to a face, so nothing reaches a boundary within 60 steps.
    solver.addSource(explosionPointSource(
        16, 16, 16, rickerWavelet(6.0, 0.25, dt, 60, 1e16)));
    bool sawSignal = false;
    for (int n = 0; n < 45; ++n) {
      solver.step();
      auto& g = solver.grid();
      const std::size_t K = kHalo + 16;
      ASSERT_EQ(g.w(kHalo + 10, kHalo + 16, K),
                g.w(kHalo + 22, kHalo + 16, K));
      ASSERT_EQ(g.u(kHalo + 10, kHalo + 16, K),
                -g.u(kHalo + 23, kHalo + 16, K));
      ASSERT_EQ(g.w(kHalo + 16, kHalo + 10, K),
                g.w(kHalo + 16, kHalo + 22, K));
      ASSERT_EQ(g.v(kHalo + 16, kHalo + 10, K),
                -g.v(kHalo + 16, kHalo + 21, K));
      if (std::abs(g.w(kHalo + 10, kHalo + 16, K)) > 0.0f)
        sawSignal = true;
    }
    EXPECT_TRUE(sawSignal);
  });
}

TEST(Solver, FreeSurfaceKeepsTractionImagesExact) {
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    auto config = baseConfig(24);
    WaveSolver solver(comm, topo, config, rock());
    const double dt = solver.config().dt;
    solver.addSource(explosionPointSource(
        12, 12, 12, rickerWavelet(4.0, 0.4, dt, 100, 1e15)));
    solver.run(100);
    auto& g = solver.grid();
    const std::size_t T = kHalo + g.dims().nz - 1;
    for (std::size_t j = kHalo; j < kHalo + g.dims().ny; ++j)
      for (std::size_t i = kHalo; i < kHalo + g.dims().nx; ++i) {
        ASSERT_EQ(g.xz(i, j, T), 0.0f);
        ASSERT_EQ(g.yz(i, j, T), 0.0f);
        ASSERT_EQ(g.zz(i, j, T + 1), -g.zz(i, j, T));
      }
  });
}

TEST(Solver, SurfaceMotionIsNonZeroWithFreeSurface) {
  auto config = baseConfig(32);
  const auto traces = runExplosion(config, Dims3{1, 1, 1}, 160, {{16, 16}});
  float peak = 0.0f;
  for (float v : traces[0].w) peak = std::max(peak, std::abs(v));
  EXPECT_GT(peak, 0.0f);
}

TEST(Solver, SurfaceOutputRejectsZeroSampleCadence) {
  // observationPhase divides the step by sampleEverySteps.
  const auto path = std::filesystem::temp_directory_path() /
                    ("awp_surf0_" + std::to_string(::getpid()) + ".bin");
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    WaveSolver solver(comm, topo, baseConfig(32), rock());
    io::SharedFile file(path.string(), io::SharedFile::Mode::Write);
    SurfaceOutputConfig out;
    out.file = &file;
    out.sampleEverySteps = 0;
    EXPECT_THROW(solver.attachSurfaceOutput(out), Error);
  });
  std::filesystem::remove(path);
}

double residualEnergyAfterExit(AbsorbingType type, int width) {
  // Deep source so the wavefront hits the sides and bottom; run long
  // enough for everything to leave a 32^3 box, then measure what's left.
  double residual = 0.0, peak = 0.0;
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    auto config = baseConfig(32);
    config.absorbing = type;
    config.spongeWidth = width;
    config.pml.width = width;
    WaveSolver solver(comm, topo, config, rock());
    const double dt = solver.config().dt;
    solver.addSource(explosionPointSource(
        16, 16, 16, rickerWavelet(5.0, 0.3, dt, 60, 1e15)));
    for (int s = 0; s < 400; ++s) {
      solver.step();
      peak = std::max(peak, solver.grid().kineticEnergy());
    }
    residual = solver.grid().kineticEnergy();
  });
  return residual / peak;
}

TEST(Absorbing, SpongeDrainsEnergy) {
  const double none = residualEnergyAfterExit(AbsorbingType::None, 0);
  const double sponge = residualEnergyAfterExit(AbsorbingType::Sponge, 8);
  EXPECT_LT(sponge, 0.05);
  EXPECT_LT(sponge, none * 0.5);
}

TEST(Absorbing, PmlAbsorbsBetterThanSponge) {
  // §II.D: "the ability of the sponge layers to absorb reflections is
  // poorer than PMLs".
  const double sponge = residualEnergyAfterExit(AbsorbingType::Sponge, 8);
  const double pml = residualEnergyAfterExit(AbsorbingType::Pml, 8);
  EXPECT_LT(pml, sponge);
  EXPECT_LT(pml, 0.02);
}

TEST(Attenuation, LowQReducesAmplitude) {
  auto runWithQ = [&](bool attenuation, double q) {
    float peak = 0.0f;
    ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
      CartTopology topo(Dims3{1, 1, 1});
      auto config = baseConfig(40);
      config.attenuation.enabled = attenuation;
      config.attenuation.fMin = 0.5;
      config.attenuation.fMax = 10.0;
      WaveSolver solver(comm, topo, config, rock());
      if (attenuation) {
        solver.grid().qsInv.fill(static_cast<float>(2.0 / q));
        solver.grid().qpInv.fill(static_cast<float>(2.0 / q));
      }
      const double dt = solver.config().dt;
      solver.addSource(explosionPointSource(
          20, 20, 8, rickerWavelet(5.0, 0.3, dt, 80, 1e15)));
      solver.addReceiver("top", 20, 20);
      solver.run(250);
      const auto traces = solver.receivers().gather(comm);
      if (comm.rank() == 0)
        for (float v : traces[0].w) peak = std::max(peak, std::abs(v));
    });
    return peak;
  };
  const float elastic = runWithQ(false, 0.0);
  const float q10 = runWithQ(true, 10.0);
  const float q50 = runWithQ(true, 50.0);
  ASSERT_GT(elastic, 0.0f);
  // Attenuation reduces amplitude, more so for lower Q.
  EXPECT_LT(q10, 0.9f * elastic);
  EXPECT_LT(q10, q50);
  // Sanity: Q=10 over ~3.1 km at ~5 Hz with vp ~5.2 km/s predicts roughly
  // exp(-pi f r / (Q c)) ~ 0.4; allow a generous band for the
  // coarse-grained scheme.
  EXPECT_GT(q10, 0.15f * elastic);
  EXPECT_LT(q10, 0.8f * elastic);
}

TEST(Kernels, VariantsAgree) {
  // All §IV.B variants must produce the same physics.
  auto runVariant = [&](bool recip, bool blocked, bool unrolled) {
    std::vector<float> result;
    ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
      CartTopology topo(Dims3{1, 1, 1});
      auto config = baseConfig(24);
      config.kernels.useReciprocals = recip;
      config.kernels.cacheBlocked = blocked;
      config.kernels.unrolled = unrolled;
      WaveSolver solver(comm, topo, config, rock());
      const double dt = solver.config().dt;
      solver.addSource(explosionPointSource(
          12, 12, 12, rickerWavelet(4.0, 0.4, dt, 60, 1e15)));
      solver.run(60);
      const auto& u = solver.grid().u;
      result.assign(u.data(), u.data() + u.size());
    });
    return result;
  };
  const auto reference = runVariant(true, false, false);
  float refPeak = 0.0f;
  for (float v : reference) refPeak = std::max(refPeak, std::abs(v));
  ASSERT_GT(refPeak, 0.0f);

  for (auto [recip, blocked, unrolled] :
       {std::array<bool, 3>{false, false, false},
        {true, true, false},
        {true, false, true},
        {true, true, true}}) {
    const auto got = runVariant(recip, blocked, unrolled);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t n = 0; n < got.size(); ++n)
      ASSERT_NEAR(got[n], reference[n], 1e-5f * refPeak)
          << "variant recip=" << recip << " blocked=" << blocked
          << " unrolled=" << unrolled;
  }
}

// Golden wavefield pin: MD5 over the interiors of the nine wavefields after
// 60 steps on a cell-by-cell heterogeneous medium (so the μ harmonic means
// of the shear updates see four distinct values), with a free surface, a
// sponge and both source kinds. The digests were taken from the original
// per-point kernel; every §IV.B variant and the hybrid thread pool must
// reproduce them bit for bit, and a 2x2x1 run its own pin. Stored and per-use
// reciprocals share a digest: mui holds exactly the float 1.0f / mu that
// the plain variant recomputes.
struct GoldenCase {
  bool recip = true;
  bool atten = false;
  bool blocked = false;
  bool unrolled = false;
  int threads = 1;
  Dims3 dims{1, 1, 1};
  // Adds a third source inside the x-max sponge (global x = 22).
  bool spongeSource = false;
};

// Interiors of u, v, w, xx, yy, zz, xy, xz, yz in global x-fastest order
// after `steps` steps.
std::vector<float> goldenWavefield(const GoldenCase& gc, std::size_t steps) {
  const grid::GridDims dims{24, 20, 16};
  SolverConfig config;
  config.globalDims = dims;
  config.h = 100.0;
  config.spongeWidth = 4;
  config.attenuation.enabled = gc.atten;
  config.kernels.useReciprocals = gc.recip;
  config.kernels.cacheBlocked = gc.blocked;
  config.kernels.kblock = 5;  // remainders on both blocked axes
  config.kernels.jblock = 3;
  config.kernels.unrolled = gc.unrolled;
  config.hybridThreads = gc.threads;

  const FieldId kFields[] = {FieldId::U,  FieldId::V,  FieldId::W,
                             FieldId::XX, FieldId::YY, FieldId::ZZ,
                             FieldId::XY, FieldId::XZ, FieldId::YZ};
  std::vector<float> global(9 * dims.count(), 0.0f);
  ThreadCluster::run(gc.dims.total(), [&](vcluster::Communicator& comm) {
    CartTopology topo(gc.dims);
    const mesh::MeshSpec spec{dims.nx, dims.ny, dims.nz, config.h, 0, 0};
    mesh::MeshBlock block;
    block.spec = mesh::subdomainFor(topo, spec, comm.rank());
    block.points.resize(block.spec.pointCount());
    for (std::size_t k = 0; k < block.spec.z.count(); ++k)
      for (std::size_t j = 0; j < block.spec.y.count(); ++j)
        for (std::size_t i = 0; i < block.spec.x.count(); ++i) {
          const std::size_t gi = block.spec.x.begin + i;
          const std::size_t gj = block.spec.y.begin + j;
          const std::size_t gk = block.spec.z.begin + k;
          const float vs = 1800.0f +
                           40.0f * static_cast<float>((gi * 7 + gj * 13 +
                                                        gk * 5) % 17) +
                           30.0f * static_cast<float>(gk);
          const float rho =
              2000.0f +
              10.0f * static_cast<float>((gi + 2 * gj + 3 * gk) % 11);
          block.at(i, j, k) = {1.8f * vs, vs, rho};
        }
    WaveSolver solver(comm, topo, config, block);
    const double dt = solver.config().dt;
    solver.addSource(explosionPointSource(
        11, 9, 8, rickerWavelet(4.0, 0.4, dt, 60, 1e15)));
    solver.addSource(strikeSlipPointSource(
        6, 13, 10, rickerWavelet(3.0, 0.5, dt, 60, 5e14)));
    if (gc.spongeSource) {
      solver.addSource(explosionPointSource(
          22, 9, 8, rickerWavelet(4.0, 0.4, dt, 60, 1e15)));
      // The rank that injects inside the sponge keeps the nine-field pass;
      // every other rank fuses the stress taper into the store.
      std::size_t li = 0, lj = 0, lk = 0;
      EXPECT_EQ(solver.spongeFused(),
                !solver.geometry().owns(22, 9, 8, li, lj, lk))
          << "rank " << comm.rank();
    } else {
      EXPECT_TRUE(solver.spongeFused()) << "rank " << comm.rank();
    }
    solver.run(steps);
    const auto& g = solver.grid();
    const auto& geo = solver.geometry();
    for (std::size_t f = 0; f < 9; ++f) {
      const auto& a = g.field(kFields[f]);
      for (std::size_t k = 0; k < g.dims().nz; ++k)
        for (std::size_t j = 0; j < g.dims().ny; ++j)
          for (std::size_t i = 0; i < g.dims().nx; ++i) {
            const std::size_t gi = geo.local.x.begin + i;
            const std::size_t gj = geo.local.y.begin + j;
            const std::size_t gk = geo.local.z.begin + k;
            global[f * dims.count() + gi + dims.nx * (gj + dims.ny * gk)] =
                a(i + kHalo, j + kHalo, k + kHalo);
          }
    }
  });
  return global;
}

std::string goldenWavefieldMd5(const GoldenCase& gc) {
  const std::vector<float> global = goldenWavefield(gc, 60);
  return Md5::hexDigest(global.data(), global.size() * sizeof(float));
}

TEST(Kernels, GoldenWavefield) {
  struct Pin {
    bool recip, atten;
    const char* md5;
  };
  const Pin pins[] = {
      {true, false, "c9821b33b6047190045caf4f88e02467"},
      {false, false, "c9821b33b6047190045caf4f88e02467"},
      {true, true, "04e2eed311d1c04ed4ae0a5eaea089d2"},
      {false, true, "04e2eed311d1c04ed4ae0a5eaea089d2"},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(::testing::Message()
                 << "recip=" << pin.recip << " atten=" << pin.atten);
    GoldenCase gc;
    gc.recip = pin.recip;
    gc.atten = pin.atten;
    EXPECT_EQ(goldenWavefieldMd5(gc), pin.md5) << "reference";
    GoldenCase blocked = gc;
    blocked.blocked = true;
    EXPECT_EQ(goldenWavefieldMd5(blocked), pin.md5) << "blocked";
    GoldenCase unrolled = gc;
    unrolled.unrolled = true;
    EXPECT_EQ(goldenWavefieldMd5(unrolled), pin.md5) << "unrolled";
    GoldenCase hybrid = gc;
    hybrid.threads = 2;
    EXPECT_EQ(goldenWavefieldMd5(hybrid), pin.md5) << "hybridThreads=2";
  }
  // The decomposed run carries its own pin: on a heterogeneous medium it
  // differs from the single-rank run because the asynchronous material
  // exchange leaves the x-y edge halo cells clamp-filled, and the shear
  // stresses next to a rank edge read μ there (uniform media are
  // unaffected). Fixing that exchange should make this digest equal to
  // pins[2].md5.
  GoldenCase split;
  split.atten = true;
  split.dims = Dims3{2, 2, 1};
  EXPECT_EQ(goldenWavefieldMd5(split), "97543965f0b45e31b281915cca3c9149")
      << "2x2x1";
}

// A source inside the sponge is injected after the stress store, so its
// rank keeps the nine-field sponge pass while the other rank of a 2x1x1
// split fuses the taper into the store. Both send tapered stresses across
// the halo, so either run reproduces the digest pinned before the taper
// moved into the store.
TEST(Kernels, SourceInTheSpongeKeepsThePass) {
  GoldenCase single;
  single.spongeSource = true;
  EXPECT_EQ(goldenWavefieldMd5(single), "ed69bbcef8fa008b2e7d761fbbb8a4f9")
      << "1x1x1";
  GoldenCase split = single;
  split.dims = Dims3{2, 1, 1};
  EXPECT_EQ(goldenWavefieldMd5(split), "26e4e5e454328f54a4d47ee253b81246")
      << "2x1x1";
}

// The damped store is the sponge's own stress pass, fused: for every
// kernel variant, updateStress with the SpongeLayer's taper followed by
// the velocity-only pass leaves the interior of every field and memory
// variable bit-identical to the plain store followed by the nine-field
// pass. (Stress halo cells are the exchange's: it overwrites them with the
// owner's tapered values.) The single rank touches every damped face, and
// width 4 on 20x18x14 gives it x-only rows (fy * fz == 1) as well as fully
// tapered ones.
TEST(Kernels, DampedStoreMatchesTheSpongePass) {
  const grid::GridDims dims{20, 18, 14};
  const DomainGeometry geom = DomainGeometry::single(dims);
  mesh::MeshBlock block;
  block.spec = geom.local;
  block.points.resize(block.spec.pointCount());
  for (std::size_t k = 0; k < dims.nz; ++k)
    for (std::size_t j = 0; j < dims.ny; ++j)
      for (std::size_t i = 0; i < dims.nx; ++i) {
        const float vs =
            1800.0f +
            40.0f * static_cast<float>((i * 7 + j * 13 + k * 5) % 17);
        const float rho =
            2000.0f + 10.0f * static_cast<float>((i + 2 * j + 3 * k) % 11);
        block.at(i, j, k) = {1.8f * vs, vs, rho};
      }
  // Interiors of the nine wavefields and, under attenuation, the six
  // memory variables.
  const auto interiors = [&](grid::StaggeredGrid& g) {
    std::vector<const Array3f*> fields = {&g.u,  &g.v,  &g.w,  &g.xx, &g.yy,
                                          &g.zz, &g.xy, &g.xz, &g.yz};
    if (g.attenuation().enabled)
      fields.insert(fields.end(),
                    {&g.rxx, &g.ryy, &g.rzz, &g.rxy, &g.rxz, &g.ryz});
    std::vector<float> out;
    for (const Array3f* f : fields)
      for (std::size_t k = kHalo; k < kHalo + dims.nz; ++k)
        for (std::size_t j = kHalo; j < kHalo + dims.ny; ++j)
          for (std::size_t i = kHalo; i < kHalo + dims.nx; ++i)
            out.push_back((*f)(i, j, k));
    return out;
  };
  ThreadPool pool(2);
  KernelOptions plain;
  plain.useReciprocals = false;
  KernelOptions recip;
  KernelOptions unrolled;
  unrolled.unrolled = true;
  KernelOptions blocked;
  blocked.cacheBlocked = true;
  blocked.kblock = 5;
  blocked.jblock = 3;
  KernelOptions hybrid;
  hybrid.pool = &pool;
  const std::pair<const char*, KernelOptions> variants[] = {
      {"plain", plain},   {"reciprocal", recip}, {"unrolled", unrolled},
      {"blocked", blocked}, {"hybrid", hybrid}};

  for (const bool atten : {false, true}) {
    grid::AttenuationConfig ac;
    ac.enabled = atten;
    grid::StaggeredGrid base(dims, 100.0, 0.004, ac);
    base.setMaterial(block);
    // Every cell, halos included, holds a distinct value of either sign.
    std::vector<std::byte> state = base.saveState();
    std::vector<float> values(state.size() / sizeof(float));
    std::uint32_t seed = 2026;
    for (float& x : values) {
      seed = seed * 1664525u + 1013904223u;
      x = (static_cast<float>(seed >> 8) * 0x1.0p-24f - 0.5f) * 1e-3f;
    }
    std::memcpy(state.data(), values.data(), state.size());
    base.restoreState(state);
    const SpongeLayer sponge(geom, base, 4);
    ASSERT_TRUE(sponge.active());
    const SpongeTaper taper = sponge.taper();

    for (const auto& [name, opts] : variants) {
      SCOPED_TRACE(::testing::Message() << name << " atten=" << atten);
      grid::StaggeredGrid passed(dims, 100.0, 0.004, ac);
      grid::StaggeredGrid fused(dims, 100.0, 0.004, ac);
      for (auto* g : {&passed, &fused}) {
        g->setMaterial(block);
        g->restoreState(state);
      }
      updateStress(passed, opts);
      sponge.apply(passed);
      updateStress(fused, opts, &taper);
      sponge.apply(fused, /*stresses=*/false);
      const auto a = interiors(passed);
      const auto b = interiors(fused);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
                0);
    }
  }
}

// The scalar reference for Kernels.ClonedRowsMatchTheScalarStencil: the
// per-point formulas of core/kernels.cpp written out over (i, j, k), one
// point at a time, with the same float operations in the same order.
struct Cell {
  std::size_t i, j, k;
  // The cell d steps along axis (0 = x, 1 = y, 2 = z).
  [[nodiscard]] Cell moved(int axis, int d) const {
    const auto s = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(d));
    return {axis == 0 ? i + s : i, axis == 1 ? j + s : j,
            axis == 2 ? k + s : k};
  }
};

float& at(Array3f& f, Cell c) { return f(c.i, c.j, c.k); }

constexpr float kC1 = 9.0f / 8.0f;
constexpr float kC2 = -1.0f / 24.0f;

// 4th-order staggered difference of f across node c along axis, added to
// acc term by term when given one.
float diffAt(Array3f& f, Cell c, int axis) {
  return kC1 * (at(f, c.moved(axis, 1)) - at(f, c)) +
         kC2 * (at(f, c.moved(axis, 2)) - at(f, c.moved(axis, -1)));
}
float addDiffAt(float acc, Array3f& f, Cell c, int axis) {
  return acc + kC1 * (at(f, c.moved(axis, 1)) - at(f, c)) +
         kC2 * (at(f, c.moved(axis, 2)) - at(f, c.moved(axis, -1)));
}

float attenuateAt(float& r, float tau, float qinv, float a, float dt) {
  const float htau = 0.5f * dt / tau;
  const float rNew = (r * (1.0f - htau) - qinv * a / tau) / (1.0f + htau);
  const float corr = 0.5f * dt * (rNew + r);
  r = rNew;
  return corr;
}

template <typename Fn>
void forInterior(const grid::StaggeredGrid& g, Fn&& fn) {
  const auto& d = g.dims();
  for (std::size_t k = kHalo; k < kHalo + d.nz; ++k)
    for (std::size_t j = kHalo; j < kHalo + d.ny; ++j)
      for (std::size_t i = kHalo; i < kHalo + d.nx; ++i) fn(Cell{i, j, k});
}

void scalarVelocity(grid::StaggeredGrid& g) {
  const float dth = static_cast<float>(g.dt() / g.h());
  // Velocity c from the stresses differenced across the node shifted by
  // -1 along each axis in `back`, with ρ averaged towards `rhoNbr`.
  const auto update = [&](Array3f& vel, Array3f& tx, Array3f& ty,
                          Array3f& tz, const int (&back)[3], Cell c,
                          Cell rhoNbr) {
    const float d = 0.5f * (at(g.rho, c) + at(g.rho, rhoNbr));
    float acc = diffAt(tx, c.moved(0, -back[0]), 0);
    acc = addDiffAt(acc, ty, c.moved(1, -back[1]), 1);
    acc = addDiffAt(acc, tz, c.moved(2, -back[2]), 2);
    at(vel, c) += (dth / d) * acc;
  };
  forInterior(g, [&](Cell c) {
    update(g.u, g.xx, g.xy, g.xz, {1, 1, 1}, c, c.moved(0, -1));
    update(g.v, g.xy, g.yy, g.yz, {0, 0, 1}, c, c.moved(1, 1));
    update(g.w, g.xz, g.yz, g.zz, {0, 1, 0}, c, c.moved(2, 1));
  });
}

void scalarStress(grid::StaggeredGrid& g, bool recip,
                  const SpongeTaper* taper) {
  const float dth = static_cast<float>(g.dt() / g.h());
  const float dt = static_cast<float>(g.dt());
  const bool atten = g.attenuation().enabled;
  const auto store = [&](Array3f& s, float a, Cell c) {
    if (taper != nullptr)
      at(s, c) = (at(s, c) + a) *
                 (taper->fx[c.i] * (taper->fy[c.j] * taper->fz[c.k]));
    else
      at(s, c) += a;
  };
  forInterior(g, [&](Cell c) {
    const float exx = diffAt(g.u, c, 0);
    const float eyy = diffAt(g.v, c.moved(1, -1), 1);
    const float ezz = diffAt(g.w, c.moved(2, -1), 2);
    const float tr = exx + eyy + ezz;
    const float l = at(g.lam, c);
    const float m2 = 2.0f * at(g.mu, c);
    float axx = dth * (l * tr + m2 * exx);
    float ayy = dth * (l * tr + m2 * eyy);
    float azz = dth * (l * tr + m2 * ezz);
    if (atten) {
      const float tau = at(g.tauSigma, c);
      const float q = at(g.qpInv, c);
      axx += attenuateAt(at(g.rxx, c), tau, q, axx, dt);
      ayy += attenuateAt(at(g.ryy, c), tau, q, ayy, dt);
      azz += attenuateAt(at(g.rzz, c), tau, q, azz, dt);
    }
    store(g.xx, axx, c);
    store(g.yy, ayy, c);
    store(g.zz, azz, c);
  });
  // σ_ab from v_a differenced forward along b and v_b across the node
  // shifted by aLo along a; μ is the harmonic mean over four cells.
  const auto shear = [&](Array3f& va, Array3f& vb, Array3f& s, Array3f& r,
                         int a, int b, int aLo) {
    forInterior(g, [&](Cell c) {
      const Cell c0 = c.moved(a, aLo);
      const Cell c1 = c0.moved(a, 1);
      const Cell c2 = c0.moved(b, 1);
      const Cell c3 = c1.moved(b, 1);
      const float m =
          recip ? 4.0f / (at(g.mui, c0) + at(g.mui, c1) + at(g.mui, c2) +
                          at(g.mui, c3))
                : 4.0f / (1.0f / at(g.mu, c0) + 1.0f / at(g.mu, c1) +
                          1.0f / at(g.mu, c2) + 1.0f / at(g.mu, c3));
      const float e = addDiffAt(diffAt(va, c, b), vb, c0, a);
      float inc = dth * m * e;
      if (atten)
        inc += attenuateAt(at(r, c), at(g.tauSigma, c), at(g.qsInv, c), inc,
                           dt);
      store(s, inc, c);
    });
  };
  shear(g.u, g.v, g.xy, g.rxy, 0, 1, -1);
  shear(g.u, g.w, g.xz, g.rxz, 0, 2, -1);
  shear(g.v, g.w, g.yz, g.ryz, 1, 2, 0);
}

// The row kernels against the scalar reference, bit for bit, on a random
// medium and random fields: every wavefield and memory variable, halos
// included. On x86-64 the kernels run their AVX2 clones where the CPU has
// AVX2 (util/hot.hpp), so this pins the clone to the scalar IEEE
// operations: a clone that contracted a * b + c into an FMA would fail.
TEST(Kernels, ClonedRowsMatchTheScalarStencil) {
  const grid::GridDims dims{20, 18, 14};
  const DomainGeometry geom = DomainGeometry::single(dims);
  std::uint32_t seed = 31;
  const auto uniform = [&seed] {
    seed = seed * 1664525u + 1013904223u;
    return static_cast<float>(seed >> 8) * 0x1.0p-24f;  // [0, 1)
  };
  mesh::MeshBlock block;
  block.spec = geom.local;
  block.points.resize(block.spec.pointCount());
  for (std::size_t k = 0; k < dims.nz; ++k)
    for (std::size_t j = 0; j < dims.ny; ++j)
      for (std::size_t i = 0; i < dims.nx; ++i) {
        const float vs = 1500.0f + 2000.0f * uniform();
        block.at(i, j, k) = {(1.6f + 0.4f * uniform()) * vs, vs,
                             2000.0f + 800.0f * uniform()};
      }

  KernelOptions plain;
  plain.useReciprocals = false;
  KernelOptions recip;
  KernelOptions unrolled;
  unrolled.unrolled = true;
  const std::pair<const char*, KernelOptions> variants[] = {
      {"plain", plain}, {"reciprocal", recip}, {"unrolled", unrolled}};

  for (const bool atten : {false, true}) {
    grid::AttenuationConfig ac;
    ac.enabled = atten;
    grid::StaggeredGrid base(dims, 100.0, 0.004, ac);
    base.setMaterial(block);
    std::vector<std::byte> state = base.saveState();
    std::vector<float> values(state.size() / sizeof(float));
    for (float& x : values) x = (uniform() - 0.5f) * 1e-3f;
    std::memcpy(state.data(), values.data(), state.size());
    const SpongeLayer sponge(geom, base, 4);
    const SpongeTaper taper = sponge.taper();

    for (const auto& [name, opts] : variants)
      for (const bool damped : {false, true}) {
        SCOPED_TRACE(::testing::Message() << name << " atten=" << atten
                                          << " damped=" << damped);
        const SpongeTaper* t = damped ? &taper : nullptr;
        grid::StaggeredGrid kernel(dims, 100.0, 0.004, ac);
        grid::StaggeredGrid scalar(dims, 100.0, 0.004, ac);
        for (auto* g : {&kernel, &scalar}) {
          g->setMaterial(block);
          g->restoreState(state);
        }
        updateVelocity(kernel, opts);
        scalarVelocity(scalar);
        updateStress(kernel, opts, t);
        scalarStress(scalar, opts.useReciprocals, t);
        const std::vector<std::byte> a = kernel.saveState();
        const std::vector<std::byte> b = scalar.saveState();
        ASSERT_EQ(a.size(), b.size());
        std::size_t differ = 0;
        for (std::size_t n = 0; n < a.size(); n += sizeof(float))
          differ += std::memcmp(&a[n], &b[n], sizeof(float)) != 0;
        EXPECT_EQ(differ, 0u) << "floats differing from the scalar stencil";
        EXPECT_NE(a, state) << "the kernels wrote nothing";
      }
  }
}

// The golden case stopped inside its subnormal wavefront transient: in
// IEEE arithmetic 9, 29 and 7 interior values are subnormal after steps
// 10, 11 and 12. The step flushes subnormals (util/fp_env.hpp), so no
// interior value may be subnormal, and the hybrid pool's workers run their
// chunks under the caller's control word, so two threads must still
// reproduce the pure run bit for bit.
TEST(Kernels, HybridMatchesPureThroughSubnormalTransient) {
  for (const std::size_t steps : {10u, 11u, 12u}) {
    SCOPED_TRACE(::testing::Message() << "steps " << steps);
    GoldenCase pure;
    GoldenCase hybrid;
    hybrid.threads = 2;
    const std::vector<float> a = goldenWavefield(pure, steps);
    const std::vector<float> b = goldenWavefield(hybrid, steps);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
    EXPECT_EQ(std::count_if(a.begin(), a.end(),
                            [](float v) {
                              return std::fpclassify(v) == FP_SUBNORMAL;
                            }),
              0);
  }
}

TEST(WaveSolver, StepRestoresCallerFloatEnvironment) {
  // The flush is scoped to the field-advancing phases: the caller's
  // control word holds between steps (where onStep and the health scan
  // run) and after run() returns.
  const FpControlWord caller = fpControlWord();
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    SolverConfig config;
    config.globalDims = {16, 12, 10};
    config.h = 600.0;
    config.spongeWidth = 3;
    config.health.enabled = true;
    config.health.monitor.everySteps = 2;
    WaveSolver solver(comm, topo, config,
                      vmodel::Material{5200.0f, 3000.0f, 2700.0f});
    solver.addSource(explosionPointSource(
        8, 6, 5, rickerWavelet(2.0, 0.5, solver.dt(), 10, 1e15)));
    const FpControlWord rankCaller = fpControlWord();
    std::size_t checked = 0;
    solver.run(10, [&](std::size_t) {
      EXPECT_EQ(fpControlWord(), rankCaller);
      ++checked;
    });
    EXPECT_EQ(checked, 10u);
    EXPECT_EQ(fpControlWord(), rankCaller);
  });
  EXPECT_EQ(fpControlWord(), caller);
}

// Convergence-order gate, in the style of a linear-wave regression: plane
// P and S waves along x, y and z on a homogeneous periodic medium, each
// stepped by the bare kernels for one wave period at three resolutions and
// compared (L1) with the translated analytic wave. At fixed CFL the
// leapfrog's O(dt^2) error dominates (rate 2); with dt held far below CFL
// the 4th-order spatial stencil shows (rate 4). The operator is the same
// along every axis, so the errors must be symmetric across axes.
enum class Wave { P, S };

constexpr FieldId kVelocity[3] = {FieldId::U, FieldId::V, FieldId::W};
constexpr FieldId kNormal[3] = {FieldId::XX, FieldId::YY, FieldId::ZZ};
// Shear component coupling axis a to a + 1 (mod 3): xy, yz, xz.
constexpr FieldId kShear[3] = {FieldId::XY, FieldId::YZ, FieldId::XZ};

// Node offset of each field along each axis, in cells (the staggering
// convention in core/kernels.hpp).
double stagger(FieldId f, int axis) {
  static constexpr double kOffset[9][3] = {
      {-0.5, 0, 0}, {0, 0.5, 0},    {0, 0, 0.5},    // u v w
      {0, 0, 0},    {0, 0, 0},      {0, 0, 0},      // xx yy zz
      {-0.5, 0.5, 0}, {-0.5, 0, 0.5}, {0, 0.5, 0.5}};  // xy xz yz
  return kOffset[static_cast<std::size_t>(f)][axis];
}

// Periodic halos for the nine wavefields, one axis after another so the
// edges and corners wrap too.
void fillPeriodicHalos(grid::StaggeredGrid& g) {
  const std::size_t n[3] = {g.dims().nx, g.dims().ny, g.dims().nz};
  const std::size_t ext[3] = {g.sx(), g.sy(), g.sz()};
  const std::size_t stride[3] = {1, ext[0], ext[0] * ext[1]};
  for (std::size_t f = 0; f < 9; ++f) {
    float* a = g.field(static_cast<FieldId>(f)).data();
    for (int axis = 0; axis < 3; ++axis) {
      const int p = (axis + 1) % 3, q = (axis + 2) % 3;
      for (std::size_t r = 0; r < 2 * kHalo; ++r) {
        // Halo plane r: the kHalo low planes, then the kHalo high ones.
        const std::size_t dst = r < kHalo ? r : n[axis] + r;
        const std::size_t src = r < kHalo ? r + n[axis] : r;
        for (std::size_t b = 0; b < ext[q]; ++b)
          for (std::size_t c = 0; c < ext[p]; ++c) {
            const std::size_t off = c * stride[p] + b * stride[q];
            a[off + dst * stride[axis]] = a[off + src * stride[axis]];
          }
      }
    }
  }
}

// L1 error (per unit amplitude) of the wave's particle velocity after one
// period on an n-cell periodic axis of fixed length; the other two axes are
// 2 cells wide. dtOf maps the cell size to the time step.
template <typename DtOf>
double planeWaveL1Error(int axis, Wave type, std::size_t n, DtOf dtOf) {
  const vmodel::Material m = rock();
  const double length = 1600.0;
  const double h = length / static_cast<double>(n);
  const double dt = dtOf(h);
  grid::GridDims dims{2, 2, 2};
  (axis == 0 ? dims.nx : axis == 1 ? dims.ny : dims.nz) = n;
  grid::StaggeredGrid g(dims, h, dt);
  g.setUniformMaterial(m);

  const double rho = m.rho;
  const double lam = vmodel::lambdaOf(m);
  const double c = type == Wave::P ? m.vp : m.vs;
  const double kw = 2.0 * M_PI / length;
  const int pol = type == Wave::P ? axis : (axis + 1) % 3;
  const FieldId vel = kVelocity[pol];
  // Stress amplitudes per unit velocity amplitude: sigma = -(M / c) f.
  std::vector<std::pair<FieldId, double>> stresses;
  if (type == Wave::P) {
    for (int b = 0; b < 3; ++b)
      stresses.emplace_back(kNormal[b], b == axis ? -rho * c : -lam / c);
  } else {
    stresses.emplace_back(kShear[axis], -rho * c);
  }

  auto profile = [&](FieldId f, std::size_t raw, double t) {
    const double s =
        (static_cast<double>(raw) - kHalo + stagger(f, axis)) * h;
    return std::sin(kw * (s - c * t));
  };
  auto forEachInterior = [&](auto&& fn) {
    for (std::size_t k = kHalo; k < kHalo + dims.nz; ++k)
      for (std::size_t j = kHalo; j < kHalo + dims.ny; ++j)
        for (std::size_t i = kHalo; i < kHalo + dims.nx; ++i) {
          const std::size_t raw[3] = {i, j, k};
          fn(i, j, k, raw[axis]);
        }
  };
  // Leapfrog staggering in time: velocities at -dt/2, stresses at 0.
  forEachInterior([&](std::size_t i, std::size_t j, std::size_t k,
                      std::size_t r) {
    g.field(vel)(i, j, k) = static_cast<float>(profile(vel, r, -0.5 * dt));
    for (const auto& [f, amp] : stresses)
      g.field(f)(i, j, k) = static_cast<float>(amp * profile(f, r, 0.0));
  });
  fillPeriodicHalos(g);

  const auto steps =
      static_cast<std::size_t>(std::lround(length / c / dt));
  const KernelOptions opts;
  for (std::size_t s = 0; s < steps; ++s) {
    updateVelocity(g, opts);
    fillPeriodicHalos(g);
    updateStress(g, opts);
    fillPeriodicHalos(g);
  }

  const double t = (static_cast<double>(steps) - 0.5) * dt;
  double err = 0.0;
  forEachInterior([&](std::size_t i, std::size_t j, std::size_t k,
                      std::size_t r) {
    err += std::abs(g.field(vel)(i, j, k) - profile(vel, r, t));
  });
  return err / static_cast<double>(dims.count());
}

// Errors at three resolutions for each (wave, axis), the two observed
// rates, and the cross-axis symmetry check.
template <typename DtOf>
void expectConvergence(const std::size_t (&n)[3], DtOf dtOf, double order,
                       double tol) {
  for (Wave type : {Wave::P, Wave::S}) {
    double errX[3] = {};
    for (int axis = 0; axis < 3; ++axis) {
      double err[3];
      for (int r = 0; r < 3; ++r) {
        err[r] = planeWaveL1Error(axis, type, n[r], dtOf);
        if (axis == 0) errX[r] = err[r];
        SCOPED_TRACE(::testing::Message()
                     << (type == Wave::P ? "P" : "S") << " along axis "
                     << axis << ", n=" << n[r]);
        ASSERT_GT(err[r], 0.0);
        EXPECT_NEAR(err[r], errX[r], 1e-2 * errX[r]) << "axis asymmetry";
      }
      for (int r = 0; r < 2; ++r) {
        const double rate = std::log(err[r] / err[r + 1]) /
                            std::log(static_cast<double>(n[r + 1]) /
                                     static_cast<double>(n[r]));
        EXPECT_NEAR(rate, order, tol)
            << (type == Wave::P ? "P" : "S") << " along axis " << axis
            << ", n=" << n[r] << "->" << n[r + 1];
      }
    }
  }
}

TEST(Convergence, PlaneWavesAreSecondOrderAtFixedCfl) {
  const double vp = rock().vp;
  expectConvergence({24, 48, 96}, [&](double h) { return 0.5 * h / vp; },
                    2.0, 0.15);
}

TEST(Convergence, PlaneWavesAreFourthOrderInSpaceWithSmallDt) {
  // dt = 1/2000 of a P period: the time error sits ~2 orders of magnitude
  // under the spatial error even at the finest grid.
  const double dt = 1600.0 / rock().vp / 2000.0;
  expectConvergence({12, 16, 24}, [&](double) { return dt; }, 4.0, 0.2);
}

// The decomposition-invariance suite: the same problem must produce the
// same seismograms regardless of rank count, exchange mode, reduced
// communication, or overlap. This is what makes the §IV optimizations
// safe.
struct ParallelCase {
  Dims3 dims;
  grid::HaloExchanger::Mode mode;
  bool reduced;
  bool overlap;
};

class ParallelEquivalence : public ::testing::TestWithParam<ParallelCase> {};

std::vector<SeismogramTrace> runCase(const ParallelCase& pc) {
  auto config = baseConfig(24);
  config.commMode = pc.mode;
  config.reducedComm = pc.reduced;
  config.overlap = pc.overlap;
  std::vector<SeismogramTrace> out;
  ThreadCluster::run(pc.dims.total(), [&](vcluster::Communicator& comm) {
    CartTopology topo(pc.dims);
    WaveSolver solver(comm, topo, config, rock());
    const double dt = solver.config().dt;
    solver.addSource(explosionPointSource(
        13, 11, 12, rickerWavelet(4.0, 0.4, dt, 80, 1e15)));
    solver.addSource(strikeSlipPointSource(
        7, 15, 10, rickerWavelet(3.0, 0.5, dt, 80, 5e15)));
    solver.addReceiver("a", 6, 6);
    solver.addReceiver("b", 18, 12);
    solver.run(90);
    auto traces = solver.receivers().gather(comm);
    if (comm.rank() == 0) out = std::move(traces);
  });
  // Sort by name for stable comparison.
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

TEST_P(ParallelEquivalence, MatchesSingleRankReference) {
  static const auto reference = runCase(
      {Dims3{1, 1, 1}, grid::HaloExchanger::Mode::Asynchronous, true,
       false});
  const auto got = runCase(GetParam());
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].name, reference[t].name);
    ASSERT_EQ(got[t].u.size(), reference[t].u.size());
    for (std::size_t n = 0; n < got[t].u.size(); ++n) {
      ASSERT_FLOAT_EQ(got[t].u[n], reference[t].u[n]);
      ASSERT_FLOAT_EQ(got[t].v[n], reference[t].v[n]);
      ASSERT_FLOAT_EQ(got[t].w[n], reference[t].w[n]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DecompositionAndCommModes, ParallelEquivalence,
    ::testing::Values(
        ParallelCase{Dims3{2, 1, 1},
                     grid::HaloExchanger::Mode::Asynchronous, true, false},
        ParallelCase{Dims3{2, 2, 1},
                     grid::HaloExchanger::Mode::Asynchronous, true, false},
        ParallelCase{Dims3{2, 2, 2},
                     grid::HaloExchanger::Mode::Asynchronous, true, false},
        ParallelCase{Dims3{1, 2, 2},
                     grid::HaloExchanger::Mode::Synchronous, true, false},
        ParallelCase{Dims3{2, 2, 1},
                     grid::HaloExchanger::Mode::Asynchronous, false, false},
        ParallelCase{Dims3{2, 2, 1},
                     grid::HaloExchanger::Mode::Asynchronous, true, true},
        ParallelCase{Dims3{3, 2, 1},
                     grid::HaloExchanger::Mode::Synchronous, false, true}));

TEST(Checkpoint, RestartReproducesUninterruptedRun) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("awp_ckpt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  auto makeSolver = [&](vcluster::Communicator& comm,
                        const CartTopology& topo,
                        io::CheckpointStore* store) {
    auto config = baseConfig(20);
    auto solver = std::make_unique<WaveSolver>(comm, topo, config, rock());
    const double dt = solver->config().dt;
    solver->addSource(explosionPointSource(
        10, 10, 10, rickerWavelet(4.0, 0.4, dt, 60, 1e15)));
    if (store != nullptr) solver->attachCheckpoints(store, 20);
    return solver;
  };

  std::vector<float> uninterrupted, restarted;
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{2, 1, 1});
    io::CheckpointStore store(dir.string());
    auto solver = makeSolver(comm, topo, &store);
    solver->run(40);
    if (comm.rank() == 0) {
      const auto& u = solver->grid().u;
      uninterrupted.assign(u.data(), u.data() + u.size());
    }
  });
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{2, 1, 1});
    io::CheckpointStore store(dir.string());
    auto solver = makeSolver(comm, topo, &store);
    solver->restart();  // resumes after step 20
    EXPECT_EQ(solver->currentStep(), 21u);
    solver->run(40 - solver->currentStep());
    if (comm.rank() == 0) {
      const auto& u = solver->grid().u;
      restarted.assign(u.data(), u.data() + u.size());
    }
  });
  std::filesystem::remove_all(dir);

  ASSERT_EQ(uninterrupted.size(), restarted.size());
  for (std::size_t n = 0; n < uninterrupted.size(); ++n)
    ASSERT_EQ(uninterrupted[n], restarted[n]);
}

TEST(Solver, FlopsAccountingGrowsLinearly) {
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    WaveSolver solver(comm, topo, baseConfig(16), rock());
    solver.run(10);
    const double f10 = solver.flopsExecuted();
    solver.run(10);
    EXPECT_NEAR(solver.flopsExecuted(), 2.0 * f10, 1.0);
    EXPECT_GT(f10, 0.0);
  });
}

}  // namespace
}  // namespace awp::core
