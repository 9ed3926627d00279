// Tests for the dynamic fault rupture (DFR) solver: friction law, von
// Kármán initial stress, and spontaneous rupture behaviour.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>

#include "io/checkpoint.hpp"
#include "rupture/friction.hpp"
#include "rupture/solver.hpp"
#include "rupture/stress_model.hpp"
#include "util/md5.hpp"
#include "util/stats.hpp"
#include "vcluster/cluster.hpp"

namespace awp::rupture {
namespace {

using vcluster::CartTopology;
using vcluster::Dims3;
using vcluster::ThreadCluster;

TEST(Friction, M8Parameters) {
  const FrictionParams p;  // defaults are the §VII.A values
  EXPECT_DOUBLE_EQ(p.muS, 0.75);
  EXPECT_DOUBLE_EQ(p.muD, 0.50);
  EXPECT_DOUBLE_EQ(p.dc, 0.3);
  EXPECT_DOUBLE_EQ(p.cohesion, 1.0e6);
}

TEST(Friction, SlipWeakeningCurve) {
  SlipWeakeningFriction f{FrictionParams{}};
  const double depth = 8000.0;  // well below the strengthened zone
  EXPECT_DOUBLE_EQ(f.coefficient(0.0, depth), 0.75);
  EXPECT_DOUBLE_EQ(f.coefficient(0.15, depth), 0.625);  // halfway
  EXPECT_DOUBLE_EQ(f.coefficient(0.3, depth), 0.50);
  EXPECT_DOUBLE_EQ(f.coefficient(10.0, depth), 0.50);  // saturated
}

TEST(Friction, VelocityStrengtheningNearSurface) {
  // §VII.A: "we emulated velocity strengthening by forcing μd > μs, with a
  // linear transition between 2 km and 3 km".
  SlipWeakeningFriction f{FrictionParams{}};
  EXPECT_GT(f.muDAt(1000.0), f.params().muS);  // μd > μs in the top zone
  EXPECT_DOUBLE_EQ(f.muDAt(5000.0), 0.50);
  const double mid = f.muDAt(2500.0);
  EXPECT_GT(mid, 0.50);
  EXPECT_LT(mid, f.muDAt(1000.0));
}

TEST(Friction, DcTaperAtSurface) {
  // "dc was increased to 1 m at the free surface using a cosine taper in
  // the top 3 km."
  SlipWeakeningFriction f{FrictionParams{}};
  EXPECT_DOUBLE_EQ(f.dcAt(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f.dcAt(3000.0), 0.3);
  EXPECT_DOUBLE_EQ(f.dcAt(10000.0), 0.3);
  EXPECT_GT(f.dcAt(1500.0), 0.3);
  EXPECT_LT(f.dcAt(1500.0), 1.0);
}

TEST(Friction, StrengthIncludesCohesionAndNormalStress) {
  SlipWeakeningFriction f{FrictionParams{}};
  // Zero normal stress: strength = cohesion.
  EXPECT_DOUBLE_EQ(f.strength(0.0, 8000.0, 0.0), 1.0e6);
  // Compressive (negative) normal stress adds μ|σn|.
  EXPECT_DOUBLE_EQ(f.strength(0.0, 8000.0, -10.0e6), 1.0e6 + 7.5e6);
  // Tensile normal stress never yields a negative strength.
  EXPECT_GE(f.strength(0.0, 8000.0, 50.0e6), 0.0);
}

TEST(VonKarman, NormalizedAndDeterministic) {
  const auto a = vonKarmanField(48, 24, 500.0, 10e3, 3e3, 0.75, 7);
  const auto b = vonKarmanField(48, 24, 500.0, 10e3, 3e3, 0.75, 7);
  EXPECT_EQ(a, b);
  EXPECT_NEAR(mean(a), 0.0, 1e-9);
  double var = 0.0;
  for (double v : a) var += v * v;
  var /= static_cast<double>(a.size());
  EXPECT_NEAR(var, 1.0, 1e-6);
  // Different seeds give different fields.
  const auto c = vonKarmanField(48, 24, 500.0, 10e3, 3e3, 0.75, 8);
  EXPECT_NE(a, c);
}

TEST(VonKarman, AnisotropicCorrelation) {
  // With a much longer correlation length along x, neighboring samples in
  // x are more correlated than neighboring samples in z.
  const auto f = vonKarmanField(64, 64, 500.0, 16e3, 1e3, 0.75, 11);
  double cx = 0.0, cz = 0.0;
  int n = 0;
  for (std::size_t k = 0; k + 4 < 64; ++k)
    for (std::size_t i = 0; i + 4 < 64; ++i) {
      cx += f[i + 64 * k] * f[i + 4 + 64 * k];
      cz += f[i + 64 * k] * f[i + 64 * (k + 4)];
      ++n;
    }
  EXPECT_GT(cx / n, cz / n);
}

TEST(InitialStress, RespectsStrengthEnvelope) {
  SlipWeakeningFriction friction{FrictionParams{}};
  StressModelConfig config;
  config.nucRadius = 0.0;
  const auto s = buildInitialStress(64, 32, 500.0, config, friction);
  for (std::size_t k = 0; k < 32; ++k) {
    const double depth = static_cast<double>(32 - 1 - k) * 500.0;
    for (std::size_t i = 0; i < 64; ++i) {
      const double tau = s.tauAt(i, k);
      const double tauS = friction.strength(0.0, depth, s.sigmaAt(i, k));
      EXPECT_LE(tau, tauS * 1.0001);
      EXPECT_GE(tau, 0.0);
    }
  }
}

TEST(InitialStress, ShearTapersToZeroAtSurface) {
  SlipWeakeningFriction friction{FrictionParams{}};
  StressModelConfig config;
  const auto s = buildInitialStress(32, 40, 500.0, config, friction);
  // Top row (k = nz-1) is the surface: tau ~ 0.
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_LT(s.tauAt(i, 39), 0.05 * s.tauAt(i, 8));
}

TEST(InitialStress, NucleationPatchExceedsStaticStrength) {
  SlipWeakeningFriction friction{FrictionParams{}};
  StressModelConfig config;
  config.nucX = 8000.0;
  config.nucZ = 8000.0;
  config.nucRadius = 1500.0;
  const auto s = buildInitialStress(64, 40, 500.0, config, friction);
  // Node at the nucleation center: i = 16, depth 8000 -> k = 39 - 16 = 23.
  const std::size_t i = 16, k = 40 - 1 - 16;
  const double depth = 8000.0;
  const double tauS = friction.strength(0.0, depth, s.sigmaAt(i, k));
  EXPECT_GT(s.tauAt(i, k), tauS);
}

// A compact spontaneous-rupture configuration for the solver tests.
RuptureConfig smallRupture(bool nucleate) {
  RuptureConfig c;
  c.globalDims = {64, 32, 32};
  c.h = 400.0;
  c.faultJ = 15;
  c.fi0 = 12;
  c.fi1 = 52;
  c.fk0 = 6;
  c.fk1 = 31;  // up to one row below the surface
  c.spongeWidth = 6;
  c.stress.corrX = 8000.0;
  c.stress.corrZ = 3000.0;
  if (nucleate) {
    c.stress.nucX = 8.0 * 400.0;  // along the fault-local x
    c.stress.nucZ = 6000.0;
    c.stress.nucRadius = 1600.0;
    c.stress.nucExcess = 0.08;
  } else {
    c.stress.nucRadius = 0.0;
  }
  c.timeDecimation = 2;
  // A 1 cm/s pick threshold: the default 1 mm/s can trigger on the
  // numerical precursor of the nucleation stress step (grid information
  // travels 4 cells/step, ahead of the continuum wavefront).
  c.slipRateThreshold = 0.01;
  return c;
}

FaultHistory runRupture(bool nucleate, Dims3 dims, std::size_t steps) {
  FaultHistory out;
  ThreadCluster::run(dims.total(), [&](vcluster::Communicator& comm) {
    CartTopology topo(dims);
    const auto model = vmodel::LayeredModel::socalBackground();
    DynamicRuptureSolver solver(comm, topo, smallRupture(nucleate), model);
    solver.run(steps);
    auto h = solver.gather();
    if (comm.rank() == 0) out = std::move(h);
  });
  return out;
}

TEST(RuptureSolver, NoNucleationNoRupture) {
  const auto h = runRupture(false, Dims3{1, 1, 1}, 150);
  ASSERT_GT(h.nx, 0u);
  EXPECT_LT(h.seismicMoment(), 1e14);  // essentially nothing slipped
  for (float t : h.ruptureTime) EXPECT_LT(t, 0.0f);
}

TEST(RuptureSolver, NucleatedRupturePropagates) {
  const auto h = runRupture(true, Dims3{1, 1, 1}, 300);
  ASSERT_GT(h.nx, 0u);

  // Significant moment released; a plausible magnitude for a ~16 km long,
  // 10-km deep fault patch is Mw ~ 6-7.5.
  const double mw = h.momentMagnitude();
  EXPECT_GT(mw, 5.5);
  EXPECT_LT(mw, 8.0);
  EXPECT_GT(h.averageSlip(), 0.05);

  // Rupture must have spread well beyond the nucleation patch.
  std::size_t ruptured = 0;
  for (float t : h.ruptureTime)
    if (t >= 0.0f) ++ruptured;
  EXPECT_GT(ruptured, h.ruptureTime.size() / 3);

  // Causality: rupture time grows with along-strike distance from the
  // nucleation zone (sampled at mid depth).
  const std::size_t kMid = h.nz / 2;
  const std::size_t iNuc = 8;
  float tNear = -1.0f, tFar = -1.0f;
  tNear = h.ruptureTime[iNuc + 4 + h.nx * kMid];
  tFar = h.ruptureTime[std::min(h.nx - 2, iNuc + 24) + h.nx * kMid];
  if (tNear >= 0.0f && tFar >= 0.0f) EXPECT_GT(tFar, tNear);

  // Peak slip rates are physically bounded (paper: ~10 m/s patches).
  for (float v : h.peakSlipRate) EXPECT_LT(v, 50.0f);
}

TEST(RuptureSolver, RuptureFrontIsCausal) {
  // Information cannot outrun the P wave: every node's rupture time must
  // be at least its distance from the nucleation patch divided by the
  // fastest P speed in the model. (Apparent along-strike speeds from the
  // rupture-time gradient CAN exceed vp — oblique front arrivals — so the
  // causality bound is the right invariant, not the local gradient.)
  const auto h = runRupture(true, Dims3{1, 1, 1}, 300);
  const auto config = smallRupture(true);
  const double vpMax = 7000.0;  // generous for the SoCal background model
  const double nzH = static_cast<double>(h.nz) * h.h;
  for (std::size_t k = 0; k < h.nz; ++k)
    for (std::size_t i = 0; i < h.nx; ++i) {
      const float t = h.ruptureTime[i + h.nx * k];
      if (t < 0.0f) continue;
      const double x = static_cast<double>(i) * h.h;
      const double depth = nzH - static_cast<double>(k + 1) * h.h;
      const double dist = std::hypot(x - config.stress.nucX,
                                     depth - config.stress.nucZ);
      const double minTime =
          std::max(0.0, dist - config.stress.nucRadius) / (1.15 * vpMax);
      EXPECT_GE(t + 2.0 * h.dt, minTime)
          << "node (" << i << ", " << k << ")";
    }
}

TEST(RuptureSolver, DecompositionInvariant) {
  const auto ref = runRupture(true, Dims3{1, 1, 1}, 120);
  const auto par = runRupture(true, Dims3{2, 2, 1}, 120);
  ASSERT_EQ(ref.finalSlip.size(), par.finalSlip.size());
  for (std::size_t n = 0; n < ref.finalSlip.size(); ++n) {
    ASSERT_NEAR(par.finalSlip[n], ref.finalSlip[n],
                1e-4f * std::max(1.0f, ref.finalSlip[n]));
    ASSERT_EQ(par.ruptureTime[n] < 0.0f, ref.ruptureTime[n] < 0.0f);
  }
}

TEST(RuptureSolver, DepthSplitMatchesTheSingleRankRun) {
  // A z split must sample the same material as one rank. Rank-edge
  // material halos still move the last bits, so compare to rounding.
  const auto ref = runRupture(true, Dims3{1, 1, 1}, 120);
  const auto par = runRupture(true, Dims3{1, 1, 2}, 120);
  ASSERT_EQ(ref.finalSlip.size(), par.finalSlip.size());
  const float peak =
      *std::max_element(ref.finalSlip.begin(), ref.finalSlip.end());
  ASSERT_GT(peak, 0.0f);
  float worst = 0.0f;
  for (std::size_t n = 0; n < ref.finalSlip.size(); ++n)
    worst = std::max(worst, std::abs(par.finalSlip[n] - ref.finalSlip[n]));
  EXPECT_LE(worst, 1e-5f * peak) << "peak slip " << peak << " m";
  EXPECT_NEAR(par.momentMagnitude(), ref.momentMagnitude(), 1e-4);
}

// MD5 over the solver-produced maps and histories, in a fixed order.
std::string historyMd5(const FaultHistory& h) {
  Md5 md5;
  for (const std::vector<float>* v :
       {&h.finalSlip, &h.peakSlipRate, &h.ruptureTime, &h.slipRateX,
        &h.slipRateZ})
    md5.update(v->data(), v->size() * sizeof(float));
  return Md5::toHex(md5.digest());
}

TEST(RuptureSolver, GoldenFaultHistory) {
  // Bit-level pins of the rupture output: any change to the step order,
  // the friction update or the history bookkeeping moves these digests.
  EXPECT_EQ(historyMd5(runRupture(true, Dims3{1, 1, 1}, 120)),
            "aa9ac03251ff4b28647d49f94b3b439f");
  EXPECT_EQ(historyMd5(runRupture(true, Dims3{2, 2, 1}, 120)),
            "aa9ac03251ff4b28647d49f94b3b439f");
}

TEST(RuptureSolver, FaultAttachedWaveSolverRestartsBitIdentically) {
  // The fault state rides the wave solver's checkpoint blob: a run
  // restarted from its step-45 checkpoint reproduces the uninterrupted
  // history bit for bit, decimated history samples included.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("awp-rupture-restart-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const RuptureConfig config = smallRupture(true);
  auto run = [&](bool restart) {
    FaultHistory out;
    ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
      CartTopology topo(Dims3{2, 2, 1});
      const auto solver = makeRuptureWaveSolver(
          comm, topo, config, vmodel::LayeredModel::socalBackground());
      FaultCondition fault(*solver, config);
      solver->attachFault(&fault);
      io::CheckpointStore store(dir.string());
      solver->attachCheckpoints(&store, 15);
      if (restart) {
        solver->restart();
        EXPECT_EQ(solver->currentStep(), 46u);
      }
      solver->run(60 - solver->currentStep());
      auto h = fault.gather();
      if (comm.rank() == 0) out = std::move(h);
    });
    return out;
  };
  const FaultHistory uninterrupted = run(false);
  const FaultHistory resumed = run(true);
  std::filesystem::remove_all(dir);
  EXPECT_GT(uninterrupted.momentMagnitude(), 0.0);
  EXPECT_EQ(resumed.recordedSteps, uninterrupted.recordedSteps);
  EXPECT_EQ(historyMd5(resumed), historyMd5(uninterrupted));
}

TEST(RuptureSolver, HistoriesMatchFinalSlip) {
  const auto h = runRupture(true, Dims3{1, 1, 1}, 200);
  ASSERT_GT(h.recordedSteps, 0u);
  // Integrating the strike slip-rate history (with decimation) should
  // land near the recorded slip path for a node that slipped mostly in x.
  const std::size_t kMid = h.nz / 2;
  for (std::size_t i : {h.nx / 2, h.nx / 3}) {
    const std::size_t node = i + h.nx * kMid;
    if (h.ruptureTime[node] < 0.0f) continue;
    double integral = 0.0;
    for (std::size_t t = 0; t < h.recordedSteps; ++t)
      integral += std::abs(h.slipRateX[node * h.recordedSteps + t]);
    integral *= h.dt * h.timeDecimation;
    EXPECT_NEAR(integral, h.finalSlip[node],
                0.35 * h.finalSlip[node] + 0.02);
  }
}

}  // namespace
}  // namespace awp::rupture
