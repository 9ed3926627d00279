#include "workload_defs.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "reference.hpp"

namespace perfbench {

using namespace awp;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
}

// --- wave_large ----------------------------------------------------------------

namespace {
constexpr double kWaveAmplitudes[kWaveVariants] = {1.0e15, 1.5e15, 2.0e15,
                                                   2.5e15};
}  // namespace

sched::ScenarioSpec waveLargeSpec(int variant) {
  sched::ScenarioSpec spec;
  spec.kind = sched::ScenarioKind::Wave;
  spec.dims = kWaveLargeDims;
  spec.h = 600.0;
  spec.steps = 200;
  spec.nranks = kWaveLargeRanks;
  spec.useCvm = true;
  spec.checkpointEverySteps = 50;
  spec.surfaceSampleEverySteps = 4;
  spec.sourceAmplitude = kWaveAmplitudes[variant % kWaveVariants];
  spec.name = "wave_large-" + std::to_string(variant);
  return spec;
}

fabric::FabricConfig waveLargeFabricConfig() {
  fabric::FabricConfig config;
  config.brokers = 1;
  // coreBudget = nproc, but never below the scenario's rank count.
  config.service.coreBudget = std::max(
      kWaveLargeRanks, static_cast<int>(std::thread::hardware_concurrency()));
  return config;
}

// --- ensemble_serve ------------------------------------------------------------

fabric::FabricConfig ensembleFabricConfig() {
  fabric::FabricConfig config;
  config.brokers = 3;
  config.service.coreBudget = 1;
  // Open loop: the queue must absorb bursts instead of rejecting them.
  config.service.queueCapacity = 1024;
  config.serve.tileEdge = 8;
  return config;
}

serve::ExceedanceQuery QueryParams::recent(
    const std::vector<fabric::FabricJobHandle>& handles,
    std::size_t count) const {
  serve::ExceedanceQuery q;
  q.extent = extent;
  q.threshold = threshold;
  const std::size_t n = std::min(count, handles.size());
  for (std::size_t i = handles.size() - n; i < handles.size(); ++i)
    q.digests.push_back(handles[i]->digest);
  return q;
}

serve::ExceedanceQuery QueryParams::subset(
    const std::vector<std::string>& catalog, std::size_t count) const {
  serve::ExceedanceQuery q;
  q.extent = extent;
  q.threshold = threshold;
  q.digests = sampleCatalog(catalog, count, pick);
  return q;
}

namespace {

// Log-uniform over the PGV-H range the ensemble produces [m/s].
float randomThreshold(Rng& rng) {
  return static_cast<float>(std::pow(10.0, rng.uniform(-9.0, -6.0)));
}

QueryParams randomQuery(Rng& rng) {
  QueryParams p;
  const std::size_t nx = kEnsembleDims.nx, ny = kEnsembleDims.ny;
  if (rng.below(4) == 0) {
    p.extent = serve::Extent{0, 0, nx, ny};  // full map
  } else {
    const std::size_t w = 4 + rng.below(nx - 4);
    const std::size_t h = 4 + rng.below(ny - 4);
    const std::size_t x0 = rng.below(nx - w + 1);
    const std::size_t y0 = rng.below(ny - h + 1);
    p.extent = serve::Extent{x0, y0, x0 + w, y0 + h};
  }
  p.threshold = randomThreshold(rng);
  p.pick = rng.next();
  return p;
}

}  // namespace

EnsembleInputs makeEnsembleInputs(std::uint64_t seed, double seconds) {
  EnsembleInputs in;
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 1);
  const double window = kArrivalShare * seconds;
  const auto scenarios =
      std::max<std::size_t>(1, static_cast<std::size_t>(window * kScenarioRate));
  const auto queries = static_cast<std::size_t>(window * kQueryRate);

  for (std::size_t i = 0; i < scenarios; ++i) {
    sched::ScenarioSpec spec;
    spec.kind = sched::ScenarioKind::Wave;
    spec.dims = kEnsembleDims;
    spec.h = 600.0;
    spec.steps = 20;
    spec.nranks = 1;
    spec.useCvm = true;
    spec.checkpointEverySteps = 10;
    spec.surfaceSampleEverySteps = 2;
    // The physics varies through the source; spec.seed would not change
    // the wave products, so varying it would make every product identical.
    spec.sourceFreqHz = rng.uniform(0.8, 1.6);
    spec.sourceAmplitude = rng.uniform(0.5e15, 4.0e15);
    spec.name = "ensemble-" + std::to_string(i);
    in.specs.push_back(spec);
    in.schedule.push_back({ScheduledOp::Kind::Submit,
                           static_cast<double>(i) / kScenarioRate, i});
  }
  for (std::size_t j = 0; j < queries; ++j) {
    in.queries.push_back(randomQuery(rng));
    in.schedule.push_back({ScheduledOp::Kind::Query,
                           static_cast<double>(j) / kQueryRate, j});
  }
  for (int c = 0; c < kOutputChecks; ++c) in.checks.push_back(randomQuery(rng));
  for (int c = 0; c < 64; ++c)
    in.closedLoopThresholds.push_back(randomThreshold(rng));
  // Submits sort before queries due at the same instant.
  std::stable_sort(in.schedule.begin(), in.schedule.end(),
                   [](const ScheduledOp& a, const ScheduledOp& b) {
                     return a.dueSeconds < b.dueSeconds;
                   });
  return in;
}

std::vector<std::string> sampleCatalog(const std::vector<std::string>& all,
                                       std::size_t count, std::uint64_t seed) {
  if (all.size() <= count) return all;
  std::vector<std::size_t> idx(all.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i)  // partial Fisher-Yates
    std::swap(idx[i], idx[i + rng.below(idx.size() - i)]);
  idx.resize(count);
  std::sort(idx.begin(), idx.end());
  std::vector<std::string> out;
  for (std::size_t i : idx) out.push_back(all[i]);
  return out;
}

// --- cycle_catalog ---------------------------------------------------------------

cycle::CycleConfig catalogCycleConfig() {
  cycle::CycleConfig config;
  config.nx = 64;
  config.nz = 16;
  config.cell = 500.0;
  config.friction.L = 0.005;
  config.interaction = 0.05;
  config.stencilRadius = 6;
  config.vpl = 1.0e-8;
  config.heterogeneity = 0.3;
  config.corrX = 4000.0;
  config.corrZ = 2000.0;
  config.seed = 11;
  config.years = 400.0;
  config.maxEvents = 8;
  return config;
}

cycle::BridgeConfig catalogBridgeConfig() {
  cycle::BridgeConfig bridge;
  bridge.h = 600.0;
  bridge.steps = 60;
  bridge.nranks = 1;
  return bridge;
}

fabric::FabricConfig cycleFabricConfig() {
  fabric::FabricConfig config;
  config.brokers = 3;
  config.service.coreBudget = 1;
  config.service.queueCapacity = 32;
  return config;
}

rupture::RuptureConfig ruptureConfigFor(const sched::ScenarioSpec& spec) {
  rupture::RuptureConfig config;
  const auto nx = static_cast<std::size_t>(
      std::llround(spec.lengthKm * 1000.0 / spec.h));
  const auto nzFault = static_cast<std::size_t>(
      std::llround(spec.depthKm * 1000.0 / spec.h));
  const std::size_t margin = 14;
  config.globalDims = {nx + 2 * margin, 2 * margin + 2, nzFault + margin};
  config.h = spec.h;
  config.faultJ = margin;
  config.fi0 = margin;
  config.fi1 = margin + nx;
  config.fk1 = config.globalDims.nz - 1;
  config.fk0 = config.fk1 - nzFault;
  config.spongeWidth = 10;
  config.friction.dc = 1.5e-3 * spec.h;
  config.friction.dcSurface = 3.0 * config.friction.dc;
  config.stress.seed = spec.seed;
  config.stress.corrX = 0.1 * spec.lengthKm * 1000.0;
  config.stress.corrZ = 0.3 * spec.depthKm * 1000.0;
  config.stress.nucX = spec.nucFraction * spec.lengthKm * 1000.0;
  config.stress.nucZ = 0.6 * spec.depthKm * 1000.0;
  config.stress.nucRadius = std::max(8.0 * spec.h, 4000.0);
  config.stress.nucExcess = 0.15;
  config.timeDecimation = 2;
  config.slipRateThreshold = 0.01;
  if (spec.cycleStress) config.stressOverride = spec.cycleStress;
  return config;
}

std::uint64_t ruptureCells(const sched::ScenarioSpec& spec) {
  return ruptureConfigFor(spec).globalDims.count();
}

// --- reference checks --------------------------------------------------------------

std::vector<float> sampleWaveMap(const std::vector<float>& map) {
  std::vector<float> out;
  for (std::size_t y = 0; y < kWaveLargeDims.ny; y += kWaveSampleStride)
    for (std::size_t x = 0; x < kWaveLargeDims.nx; x += kWaveSampleStride)
      out.push_back(map[x + kWaveLargeDims.nx * y]);
  return out;
}

ReferenceVerdict checkWaveReference(int variant, const std::string& md5,
                                        const std::vector<float>& map) {
  const reference::WaveVariant& ref =
      reference::kWave[variant % kWaveVariants];
  if (md5 == ref.md5) return ReferenceVerdict::Exact;
  const std::vector<float> got = sampleWaveMap(map);
  const std::size_t n = std::size(ref.samples);
  if (got.size() != n) return ReferenceVerdict::Mismatch;
  double peak = 0.0;
  for (float v : ref.samples) peak = std::max(peak, std::fabs(double{v}));
  for (std::size_t i = 0; i < n; ++i)
    if (!(std::fabs(double{got[i]} - double{ref.samples[i]}) <=
          kWaveTolerance * peak))
      return ReferenceVerdict::Mismatch;
  return ReferenceVerdict::WithinTolerance;
}

ReferenceVerdict checkCycleReference(
    const cycle::CycleCatalog& catalog,
    const std::vector<cycle::CycleEvent>& events,
    const std::vector<double>& ruptureMagnitudes) {
  constexpr std::size_t n = std::size(reference::kEventDigests);
  if (catalog.rows.size() != n || events.size() != n ||
      ruptureMagnitudes.size() != n)
    return ReferenceVerdict::Mismatch;
  if (catalog.digestHex() == reference::kCatalogDigest)
    return ReferenceVerdict::Exact;
  // The sequence is pure double arithmetic and must match exactly; the
  // rupture products may differ in bits but not in magnitude.
  for (std::size_t i = 0; i < n; ++i) {
    if (events[i].digest != reference::kEventDigests[i])
      return ReferenceVerdict::Mismatch;
    if (!(std::fabs(ruptureMagnitudes[i] - reference::kRuptureMagnitudes[i]) <=
          kMagnitudeTolerance))
      return ReferenceVerdict::Mismatch;
  }
  return ReferenceVerdict::WithinTolerance;
}

}  // namespace perfbench
