#include "cycle/bridge.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>

#include "rupture/friction.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"

namespace awp::cycle {

namespace {

// Bilinear sample of a cycle-grid field at fractional node coordinates
// (x in [0, nx-1], z in [0, nz-1]).
double sampleBilinear(const std::vector<double>& field, std::size_t nx,
                      std::size_t nz, double x, double z) {
  x = std::clamp(x, 0.0, static_cast<double>(nx - 1));
  z = std::clamp(z, 0.0, static_cast<double>(nz - 1));
  const auto i0 = static_cast<std::size_t>(x);
  const auto k0 = static_cast<std::size_t>(z);
  const std::size_t i1 = std::min(i0 + 1, nx - 1);
  const std::size_t k1 = std::min(k0 + 1, nz - 1);
  const double fx = x - static_cast<double>(i0);
  const double fz = z - static_cast<double>(k0);
  const double a = field[i0 + nx * k0] * (1.0 - fx) + field[i1 + nx * k0] * fx;
  const double b = field[i0 + nx * k1] * (1.0 - fx) + field[i1 + nx * k1] * fx;
  return a * (1.0 - fz) + b * fz;
}

// The snapshot's shear-to-normal stress ratio, resampled onto the rupture
// fault plane and normalized to [0, 1]. Both grids share the rupture
// solver's axis convention (k increases upward, the top row at the free
// surface), so the depth map is a straight proportional stretch.
std::vector<double> resamplePattern(const CycleEvent& event, std::size_t rnx,
                                    std::size_t rnz) {
  const std::size_t n = event.nx * event.nz;
  std::vector<double> ratio(n);
  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double compression = std::max(-event.sigmaN[i], 1.0);
    ratio[i] = event.tau[i] / compression;
    if (i == 0 || ratio[i] < lo) lo = ratio[i];
    if (i == 0 || ratio[i] > hi) hi = ratio[i];
  }
  const double spread = hi - lo;

  std::vector<double> pattern(rnx * rnz);
  for (std::size_t k = 0; k < rnz; ++k) {
    const double upFrac =
        rnz > 1 ? static_cast<double>(k) / static_cast<double>(rnz - 1) : 0.5;
    const double zc = upFrac * static_cast<double>(event.nz - 1);
    for (std::size_t i = 0; i < rnx; ++i) {
      const double xc = (static_cast<double>(i) + 0.5) /
                            static_cast<double>(rnx) *
                            static_cast<double>(event.nx) -
                        0.5;
      const double r = sampleBilinear(ratio, event.nx, event.nz, xc, zc);
      pattern[i + rnx * k] = spread > 0.0 ? (r - lo) / spread : 0.5;
    }
  }
  return pattern;
}

// Nucleation disk around the event's peak-slip-rate node, mapped onto the
// rupture grid and capped at maxNucFraction of the fault area so the
// preflight's supercritical gate always passes (>= 1 node so it never
// degrades to "cannot nucleate" either).
std::vector<char> nucleationMask(const CycleEvent& event,
                                 const BridgeConfig& config, std::size_t rnx,
                                 std::size_t rnz) {
  const double strikeFrac = (static_cast<double>(event.nucI) + 0.5) /
                            static_cast<double>(event.nx);
  const auto iN = std::min(
      rnx - 1, static_cast<std::size_t>(strikeFrac * static_cast<double>(rnx)));
  const double upFrac =
      event.nz > 1 ? static_cast<double>(event.nucK) /
                         static_cast<double>(event.nz - 1)
                   : 0.5;
  const auto kN = rnz > 1 ? static_cast<std::size_t>(std::llround(
                                static_cast<double>(rnz - 1) * upFrac))
                          : 0;

  // The service's own patch radius (max(8h, 4 km)), shrunk to the cap.
  const double area = static_cast<double>(rnx * rnz);
  const double rCap =
      std::sqrt(std::max(config.maxNucFraction, 0.0) * area / M_PI);
  const double rPreferred = std::max(8.0 * config.h, 4000.0) / config.h;
  const double radius = std::max(1.0, std::min(rPreferred, rCap));

  std::vector<char> mask(rnx * rnz, 0);
  for (std::size_t k = 0; k < rnz; ++k)
    for (std::size_t i = 0; i < rnx; ++i) {
      const double di = static_cast<double>(i) - static_cast<double>(iN);
      const double dk = static_cast<double>(k) - static_cast<double>(kN);
      if (di * di + dk * dk <= radius * radius) mask[i + rnx * k] = 1;
    }
  mask[iN + rnx * kN] = 1;
  return mask;
}

CycleCatalog catalogShell(const CycleConfig& cycleConfig,
                          const CycleRunSummary& summary) {
  CycleCatalog catalog;
  catalog.nx = cycleConfig.nx;
  catalog.nz = cycleConfig.nz;
  catalog.cell = cycleConfig.cell;
  catalog.years = cycleConfig.years;
  catalog.seed = cycleConfig.seed;
  catalog.steps = summary.steps;
  return catalog;
}

CycleCatalogRow rowShell(const CycleEvent& event) {
  CycleCatalogRow row;
  row.index = event.index;
  row.onsetSeconds = event.onsetSeconds;
  row.durationSeconds = event.durationSeconds;
  row.magnitude = event.magnitude;
  row.momentNm = event.momentNm;
  row.peakSlipRate = event.peakSlipRate;
  row.eventDigest = event.digest;
  return row;
}

}  // namespace

sched::ScenarioSpec eventSpec(const CycleEvent& event,
                              const BridgeConfig& config) {
  AWP_CHECK(!event.digest.empty());
  AWP_CHECK(event.nx > 0 && event.nz > 0);
  AWP_CHECK(event.tau.size() == event.nx * event.nz);
  AWP_CHECK(config.h > 0.0 && config.steps > 0 && config.nranks > 0);

  // Rupture fault plane covering the cycle fault at the rupture spacing.
  const auto rnx = std::max<std::size_t>(
      8, static_cast<std::size_t>(std::llround(
             static_cast<double>(event.nx) * event.cell / config.h)));
  const auto rnz = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::llround(
             static_cast<double>(event.nz) * event.cell / config.h)));

  const auto pattern = resamplePattern(event, rnx, rnz);
  const auto mask = nucleationMask(event, config, rnx, rnz);

  sched::ScenarioSpec spec;
  spec.kind = sched::ScenarioKind::Rupture;
  spec.steps = config.steps;
  spec.nranks = config.nranks;
  spec.h = config.h;
  spec.lengthKm = static_cast<double>(rnx) * config.h / 1000.0;
  spec.depthKm = static_cast<double>(rnz) * config.h / 1000.0;
  spec.nucFraction = (static_cast<double>(event.nucI) + 0.5) /
                     static_cast<double>(event.nx);
  spec.cycleDigest = event.digest;
  // Accommodate to the friction the service will actually run this spec
  // with, so the accommodation band is the solver's band.
  const rupture::SlipWeakeningFriction friction(spec.ruptureConfig().friction);
  spec.cycleStress = std::make_shared<rupture::FaultInitialStress>(
      rupture::accommodateStressPattern(pattern, mask, rnx, rnz, config.h,
                                        config.stress, friction));
  spec.name = "cycle-ev-" + std::to_string(event.index);
  spec.priority = config.priority;
  return spec;
}

CycleCatalog submitCatalog(fabric::HazardFabric& fabric,
                           const CycleConfig& cycleConfig,
                           const CycleRunSummary& summary,
                           const std::vector<CycleEvent>& events,
                           const BridgeConfig& config) {
  telemetry::ScopedSpan span(telemetry::Phase::CycleBridge);
  CycleCatalog catalog = catalogShell(cycleConfig, summary);

  std::vector<fabric::FabricJobHandle> handles;
  handles.reserve(events.size());
  for (const CycleEvent& event : events) {
    handles.push_back(fabric.submit(eventSpec(event, config)));
    telemetry::count(telemetry::Counter::CycleEventsSubmitted);
  }
  fabric::HazardFabric::waitAll(handles);

  for (std::size_t n = 0; n < events.size(); ++n) {
    CycleCatalogRow row = rowShell(events[n]);
    const auto& handle = handles[n];
    if (handle == nullptr) {
      row.phase = "rejected";
    } else {
      row.specHash = handle->digest;
      std::lock_guard<std::mutex> lock(handle->mu);
      row.phase = sched::toString(handle->phase);
      row.completions = handle->completions;
      if (const auto* blob = handle->products.find("fault_history"))
        row.productDigest = blob->md5Hex;
    }
    catalog.rows.push_back(std::move(row));
  }
  return catalog;
}

}  // namespace awp::cycle
