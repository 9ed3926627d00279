#pragma once
// Workload definitions: sizes, fabric configurations, the seeded input
// generator and the reference checks. Everything the program under test
// receives is built here from the workload seed.

#include <cstdint>
#include <string>
#include <vector>

#include "cycle/bridge.hpp"
#include "cycle/catalog.hpp"
#include "cycle/solver.hpp"
#include "fabric/fabric.hpp"
#include "rupture/solver.hpp"
#include "sched/spec.hpp"
#include "serve/server.hpp"

namespace perfbench {

// Set-ups per pass: setup_s is the fastest of them.
inline constexpr int kSetupSamples = 41;

// Deterministic, platform-independent generator (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);           // [lo, hi)
  std::size_t below(std::size_t n);                // [0, n)

 private:
  std::uint64_t state_;
};

// --- wave_large ----------------------------------------------------------------

inline constexpr awp::grid::GridDims kWaveLargeDims{160, 120, 48};
inline constexpr int kWaveLargeRanks = 4;
// Source amplitudes of the reference variants; the seed picks one per
// repetition, so every seed does the same amount of work.
inline constexpr int kWaveVariants = 4;

awp::sched::ScenarioSpec waveLargeSpec(int variant);
awp::fabric::FabricConfig waveLargeFabricConfig();

// --- ensemble_serve ------------------------------------------------------------

inline constexpr awp::grid::GridDims kEnsembleDims{32, 24, 12};
// Open-loop rates: scenarios arrive at under half the measured capacity of
// 3 brokers x 1 core (about 55/s), low enough that queueing does not
// amplify the host's speed jitter; queries at a fixed rate while they
// publish.
inline constexpr double kScenarioRate = 16.0;  // [1/s]
inline constexpr double kQueryRate = 200.0;    // [1/s]
// Shares of --seconds: the arrival window and the closed-loop query phase.
inline constexpr double kArrivalShare = 0.75;
inline constexpr double kClosedLoopShare = 0.1;
inline constexpr int kClosedLoopRounds = 4;
// Digests per query: open loop (most recent), output check, closed loop.
inline constexpr std::size_t kOpenLoopCatalog = 16;
inline constexpr std::size_t kCheckCatalog = 32;
inline constexpr std::size_t kClosedLoopCatalog = 96;
inline constexpr int kOutputChecks = 16;

awp::fabric::FabricConfig ensembleFabricConfig();

struct QueryParams {
  awp::serve::Extent extent;
  float threshold = 0.0f;
  std::uint64_t pick = 0;  // seeds the digest selection

  // Query over the `count` most recently submitted scenarios.
  [[nodiscard]] awp::serve::ExceedanceQuery recent(
      const std::vector<awp::fabric::FabricJobHandle>& handles,
      std::size_t count) const;
  // Query over a seeded subset of `count` digests of the catalog.
  [[nodiscard]] awp::serve::ExceedanceQuery subset(
      const std::vector<std::string>& catalog, std::size_t count) const;
};

struct ScheduledOp {
  enum class Kind { Submit, Query };
  Kind kind = Kind::Submit;
  double dueSeconds = 0.0;  // offset from the schedule start
  std::size_t index = 0;    // into specs or queries
};

struct EnsembleInputs {
  std::vector<awp::sched::ScenarioSpec> specs;
  std::vector<QueryParams> queries;     // open loop
  std::vector<QueryParams> checks;      // output checks
  std::vector<float> closedLoopThresholds;  // read-only phase (cycled)
  std::vector<ScheduledOp> schedule;    // merged, by due time
};

EnsembleInputs makeEnsembleInputs(std::uint64_t seed, double seconds);

// Seeded subset of at most `count` digests, in catalog order.
std::vector<std::string> sampleCatalog(const std::vector<std::string>& all,
                                       std::size_t count, std::uint64_t seed);

// --- cycle_catalog ---------------------------------------------------------------

awp::cycle::CycleConfig catalogCycleConfig();
awp::cycle::BridgeConfig catalogBridgeConfig();
awp::fabric::FabricConfig cycleFabricConfig();

// The rupture solver configuration the scenario service derives from a
// rupture spec (mirrors ScenarioService::attemptRupture), so the rupture
// probe runs exactly what a bridged scenario runs and cell counts match.
awp::rupture::RuptureConfig ruptureConfigFor(
    const awp::sched::ScenarioSpec& spec);
std::uint64_t ruptureCells(const awp::sched::ScenarioSpec& spec);

// --- reference checks --------------------------------------------------------------

// Exact: bit-identical to the stored reference. WithinTolerance: different
// bits (a legitimate floating-point reordering) but within the stated
// tolerance. Mismatch: a wrong answer.
enum class ReferenceVerdict { Exact, WithinTolerance, Mismatch };

// Sampled points of a PGV-H map: every kWaveSampleStride-th point in x and
// y, row-major.
inline constexpr std::size_t kWaveSampleStride = 8;
std::vector<float> sampleWaveMap(const std::vector<float>& map);
// Relative tolerance on the sampled map, against the map's peak value.
inline constexpr double kWaveTolerance = 1.0e-4;
// Absolute tolerance on each event's rupture moment magnitude.
inline constexpr double kMagnitudeTolerance = 1.0e-3;

ReferenceVerdict checkWaveReference(int variant, const std::string& md5,
                                        const std::vector<float>& map);
ReferenceVerdict checkCycleReference(
    const awp::cycle::CycleCatalog& catalog,
    const std::vector<awp::cycle::CycleEvent>& events,
    const std::vector<double>& ruptureMagnitudes);

}  // namespace perfbench
