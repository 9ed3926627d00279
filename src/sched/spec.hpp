#pragma once
// ScenarioSpec: the unit of work of the scenario service. A spec is a
// complete, self-contained description of one simulation — everything that
// determines its numerical output and nothing else — so that two equal
// specs are guaranteed to produce bit-identical products and the service
// can content-address completed work by the MD5 of the spec's canonical
// byte encoding (§III.H's product-verification idea turned into a cache
// key). Presentation metadata (name, priority) is deliberately outside the
// hash: renaming or reprioritising a scenario must still hit the cache.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "grid/staggered_grid.hpp"
#include "rupture/solver.hpp"

namespace awp::sched {

enum class ScenarioKind : std::uint32_t { Wave = 0, Rupture = 1 };

const char* toString(ScenarioKind kind);

struct ScenarioSpec {
  ScenarioKind kind = ScenarioKind::Wave;

  // --- hashed physics/run parameters (both kinds) ---
  std::uint64_t steps = 40;
  int nranks = 2;
  std::uint64_t seed = 1;  // rupture stress model; reserved for wave

  // --- hashed, wave kind ---
  grid::GridDims dims{32, 24, 16};
  double h = 600.0;              // grid spacing [m]
  bool useCvm = true;            // CVM-sampled mesh vs uniform background
  int spongeWidth = 4;
  int checkpointEverySteps = 10; // 0 = no checkpoints (and no resume)
  int surfaceSampleEverySteps = 2;
  double sourceFreqHz = 0.0;     // ricker peak frequency; 0 = derived
  double sourceAmplitude = 1.0e15;  // peak moment rate [N·m/s]
  int healthEverySteps = 5;
  int maxRollbacks = 3;

  // --- hashed, rupture kind ---
  double lengthKm = 50.0;
  double depthKm = 12.0;
  double nucFraction = 0.15;  // nucleation patch position along strike

  // --- hashed, rupture kind with a cycle overlay (encoding v2) ---
  // Content digest of the earthquake-cycle stress snapshot this scenario
  // nucleates from ("" = none). A non-empty digest switches the canonical
  // encoding to v2 (magic AWPSPEC2) with the digest appended; specs
  // without one keep emitting byte-exact v1, so every pre-cycle spec hash
  // is unchanged.
  std::string cycleDigest;

  // --- unhashed carriers / metadata ---
  // The snapshot itself, accommodated to this fault's strength profile.
  // Specs travel in-process by shared_ptr (fabric transport, submission
  // log), so the field rides along; cycleDigest above is its hashed
  // content identity.
  std::shared_ptr<const rupture::FaultInitialStress> cycleStress;
  std::string name;   // human label for reports
  int priority = 0;   // larger = sooner; ties run in submission order

  // Canonical fixed-width little-endian encoding (version-tagged). Equal
  // specs encode identically; any hashed field change changes the bytes.
  [[nodiscard]] std::vector<std::byte> canonicalBytes() const;
  // MD5 hex of canonicalBytes() — the service-wide identity of this spec.
  [[nodiscard]] std::string hashHex() const;
  // Decode a canonical encoding, v1 (AWPSPEC1) or v2 (AWPSPEC2): the
  // round trip decodeCanonical(s.canonicalBytes()).canonicalBytes() ==
  // s.canonicalBytes() holds for both versions. Unhashed metadata and the
  // in-memory stress carrier are outside the encoding and come back
  // defaulted. Throws awp::Error on bad magic or truncation.
  static ScenarioSpec decodeCanonical(const std::vector<std::byte>& data);

  // The rupture solver configuration a rupture-kind spec runs with: the
  // fault plane plus 14-cell absorbing margins, friction scaled to h, the
  // seeded stress model (or the cycle stress snapshot).
  [[nodiscard]] rupture::RuptureConfig ruptureConfig() const;
};

// One named output artifact of a completed scenario, with its own digest
// (verified on every cache load: a corrupt cache entry is a miss, not a
// wrong answer).
struct ArtifactBlob {
  std::vector<std::byte> bytes;
  std::string md5Hex;

  static ArtifactBlob fromBytes(std::vector<std::byte> data);
};

// The memoized result of one scenario: its products by name, plus enough
// run metadata for reports. Serialization is the cache's value format.
struct ScenarioProducts {
  std::string specHash;
  std::uint64_t completedSteps = 0;
  double dt = 0.0;
  // Sorted by name (deserialize enforces this; serialize sorts).
  std::vector<std::pair<std::string, ArtifactBlob>> blobs;

  [[nodiscard]] const ArtifactBlob* find(const std::string& name) const;

  [[nodiscard]] std::vector<std::byte> serialize() const;
  // Throws awp::Error on bad magic, truncation, or a blob digest mismatch.
  static ScenarioProducts deserialize(const std::vector<std::byte>& data);
};

// FaultHistory <-> bytes, the rupture kind's "fault_history" product.
std::vector<std::byte> serializeFaultHistory(const rupture::FaultHistory& h);
rupture::FaultHistory deserializeFaultHistory(
    const std::vector<std::byte>& data);

}  // namespace awp::sched
