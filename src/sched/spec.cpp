#include "sched/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"

namespace awp::sched {

namespace {

using util::ByteReader;
using util::putBytes;
using util::putF64;
using util::putFloats;
using util::putI32;
using util::putString;
using util::putU32;
using util::putU64;

constexpr char kSpecMagic[8] = {'A', 'W', 'P', 'S', 'P', 'E', 'C', '1'};
constexpr char kSpecMagicV2[8] = {'A', 'W', 'P', 'S', 'P', 'E', 'C', '2'};
constexpr char kProductMagic[8] = {'A', 'W', 'P', 'P', 'R', 'O', 'D', '1'};
constexpr char kHistoryMagic[8] = {'A', 'W', 'P', 'F', 'H', 'I', 'S', '1'};

void checkMagic(ByteReader& r, const char (&magic)[8], const char* what) {
  r.need(8);
  if (std::memcmp(r.data.data() + r.pos, magic, 8) != 0)
    throw Error(std::string("sched: bad ") + what + " magic");
  r.pos += 8;
}

}  // namespace

const char* toString(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::Wave: return "wave";
    case ScenarioKind::Rupture: return "rupture";
  }
  return "unknown";
}

std::vector<std::byte> ScenarioSpec::canonicalBytes() const {
  std::vector<std::byte> out;
  out.reserve(160);
  // v1 encodes exactly as before the cycle fields existed, so pre-cycle
  // spec hashes (and thus cached products) are untouched; only a spec
  // carrying a cycle-event digest opts into the v2 magic + suffix.
  const bool v2 = !cycleDigest.empty();
  putBytes(out, v2 ? kSpecMagicV2 : kSpecMagic, sizeof(kSpecMagic));
  putU32(out, static_cast<std::uint32_t>(kind));
  putU64(out, steps);
  putI32(out, nranks);
  putU64(out, seed);
  putU64(out, static_cast<std::uint64_t>(dims.nx));
  putU64(out, static_cast<std::uint64_t>(dims.ny));
  putU64(out, static_cast<std::uint64_t>(dims.nz));
  putF64(out, h);
  putU32(out, useCvm ? 1u : 0u);
  putI32(out, spongeWidth);
  putI32(out, checkpointEverySteps);
  putI32(out, surfaceSampleEverySteps);
  putF64(out, sourceFreqHz);
  putF64(out, sourceAmplitude);
  putI32(out, healthEverySteps);
  putI32(out, maxRollbacks);
  putF64(out, lengthKm);
  putF64(out, depthKm);
  putF64(out, nucFraction);
  if (v2) putString(out, cycleDigest);
  return out;
}

std::string ScenarioSpec::hashHex() const {
  const auto bytes = canonicalBytes();
  return Md5::hexDigest(bytes.data(), bytes.size());
}

ScenarioSpec ScenarioSpec::decodeCanonical(
    const std::vector<std::byte>& data) {
  ByteReader r{data};
  r.need(8);
  bool v2 = false;
  if (std::memcmp(r.data.data(), kSpecMagicV2, 8) == 0)
    v2 = true;
  else if (std::memcmp(r.data.data(), kSpecMagic, 8) != 0)
    throw Error("sched: bad spec magic");
  r.pos += 8;

  ScenarioSpec s;
  s.kind = static_cast<ScenarioKind>(r.u32());
  if (s.kind != ScenarioKind::Wave && s.kind != ScenarioKind::Rupture)
    throw Error("sched: unknown scenario kind in spec encoding");
  s.steps = r.u64();
  s.nranks = r.i32();
  s.seed = r.u64();
  s.dims.nx = static_cast<std::size_t>(r.u64());
  s.dims.ny = static_cast<std::size_t>(r.u64());
  s.dims.nz = static_cast<std::size_t>(r.u64());
  s.h = r.f64();
  s.useCvm = r.u32() != 0;
  s.spongeWidth = r.i32();
  s.checkpointEverySteps = r.i32();
  s.surfaceSampleEverySteps = r.i32();
  s.sourceFreqHz = r.f64();
  s.sourceAmplitude = r.f64();
  s.healthEverySteps = r.i32();
  s.maxRollbacks = r.i32();
  s.lengthKm = r.f64();
  s.depthKm = r.f64();
  s.nucFraction = r.f64();
  if (v2) {
    s.cycleDigest = r.str();
    if (s.cycleDigest.empty())
      throw Error("sched: v2 spec encoding carries an empty cycle digest");
  }
  if (r.pos != data.size())
    throw Error("sched: trailing bytes after spec encoding");
  return s;
}

rupture::RuptureConfig ScenarioSpec::ruptureConfig() const {
  rupture::RuptureConfig config;
  // Round, don't truncate: a lengthKm produced as nx*h/1000 must map back
  // to exactly nx nodes (the cycle bridge's stress override is sized that
  // way, and the solver rejects a dimension mismatch).
  const auto nx = static_cast<std::size_t>(
      std::llround(lengthKm * 1000.0 / h));
  const auto nzFault = static_cast<std::size_t>(
      std::llround(depthKm * 1000.0 / h));
  const std::size_t margin = 14;
  config.globalDims = {nx + 2 * margin, 2 * margin + 2, nzFault + margin};
  config.h = h;
  config.faultJ = margin;
  config.fi0 = margin;
  config.fi1 = margin + nx;
  // The fault reaches from depthKm up to one row below the free surface.
  config.fk1 = config.globalDims.nz - 1;
  config.fk0 = config.fk1 - nzFault;
  config.spongeWidth = 10;
  // dc ∝ h keeps the cohesive zone resolved (the paper's 0.3 m at 100 m
  // gives Λ ≈ 6-7 h); under-resolving it drives spurious super-shear.
  config.friction.dc = 1.5e-3 * h;
  config.friction.dcSurface = 3.0 * config.friction.dc;
  config.stress.seed = seed;
  config.stress.corrX = 0.1 * lengthKm * 1000.0;
  config.stress.corrZ = 0.3 * depthKm * 1000.0;
  config.stress.nucX = nucFraction * lengthKm * 1000.0;
  config.stress.nucZ = 0.6 * depthKm * 1000.0;
  config.stress.nucRadius = std::max(8.0 * h, 4000.0);
  config.stress.nucExcess = 0.15;
  config.timeDecimation = 2;
  config.slipRateThreshold = 0.01;
  // A cycle-bridged scenario nucleates from its interseismically evolved
  // stress snapshot instead of the seeded random-field model.
  if (cycleStress) config.stressOverride = cycleStress;
  return config;
}

ArtifactBlob ArtifactBlob::fromBytes(std::vector<std::byte> data) {
  ArtifactBlob blob;
  blob.md5Hex = Md5::hexDigest(data.data(), data.size());
  blob.bytes = std::move(data);
  return blob;
}

const ArtifactBlob* ScenarioProducts::find(const std::string& name) const {
  for (const auto& [n, blob] : blobs)
    if (n == name) return &blob;
  return nullptr;
}

std::vector<std::byte> ScenarioProducts::serialize() const {
  std::vector<const std::pair<std::string, ArtifactBlob>*> sorted;
  sorted.reserve(blobs.size());
  for (const auto& entry : blobs) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::vector<std::byte> out;
  putBytes(out, kProductMagic, sizeof(kProductMagic));
  putString(out, specHash);
  putU64(out, completedSteps);
  putF64(out, dt);
  putU64(out, sorted.size());
  for (const auto* entry : sorted) {
    const auto& [name, blob] = *entry;
    putString(out, name);
    putString(out, blob.md5Hex);
    putU64(out, blob.bytes.size());
    putBytes(out, blob.bytes.data(), blob.bytes.size());
  }
  return out;
}

ScenarioProducts ScenarioProducts::deserialize(
    const std::vector<std::byte>& data) {
  ByteReader r{data};
  checkMagic(r, kProductMagic, "product");
  ScenarioProducts p;
  p.specHash = r.str();
  p.completedSteps = r.u64();
  p.dt = r.f64();
  const auto count = static_cast<std::size_t>(r.u64());
  p.blobs.reserve(count);
  std::string prev;
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = r.str();
    if (i > 0 && !(prev < name))
      throw Error("sched: product blobs not sorted ('" + prev + "' before '" +
                  name + "')");
    prev = name;
    ArtifactBlob blob;
    blob.md5Hex = r.str();
    blob.bytes = r.bytes(static_cast<std::size_t>(r.u64()));
    const std::string actual =
        Md5::hexDigest(blob.bytes.data(), blob.bytes.size());
    if (actual != blob.md5Hex)
      throw Error("sched: product blob '" + name + "' digest mismatch (" +
                  actual + " != " + blob.md5Hex + ")");
    p.blobs.emplace_back(std::move(name), std::move(blob));
  }
  if (r.pos != data.size())
    throw Error("sched: trailing bytes after product encoding");
  return p;
}

std::vector<std::byte> serializeFaultHistory(const rupture::FaultHistory& h) {
  std::vector<std::byte> out;
  putBytes(out, kHistoryMagic, sizeof(kHistoryMagic));
  putU64(out, h.nx);
  putU64(out, h.nz);
  putF64(out, h.h);
  putF64(out, h.dt);
  putI32(out, h.timeDecimation);
  putU64(out, h.recordedSteps);
  putFloats(out, h.finalSlip);
  putFloats(out, h.peakSlipRate);
  putFloats(out, h.ruptureTime);
  putFloats(out, h.rigidity);
  putFloats(out, h.slipRateX);
  putFloats(out, h.slipRateZ);
  return out;
}

rupture::FaultHistory deserializeFaultHistory(
    const std::vector<std::byte>& data) {
  ByteReader r{data};
  checkMagic(r, kHistoryMagic, "fault-history");
  rupture::FaultHistory h;
  h.nx = static_cast<std::size_t>(r.u64());
  h.nz = static_cast<std::size_t>(r.u64());
  h.h = r.f64();
  h.dt = r.f64();
  h.timeDecimation = r.i32();
  h.recordedSteps = static_cast<std::size_t>(r.u64());
  h.finalSlip = r.floats();
  h.peakSlipRate = r.floats();
  h.ruptureTime = r.floats();
  h.rigidity = r.floats();
  h.slipRateX = r.floats();
  h.slipRateZ = r.floats();
  if (r.pos != data.size())
    throw Error("sched: trailing bytes after fault-history encoding");
  return h;
}

}  // namespace awp::sched
