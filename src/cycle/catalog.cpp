#include "cycle/catalog.hpp"

#include <algorithm>

#include "telemetry/json.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"

namespace awp::cycle {

namespace {

using util::putBytes;
using util::putF64;
using util::putI32;
using util::putString;
using util::putU64;

void putDoubles(std::vector<std::byte>& out, const std::vector<double>& v) {
  putU64(out, v.size());
  for (double x : v) putF64(out, x);
}

constexpr char kEventMagic[8] = {'A', 'W', 'P', 'C', 'Y', 'E', 'V', '1'};
constexpr char kCatalogMagic[8] = {'A', 'W', 'P', 'C', 'Y', 'C', 'A', '1'};

}  // namespace

std::vector<std::byte> CycleEvent::canonicalBytes() const {
  std::vector<std::byte> out;
  out.reserve(64 + 24 * nx * nz);
  putBytes(out, kEventMagic, sizeof(kEventMagic));
  putI32(out, index);
  putF64(out, onsetSeconds);
  putF64(out, durationSeconds);
  putF64(out, peakSlipRate);
  putF64(out, momentNm);
  putF64(out, magnitude);
  putU64(out, static_cast<std::uint64_t>(nucI));
  putU64(out, static_cast<std::uint64_t>(nucK));
  putF64(out, tauCloseNuc);
  putU64(out, static_cast<std::uint64_t>(nx));
  putU64(out, static_cast<std::uint64_t>(nz));
  putF64(out, cell);
  putDoubles(out, tau);
  putDoubles(out, sigmaN);
  putDoubles(out, theta);
  return out;
}

std::string CycleEvent::computeDigest() const {
  const auto bytes = canonicalBytes();
  return Md5::hexDigest(bytes.data(), bytes.size());
}

std::vector<std::byte> CycleCatalog::canonicalBytes() const {
  std::vector<std::byte> out;
  putBytes(out, kCatalogMagic, sizeof(kCatalogMagic));
  putU64(out, static_cast<std::uint64_t>(nx));
  putU64(out, static_cast<std::uint64_t>(nz));
  putF64(out, cell);
  putF64(out, years);
  putU64(out, seed);
  putU64(out, steps);
  putU64(out, rows.size());
  for (const CycleCatalogRow& row : rows) {
    putI32(out, row.index);
    putF64(out, row.onsetSeconds);
    putF64(out, row.durationSeconds);
    putF64(out, row.magnitude);
    putF64(out, row.momentNm);
    putF64(out, row.peakSlipRate);
    putString(out, row.eventDigest);
    putString(out, row.specHash);
    putString(out, row.productDigest);
    putString(out, row.phase);
    putI32(out, row.completions);
  }
  return out;
}

std::string CycleCatalog::digestHex() const {
  const auto bytes = canonicalBytes();
  return Md5::hexDigest(bytes.data(), bytes.size());
}

std::string toJson(const CycleCatalog& catalog) {
  telemetry::JsonWriter w;
  w.beginObject()
      .field("schema", "awp-cycle-catalog")
      .field("version", 1)
      .field("nx", catalog.nx)
      .field("nz", catalog.nz)
      .field("cell", catalog.cell)
      .field("years", catalog.years)
      .field("seed", catalog.seed)
      .field("steps", catalog.steps)
      .field("wall_seconds", catalog.wallSeconds)
      .field("events_detected", catalog.rows.size())
      .field("catalog_digest", catalog.digestHex())
      .key("events")
      .beginArray();
  for (const CycleCatalogRow& row : catalog.rows)
    w.beginObject()
        .field("index", row.index)
        .field("onset_seconds", row.onsetSeconds)
        .field("duration_seconds", row.durationSeconds)
        .field("magnitude", row.magnitude)
        .field("moment_nm", row.momentNm)
        .field("peak_slip_rate", row.peakSlipRate)
        .field("event_digest", row.eventDigest)
        .field("spec_hash", row.specHash)
        .field("product_digest", row.productDigest)
        .field("phase", row.phase)
        .field("completions", row.completions)
        .endObject();
  return w.endArray().endObject().str();
}

namespace {

using telemetry::FieldRule;
using enum telemetry::FieldKind;

constexpr FieldRule kCatalogFields[] = {
    {"nx", Finite}, {"nz", Finite}, {"cell", NonNegative},
    {"years", NonNegative}, {"seed", NonNegative}, {"steps", NonNegative},
    {"wall_seconds", NonNegative}, {"events_detected", NonNegative},
    {"catalog_digest", Hex32}, {"events", Array},
};

constexpr std::string_view kTerminalPhases[] = {"completed", "failed",
                                                "rejected"};

constexpr FieldRule kEventFields[] = {
    {"index", Finite}, {"onset_seconds", NonNegative},
    {"duration_seconds", NonNegative}, {"magnitude", Finite},
    {"moment_nm", NonNegative}, {"peak_slip_rate", Finite},
    {"event_digest", Hex32}, {"spec_hash", Hex32},
    {"phase", OneOf, kTerminalPhases}, {"completions", NonNegative},
};

}  // namespace

std::vector<std::string> validateCycleCatalogJson(const std::string& text) {
  using telemetry::JsonValue;
  using telemetry::numberOf;
  telemetry::SchemaCheck check(text, "awp-cycle-catalog", 1, kCatalogFields);
  const JsonValue* root = check.root();
  if (root == nullptr) return check.violations();
  check.require(numberOf(*root, "nx") >= 1.0, "nx must be >= 1");
  check.require(numberOf(*root, "nz") >= 1.0, "nz must be >= 1");

  const JsonValue* events =
      telemetry::memberOf(*root, "events", JsonValue::Kind::Array);
  if (events == nullptr) return check.violations();
  check.require(static_cast<double>(events->items.size()) ==
                    numberOf(*root, "events_detected"),
                "events_detected disagrees with the events array");

  double lastOnset = 0.0;
  for (std::size_t n = 0; n < events->items.size(); ++n) {
    const JsonValue& ev = events->items[n];
    const std::string where = "events[" + std::to_string(n) + "]";
    if (!check.require(ev.isObject(), where + " is not an object")) continue;
    check.fields(ev, where, kEventFields);
    check.require(numberOf(ev, "index") == static_cast<double>(n),
                  where + ".index is not its position");
    const double onset = numberOf(ev, "onset_seconds");
    check.require(onset >= lastOnset, where + ".onset_seconds out of order");
    lastOnset = std::max(lastOnset, onset);
    check.require(numberOf(ev, "peak_slip_rate") > 0.0,
                  where + ".peak_slip_rate not positive");
    if (telemetry::textOf(ev, "phase") == "completed") {
      check.require(telemetry::isHex32(telemetry::textOf(ev, "product_digest")),
                    where + ".product_digest missing on a completed event");
      check.require(numberOf(ev, "completions") >= 1.0,
                    where + ".completions < 1 on a completed event");
    }
  }
  return check.violations();
}

}  // namespace awp::cycle
