#pragma once
// Tile identity for the hazard-product serving tier. A surface product
// (PGV-H map today; spectral-acceleration bands later) is split into
// fixed-size square tiles; each published tile version is identified by
// (physics digest, field, tile coordinates, window version) and its
// payload is stored content-addressed in the TileStore, so overlapping
// extents across scenarios — and unchanged tiles across window versions —
// share one stored chunk.
//
// TileKey is a fixed-size, trivially-comparable struct (raw 16-byte
// digest, not hex) so index probes on the query hot path are alloc-free.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/hot.hpp"

namespace awp::serve {

// Surface product fields. Closed enum: the field id is part of every tile
// key and of its version key string, so values are append-only.
enum class Field : std::uint16_t {
  PgvH = 0,  // horizontal peak ground velocity (max over samples)
};

const char* toString(Field field);

// Half-open surface-point rectangle [x0, x1) x [y0, y1) in global grid
// coordinates.
struct Extent {
  std::size_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  [[nodiscard]] bool empty() const { return x1 <= x0 || y1 <= y0; }
  [[nodiscard]] std::size_t width() const { return x1 - x0; }
  [[nodiscard]] std::size_t height() const { return y1 - y0; }
  [[nodiscard]] bool overlaps(const Extent& o) const {
    return x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1;
  }
};

// Identity of one tile of one scenario's surface product.
struct TileKey {
  std::array<std::uint8_t, 16> digest{};  // raw MD5 of the scenario spec
  std::uint16_t field = 0;                // Field enum value
  std::uint16_t tx = 0, ty = 0;           // tile coordinates (tile grid)
};

// Total order for index maps. Alloc-free and throw-free: this is the
// comparator under every tile lookup on the query path.
AWP_HOT bool tileKeyLess(const TileKey& a, const TileKey& b);

struct TileKeyLess {
  bool operator()(const TileKey& a, const TileKey& b) const {
    return tileKeyLess(a, b);
  }
};

inline bool operator==(const TileKey& a, const TileKey& b) {
  return !tileKeyLess(a, b) && !tileKeyLess(b, a);
}

// The tile rectangle in surface-point coordinates, clamped to (nx, ny).
Extent tileExtent(const TileKey& key, int tileEdge, std::size_t nx,
                  std::size_t ny);

// Hex digest (32 chars) <-> raw bytes. Throws awp::Error on malformed hex.
std::array<std::uint8_t, 16> digestFromHex(const std::string& hex);
std::string digestToHex(const std::array<std::uint8_t, 16>& digest);

// Canonical versioned tile identity string:
// "tile:<digest>:<field>:<tx>x<ty>:v<version>". Deterministic across
// processes for equal inputs — the property pinned by test_serve's
// tile-key determinism case — and the debug/trace name of a publish.
std::string tileVersionKey(const TileKey& key, std::uint64_t version);

}  // namespace awp::serve
