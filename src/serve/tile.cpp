#include "serve/tile.hpp"

#include <cstring>

#include "util/error.hpp"

namespace awp::serve {

const char* toString(Field field) {
  switch (field) {
    case Field::PgvH: return "pgvh";
  }
  return "?";
}

AWP_HOT bool tileKeyLess(const TileKey& a, const TileKey& b) {
  const int c = std::memcmp(a.digest.data(), b.digest.data(),
                            a.digest.size());
  if (c != 0) return c < 0;
  if (a.field != b.field) return a.field < b.field;
  if (a.ty != b.ty) return a.ty < b.ty;
  return a.tx < b.tx;
}

Extent tileExtent(const TileKey& key, int tileEdge, std::size_t nx,
                  std::size_t ny) {
  const auto edge = static_cast<std::size_t>(tileEdge);
  Extent e;
  e.x0 = static_cast<std::size_t>(key.tx) * edge;
  e.y0 = static_cast<std::size_t>(key.ty) * edge;
  e.x1 = e.x0 + edge < nx ? e.x0 + edge : nx;
  e.y1 = e.y0 + edge < ny ? e.y0 + edge : ny;
  if (e.x0 > nx) e.x0 = nx;
  if (e.y0 > ny) e.y0 = ny;
  return e;
}

namespace {

int hexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::array<std::uint8_t, 16> digestFromHex(const std::string& hex) {
  if (hex.size() != 32)
    throw Error("serve: digest is not 32 hex chars: '" + hex + "'");
  std::array<std::uint8_t, 16> out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int hi = hexNibble(hex[2 * i]);
    const int lo = hexNibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0)
      throw Error("serve: malformed hex digest: '" + hex + "'");
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return out;
}

std::string digestToHex(const std::array<std::uint8_t, 16>& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(32, '0');
  for (std::size_t i = 0; i < digest.size(); ++i) {
    out[2 * i] = kHex[digest[i] >> 4];
    out[2 * i + 1] = kHex[digest[i] & 0xf];
  }
  return out;
}

std::string tileVersionKey(const TileKey& key, std::uint64_t version) {
  return "tile:" + digestToHex(key.digest) + ":" +
         toString(static_cast<Field>(key.field)) + ":" +
         std::to_string(key.tx) + "x" + std::to_string(key.ty) + ":v" +
         std::to_string(version);
}

}  // namespace awp::serve
