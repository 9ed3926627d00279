#pragma once
// Fixed-width little-endian byte codec: the one encoding behind scenario
// spec hashes, product bytes and cycle catalog digests. Doubles go
// through their IEEE-754 bit pattern, so an encoding hashes the exact
// value, not a formatting of it. Float arrays are copied in host order.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace awp::util {

inline void putU64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

inline void putU32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

inline void putI32(std::vector<std::byte>& out, std::int32_t v) {
  putU32(out, static_cast<std::uint32_t>(v));
}

inline void putF64(std::vector<std::byte>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  putU64(out, bits);
}

inline void putBytes(std::vector<std::byte>& out, const void* data,
                     std::size_t len) {
  const auto* p = static_cast<const std::byte*>(data);
  out.insert(out.end(), p, p + len);
}

inline void putString(std::vector<std::byte>& out, const std::string& s) {
  putU64(out, s.size());
  putBytes(out, s.data(), s.size());
}

inline void putFloats(std::vector<std::byte>& out,
                      const std::vector<float>& v) {
  putU64(out, v.size());
  putBytes(out, v.data(), v.size() * sizeof(float));
}

// Cursor over an encoding; every read bounds-checks against the buffer
// and throws Error past its end.
struct ByteReader {
  const std::vector<std::byte>& data;
  std::size_t pos = 0;

  // pos never passes data.size(), so the subtraction cannot wrap; an
  // encoded length near 2^64 must not wrap pos + n past the check.
  void need(std::size_t n) const {
    if (n > data.size() - pos)
      throw Error("truncated encoding at offset " + std::to_string(pos));
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const auto n = static_cast<std::size_t>(u64());
    need(n);
    std::string s(reinterpret_cast<const char*>(data.data() + pos), n);
    pos += n;
    return s;
  }
  std::vector<std::byte> bytes(std::size_t n) {
    need(n);
    std::vector<std::byte> out(data.begin() + static_cast<std::ptrdiff_t>(pos),
                               data.begin() +
                                   static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return out;
  }
  std::vector<float> floats() {
    const auto n = static_cast<std::size_t>(u64());
    need(n);  // bounds n first, so n * sizeof(float) cannot wrap
    need(n * sizeof(float));
    std::vector<float> out(n);
    std::memcpy(out.data(), data.data() + pos, n * sizeof(float));
    pos += n * sizeof(float);
    return out;
  }
};

}  // namespace awp::util
