#include "util/md5.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace awp {
namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

std::uint32_t rotl(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

// One RFC 1321 step, a = b + ((a + fn(b, c, d) + x + t) <<< s), for each
// round's function: F and G in their two-operation form, H, I.
void ff(std::uint32_t& a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
        std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + (d ^ (b & (c ^ d))) + x + t, s);
}
void gg(std::uint32_t& a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
        std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + (c ^ (d & (b ^ c))) + x + t, s);
}
void hh(std::uint32_t& a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
        std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + (b ^ c ^ d) + x + t, s);
}
void ii(std::uint32_t& a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
        std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + (c ^ (b | ~d)) + x + t, s);
}

}  // namespace

Md5::Md5() { reset(); }

void Md5::reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  totalBits_ = 0;
  bufferLen_ = 0;
  finalized_ = false;
}

void Md5::processBlock(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[4 * i]) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 8) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 3]) << 24);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  // Round 1.
  ff(a, b, c, d, m[0], 7, 0xd76aa478u);
  ff(d, a, b, c, m[1], 12, 0xe8c7b756u);
  ff(c, d, a, b, m[2], 17, 0x242070dbu);
  ff(b, c, d, a, m[3], 22, 0xc1bdceeeu);
  ff(a, b, c, d, m[4], 7, 0xf57c0fafu);
  ff(d, a, b, c, m[5], 12, 0x4787c62au);
  ff(c, d, a, b, m[6], 17, 0xa8304613u);
  ff(b, c, d, a, m[7], 22, 0xfd469501u);
  ff(a, b, c, d, m[8], 7, 0x698098d8u);
  ff(d, a, b, c, m[9], 12, 0x8b44f7afu);
  ff(c, d, a, b, m[10], 17, 0xffff5bb1u);
  ff(b, c, d, a, m[11], 22, 0x895cd7beu);
  ff(a, b, c, d, m[12], 7, 0x6b901122u);
  ff(d, a, b, c, m[13], 12, 0xfd987193u);
  ff(c, d, a, b, m[14], 17, 0xa679438eu);
  ff(b, c, d, a, m[15], 22, 0x49b40821u);

  // Round 2.
  gg(a, b, c, d, m[1], 5, 0xf61e2562u);
  gg(d, a, b, c, m[6], 9, 0xc040b340u);
  gg(c, d, a, b, m[11], 14, 0x265e5a51u);
  gg(b, c, d, a, m[0], 20, 0xe9b6c7aau);
  gg(a, b, c, d, m[5], 5, 0xd62f105du);
  gg(d, a, b, c, m[10], 9, 0x02441453u);
  gg(c, d, a, b, m[15], 14, 0xd8a1e681u);
  gg(b, c, d, a, m[4], 20, 0xe7d3fbc8u);
  gg(a, b, c, d, m[9], 5, 0x21e1cde6u);
  gg(d, a, b, c, m[14], 9, 0xc33707d6u);
  gg(c, d, a, b, m[3], 14, 0xf4d50d87u);
  gg(b, c, d, a, m[8], 20, 0x455a14edu);
  gg(a, b, c, d, m[13], 5, 0xa9e3e905u);
  gg(d, a, b, c, m[2], 9, 0xfcefa3f8u);
  gg(c, d, a, b, m[7], 14, 0x676f02d9u);
  gg(b, c, d, a, m[12], 20, 0x8d2a4c8au);

  // Round 3.
  hh(a, b, c, d, m[5], 4, 0xfffa3942u);
  hh(d, a, b, c, m[8], 11, 0x8771f681u);
  hh(c, d, a, b, m[11], 16, 0x6d9d6122u);
  hh(b, c, d, a, m[14], 23, 0xfde5380cu);
  hh(a, b, c, d, m[1], 4, 0xa4beea44u);
  hh(d, a, b, c, m[4], 11, 0x4bdecfa9u);
  hh(c, d, a, b, m[7], 16, 0xf6bb4b60u);
  hh(b, c, d, a, m[10], 23, 0xbebfbc70u);
  hh(a, b, c, d, m[13], 4, 0x289b7ec6u);
  hh(d, a, b, c, m[0], 11, 0xeaa127fau);
  hh(c, d, a, b, m[3], 16, 0xd4ef3085u);
  hh(b, c, d, a, m[6], 23, 0x04881d05u);
  hh(a, b, c, d, m[9], 4, 0xd9d4d039u);
  hh(d, a, b, c, m[12], 11, 0xe6db99e5u);
  hh(c, d, a, b, m[15], 16, 0x1fa27cf8u);
  hh(b, c, d, a, m[2], 23, 0xc4ac5665u);

  // Round 4.
  ii(a, b, c, d, m[0], 6, 0xf4292244u);
  ii(d, a, b, c, m[7], 10, 0x432aff97u);
  ii(c, d, a, b, m[14], 15, 0xab9423a7u);
  ii(b, c, d, a, m[5], 21, 0xfc93a039u);
  ii(a, b, c, d, m[12], 6, 0x655b59c3u);
  ii(d, a, b, c, m[3], 10, 0x8f0ccc92u);
  ii(c, d, a, b, m[10], 15, 0xffeff47du);
  ii(b, c, d, a, m[1], 21, 0x85845dd1u);
  ii(a, b, c, d, m[8], 6, 0x6fa87e4fu);
  ii(d, a, b, c, m[15], 10, 0xfe2ce6e0u);
  ii(c, d, a, b, m[6], 15, 0xa3014314u);
  ii(b, c, d, a, m[13], 21, 0x4e0811a1u);
  ii(a, b, c, d, m[4], 6, 0xf7537e82u);
  ii(d, a, b, c, m[11], 10, 0xbd3af235u);
  ii(c, d, a, b, m[2], 15, 0x2ad7d2bbu);
  ii(b, c, d, a, m[9], 21, 0xeb86d391u);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(const void* data, std::size_t len) {
  AWP_CHECK_MSG(!finalized_, "Md5::update after digest()");
  if (len == 0) return;
  const auto* p = static_cast<const std::uint8_t*>(data);
  totalBits_ += static_cast<std::uint64_t>(len) * 8;

  if (bufferLen_ > 0) {
    const std::size_t take = std::min<std::size_t>(64 - bufferLen_, len);
    std::memcpy(buffer_ + bufferLen_, p, take);
    bufferLen_ += take;
    p += take;
    len -= take;
    if (bufferLen_ < 64) return;
    processBlock(buffer_);
    bufferLen_ = 0;
  }
  // Whole blocks straight from the input; only the tail is buffered.
  for (; len >= 64; p += 64, len -= 64) processBlock(p);
  if (len > 0) std::memcpy(buffer_, p, len);
  bufferLen_ = len;
}

std::array<std::uint8_t, 16> Md5::digest() {
  AWP_CHECK_MSG(!finalized_, "Md5::digest called twice");
  finalized_ = true;

  const std::uint64_t bits = totalBits_;
  // Padding: 0x80 then zeros until length ≡ 56 (mod 64), then 8 length bytes.
  std::uint8_t pad = 0x80;
  std::size_t padLen = (bufferLen_ < 56) ? (56 - bufferLen_)
                                         : (120 - bufferLen_);
  finalized_ = false;  // allow the padding updates below
  update(&pad, 1);
  std::uint8_t zero = 0;
  for (std::size_t i = 1; i < padLen; ++i) update(&zero, 1);
  std::uint8_t lenBytes[8];
  for (int i = 0; i < 8; ++i)
    lenBytes[i] = static_cast<std::uint8_t>((bits >> (8 * i)) & 0xff);
  update(lenBytes, 8);
  finalized_ = true;

  std::array<std::uint8_t, 16> out;
  for (int i = 0; i < 4; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] & 0xff);
    out[4 * i + 1] = static_cast<std::uint8_t>((state_[i] >> 8) & 0xff);
    out[4 * i + 2] = static_cast<std::uint8_t>((state_[i] >> 16) & 0xff);
    out[4 * i + 3] = static_cast<std::uint8_t>((state_[i] >> 24) & 0xff);
  }
  return out;
}

std::array<std::uint8_t, 16> Md5::hash(const void* data, std::size_t len) {
  Md5 h;
  h.update(data, len);
  return h.digest();
}

std::string Md5::toHex(const std::array<std::uint8_t, 16>& d) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(32);
  for (std::uint8_t b : d) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xf]);
  }
  return s;
}

std::string Md5::hexDigest(const void* data, std::size_t len) {
  return toHex(hash(data, len));
}

}  // namespace awp
