// Unit tests for src/util: containers, RNG, FFT, MD5, filters, statistics,
// and the shared retry policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/array3.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/fft.hpp"
#include "util/filter.hpp"
#include "util/md5.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace awp {
namespace {

TEST(Retry, SucceedsAfterTransientFailures) {
  util::RetryPolicy policy;
  policy.maxAttempts = 5;
  int calls = 0;
  util::RetryStats stats;
  const int result = util::retryCall(
      policy, "test.transient",
      [&] {
        if (++calls < 3) throw TransientError("flaky");
        return 42;
      },
      &stats);
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.failures, 2);
  EXPECT_EQ(stats.lastError, "flaky");
}

TEST(Retry, ExhaustsAttemptsAndRethrows) {
  util::RetryPolicy policy;
  policy.maxAttempts = 3;
  int calls = 0;
  util::RetryStats stats;
  EXPECT_THROW(util::retryCall(
                   policy, "test.exhaust",
                   [&]() -> int { ++calls; throw TransientError("down"); },
                   &stats),
               TransientError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.failures, 3);
}

TEST(Retry, PermanentErrorsAreNotRetried) {
  util::RetryPolicy policy;
  policy.maxAttempts = 5;
  int calls = 0;
  EXPECT_THROW(util::retryCall(policy, "test.permanent",
                               [&]() -> int {
                                 ++calls;
                                 throw Error("disk gone");
                               }),
               Error);
  EXPECT_EQ(calls, 1);
}

TEST(Retry, RetryCallAnyRetriesNonStandardThrows) {
  util::RetryPolicy policy;
  policy.maxAttempts = 4;
  int calls = 0;
  const int result = util::retryCallAny(policy, "test.any", [&] {
    if (++calls < 4) throw 17;  // not a std::exception
    return 7;
  });
  EXPECT_EQ(result, 7);
  EXPECT_EQ(calls, 4);
}

TEST(Retry, AttemptIndexIsPassedWhenRequested) {
  util::RetryPolicy policy;
  policy.maxAttempts = 3;
  std::vector<int> seen;
  util::retryCall(policy, "test.index", [&](int attempt) {
    seen.push_back(attempt);
    if (attempt < 3) throw TransientError("again");
  });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(Retry, BackoffIsDeterministicBoundedAndGrowing) {
  util::RetryPolicy policy;
  policy.baseDelaySeconds = 0.010;
  policy.backoffFactor = 2.0;
  policy.maxDelaySeconds = 0.100;
  policy.jitterFraction = 0.25;
  policy.seed = 1234;
  const double d1 = util::retryBackoffSeconds(policy, "site", 1);
  const double d2 = util::retryBackoffSeconds(policy, "site", 2);
  // Same inputs, same delay (deterministic jitter).
  EXPECT_DOUBLE_EQ(d1, util::retryBackoffSeconds(policy, "site", 1));
  // Jitter stays within +/- 25% of the nominal exponential delay.
  EXPECT_GT(d1, 0.010 * 0.75);
  EXPECT_LT(d1, 0.010 * 1.25);
  EXPECT_GT(d2, 0.020 * 0.75);
  EXPECT_LT(d2, 0.020 * 1.25);
  // Ceiling applies (nominal would be 0.64s at failure 7).
  EXPECT_LE(util::retryBackoffSeconds(policy, "site", 7), 0.100 * 1.25);
  // Different sites draw different jitter.
  EXPECT_NE(util::retryBackoffSeconds(policy, "siteA", 1),
            util::retryBackoffSeconds(policy, "siteB", 1));
  // Zero base delay means no sleeping at all.
  policy.baseDelaySeconds = 0.0;
  EXPECT_DOUBLE_EQ(util::retryBackoffSeconds(policy, "site", 3), 0.0);
}

TEST(Retry, RegistryAggregatesPerSite) {
  util::resetRetryRegistry();
  util::RetryPolicy policy;
  policy.maxAttempts = 2;
  int calls = 0;
  util::retryCall(policy, "test.registry", [&] {
    if (++calls < 2) throw TransientError("once");
  });
  EXPECT_THROW(
      util::retryCall(policy, "test.registry",
                      [&] { throw TransientError("always"); }),
      TransientError);
  const auto snapshot = util::retryRegistrySnapshot();
  const auto& site = snapshot.at("test.registry");
  EXPECT_EQ(site.calls, 2u);
  EXPECT_EQ(site.attempts, 4u);
  EXPECT_EQ(site.failures, 3u);
  EXPECT_EQ(site.exhausted, 1u);
}

TEST(Bytes, RoundTripsAndRejectsLengthsPastTheEnd) {
  std::vector<std::byte> out;
  util::putU64(out, 0x0102030405060708ULL);
  util::putI32(out, -7);
  util::putF64(out, -0.1);
  util::putString(out, "abc");
  util::putFloats(out, {1.5f, -2.0f});
  ASSERT_EQ(out.front(), std::byte{0x08});  // little-endian
  util::ByteReader r{out};
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_EQ(r.str(), "abc");
  EXPECT_EQ(r.floats(), (std::vector<float>{1.5f, -2.0f}));
  EXPECT_EQ(r.pos, out.size());
  EXPECT_THROW((void)r.u32(), Error);

  // Encoded lengths whose byte counts would wrap a 64-bit offset are
  // truncation errors, not huge reads.
  for (const std::uint64_t length : {~0ULL, 1ULL << 62}) {
    std::vector<std::byte> bad;
    util::putU64(bad, length);
    util::putU64(bad, 0);
    util::ByteReader s{bad};
    EXPECT_THROW((void)s.str(), Error);
    s.pos = 0;
    EXPECT_THROW((void)s.floats(), Error);
  }
}

TEST(Array3, IndexingIsXFastest) {
  Array3<int> a(3, 4, 5);
  ASSERT_EQ(a.size(), 60u);
  a(1, 2, 3) = 42;
  EXPECT_EQ(a.data()[1 + 3 * (2 + 4 * 3)], 42);
  EXPECT_EQ(a.index(2, 0, 0), 2u);
  EXPECT_EQ(a.index(0, 1, 0), 3u);
  EXPECT_EQ(a.index(0, 0, 1), 12u);
}

TEST(Array3, FillAndResize) {
  Array3f a(2, 2, 2, 7.0f);
  for (float v : a) EXPECT_EQ(v, 7.0f);
  a.resize(1, 1, 1, -1.0f);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a(0, 0, 0), -1.0f);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(99);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.gaussian());
  EXPECT_NEAR(mean(xs), 0.0, 0.03);
  EXPECT_NEAR(stddev(xs), 1.0, 0.03);
}

TEST(Rng, SplitStreamsDiffer) {
  Rng base(5);
  Rng a = base.split(1);
  Rng b = base.split(2);
  EXPECT_NE(a.nextU64(), b.nextU64());
}

TEST(Rng, BelowIsUnbiasedRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Fft, RoundTrip) {
  Rng rng(1);
  std::vector<Complex> a(64);
  for (auto& v : a) v = Complex(rng.uniform(), rng.uniform());
  auto b = a;
  fft(b, false);
  fft(b, true);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-10);
}

TEST(Fft, SinglePureToneSpectrumPeak) {
  const double dt = 0.01, f0 = 5.0;
  std::vector<double> x(512);
  for (std::size_t n = 0; n < x.size(); ++n)
    x[n] = std::sin(2.0 * M_PI * f0 * static_cast<double>(n) * dt);
  const auto s = amplitudeSpectrum(x, dt);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < s.amplitude.size(); ++k)
    if (s.amplitude[k] > s.amplitude[peak]) peak = k;
  EXPECT_NEAR(s.frequency[peak], f0, 0.3);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> a(3);
  EXPECT_THROW(fft(a, false), Error);
}

TEST(Fft2d, RoundTrip) {
  Rng rng(2);
  std::vector<Complex> a(16 * 8);
  for (auto& v : a) v = Complex(rng.uniform(), rng.uniform());
  auto b = a;
  fft2d(b, 16, 8, false);
  fft2d(b, 16, 8, true);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-10);
}

// RFC 1321 test vectors.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hexDigest("", 0), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hexDigest("a", 1), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hexDigest("abc", 3), "900150983cd24fb0d6963f7d28e17f72");
  const char* msg = "message digest";
  EXPECT_EQ(Md5::hexDigest(msg, 14), "f96b697d7cb7938d525a2f31aaf161d0");
  const char* alpha = "abcdefghijklmnopqrstuvwxyz";
  EXPECT_EQ(Md5::hexDigest(alpha, 26), "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Md5, IncrementalMatchesOneShot) {
  const std::string data(1000, 'x');
  Md5 h;
  for (std::size_t i = 0; i < data.size(); i += 77)
    h.update(data.data() + i, std::min<std::size_t>(77, data.size() - i));
  EXPECT_EQ(Md5::toHex(h.digest()),
            Md5::hexDigest(data.data(), data.size()));
}

TEST(Md5, DigestTwiceThrows) {
  Md5 h;
  h.update("x", 1);
  h.digest();
  EXPECT_THROW(h.digest(), Error);
}

// The table-driven RFC 1321 loop Md5::processBlock used before it was
// unrolled, with the byte-at-a-time buffering and padding: the oracle the
// unrolled digest must match bit for bit.
std::string referenceLoopMd5(const std::uint8_t* data, std::size_t len) {
  static constexpr int kShift[64] = {
      7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
      5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
      4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
      6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
  std::uint32_t sine[64];
  for (int i = 0; i < 64; ++i)
    sine[i] = static_cast<std::uint32_t>(
        std::floor(4294967296.0 * std::abs(std::sin(i + 1.0))));
  std::uint32_t state[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                            0x10325476u};
  auto rotl = [](std::uint32_t x, int c) {
    return (x << c) | (x >> (32 - c));
  };
  auto block = [&](const std::uint8_t* blk) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i)
      m[i] = static_cast<std::uint32_t>(blk[4 * i]) |
             (static_cast<std::uint32_t>(blk[4 * i + 1]) << 8) |
             (static_cast<std::uint32_t>(blk[4 * i + 2]) << 16) |
             (static_cast<std::uint32_t>(blk[4 * i + 3]) << 24);
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t f = 0;
      int g = 0;
      if (i < 16) {
        f = (b & c) | (~b & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | (~d & c);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) % 16;
      } else {
        f = c ^ (b | ~d);
        g = (7 * i) % 16;
      }
      const std::uint32_t tmp = d;
      d = c;
      c = b;
      b = b + rotl(a + f + sine[i] + m[g], kShift[i]);
      a = tmp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
  };
  std::vector<std::uint8_t> msg(data, data + len);
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(len) * 8;
  for (int i = 0; i < 8; ++i)
    msg.push_back(static_cast<std::uint8_t>((bits >> (8 * i)) & 0xff));
  for (std::size_t at = 0; at < msg.size(); at += 64) block(msg.data() + at);
  std::array<std::uint8_t, 16> out{};
  for (int i = 0; i < 16; ++i)
    out[i] = static_cast<std::uint8_t>((state[i / 4] >> (8 * (i % 4))) & 0xff);
  return Md5::toHex(out);
}

TEST(Md5, UnrolledMatchesReferenceLoop) {
  Rng rng(20240611);
  std::vector<std::uint8_t> data;
  // Random lengths fed in random chunk sizes: chunks below, at and above
  // 64 B mix the buffered tail with whole blocks hashed from the input.
  for (int trial = 0; trial < 3000; ++trial) {
    data.resize(rng.below(5001));
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.nextU64());
    Md5 h;
    std::size_t at = 0;
    while (at < data.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.below(200), data.size() - at);
      h.update(data.data() + at, chunk);
      at += chunk;
    }
    ASSERT_EQ(Md5::toHex(h.digest()),
              referenceLoopMd5(data.data(), data.size()))
        << "trial " << trial << ", " << data.size() << " bytes";
  }
  data.resize(std::size_t{10} << 20);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.nextU64());
  EXPECT_EQ(Md5::hexDigest(data.data(), data.size()),
            referenceLoopMd5(data.data(), data.size()));
}

TEST(Butterworth, PassesDcBlocksHighFrequency) {
  const double dt = 0.001;
  ButterworthLowpass lp(4, 10.0, dt);
  // DC gain ~ 1.
  double y = 0.0;
  for (int i = 0; i < 5000; ++i) y = lp.step(1.0);
  EXPECT_NEAR(y, 1.0, 1e-3);

  // A 100 Hz tone (10x cutoff) should be attenuated by ~80 dB/decade in
  // steady state (skip the onset transient).
  lp.reset();
  double peak = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double x = std::sin(2.0 * M_PI * 100.0 * i * dt);
    const double y = lp.step(x);
    if (i > 2000) peak = std::max(peak, std::abs(y));
  }
  EXPECT_LT(peak, 0.002);
}

TEST(Butterworth, HalfPowerAtCutoff) {
  const double dt = 0.001, fc = 20.0;
  ButterworthLowpass lp(4, fc, dt);
  double peak = 0.0;
  for (int i = 0; i < 8000; ++i) {
    const double x = std::sin(2.0 * M_PI * fc * i * dt);
    const double y = lp.step(x);
    if (i > 4000) peak = std::max(peak, std::abs(y));
  }
  EXPECT_NEAR(peak, std::sqrt(0.5), 0.05);
}

TEST(Butterworth, RejectsOddOrder) {
  EXPECT_THROW(ButterworthLowpass(3, 1.0, 0.01), Error);
  EXPECT_THROW(ButterworthLowpass(4, 100.0, 0.01), Error);  // above Nyquist
}

TEST(Resample, PreservesLinearRamp) {
  std::vector<double> x;
  for (int i = 0; i < 11; ++i) x.push_back(i);
  const auto y = resampleLinear(x, 0.1, 0.05);
  ASSERT_EQ(y.size(), 21u);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], 0.5 * static_cast<double>(i), 1e-12);
}

TEST(Stats, Percentiles) {
  std::vector<double> x = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(median(x), 3.0);
  EXPECT_DOUBLE_EQ(percentile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(x, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(minOf(x), 1.0);
  EXPECT_DOUBLE_EQ(maxOf(x), 5.0);
}

TEST(Stats, L2Misfit) {
  std::vector<double> a = {1, 2, 3};
  EXPECT_DOUBLE_EQ(l2Misfit(a, a), 0.0);
  std::vector<double> b = {2, 4, 6};
  EXPECT_NEAR(l2Misfit(a, b), 0.5, 1e-12);
}

TEST(Stats, Linspace) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(TextTable, FormatsRows) {
  TextTable t({"a", "bb"});
  t.addRow({"1", "2"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("| a"), std::string::npos);
  EXPECT_NE(os.str().find("| 1"), std::string::npos);
  EXPECT_THROW(t.addRow({"only-one"}), Error);
}

}  // namespace
}  // namespace awp
