#include "health/monitor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>

#include "util/hot.hpp"

namespace awp::health {

using grid::kHalo;

namespace {

constexpr std::size_t kPeakHistoryDepth = 16;

struct Offence {
  bool found = false;
  const char* field = nullptr;
  std::size_t i = 0, j = 0, k = 0;
  double value = 0.0;
};

// Bit pattern of +Inf; any |v| bit pattern at or above it is NaN or Inf.
constexpr std::uint32_t kNonFiniteBits = 0x7f800000u;

// Max over one field's interior of the float bits with the sign cleared.
// For finite floats that order matches |v|, so the result is exactly the
// bit pattern of max |v|; it is >= kNonFiniteBits iff some value is NaN or
// Inf. Branch-free so each row vectorizes; the AVX2 clone has the unsigned
// max (vpmaxud) that SSE2 lacks.
AWP_SIMD_CLONES std::uint32_t maxAbsBits(const Array3f& f, const grid::GridDims& d) {
  std::uint32_t peak = 0;
  for (std::size_t k = kHalo; k < kHalo + d.nz; ++k)
    for (std::size_t j = kHalo; j < kHalo + d.ny; ++j) {
      const float* row = &f(kHalo, j, k);
      std::uint32_t rowPeak = 0;
      for (std::size_t i = 0; i < d.nx; ++i)  // row loop
        rowPeak = std::max(rowPeak,
                           std::bit_cast<std::uint32_t>(row[i]) & 0x7fffffffu);
      peak = std::max(peak, rowPeak);
    }
  return peak;
}

// The nine wavefields in scan order, velocities first.
constexpr std::size_t kVelocityFields = 3;
std::array<std::pair<const Array3f*, const char*>, 9> scanOrder(
    const grid::StaggeredGrid& g) {
  return {{{&g.u, "u"},   {&g.v, "v"},   {&g.w, "w"},
           {&g.xx, "xx"}, {&g.yy, "yy"}, {&g.zz, "zz"},
           {&g.xy, "xy"}, {&g.xz, "xz"}, {&g.yz, "yz"}}};
}

// The exact scan: the first non-finite sample in scan order, and the peak
// |velocity| over the velocity samples before it. Run only when the fast
// pass flags a non-finite value, to name the offender.
double exactScan(const grid::StaggeredGrid& g, Offence& off) {
  const auto& d = g.dims();
  const auto fields = scanOrder(g);
  double peak = 0.0;
  for (std::size_t n = 0; n < fields.size(); ++n)
    for (std::size_t k = kHalo; k < kHalo + d.nz; ++k)
      for (std::size_t j = kHalo; j < kHalo + d.ny; ++j)
        for (std::size_t i = kHalo; i < kHalo + d.nx; ++i) {
          const float v = (*fields[n].first)(i, j, k);
          if (!std::isfinite(v)) {
            off = {true, fields[n].second, i, j, k, static_cast<double>(v)};
            return peak;
          }
          if (n < kVelocityFields)
            peak = std::max(peak, static_cast<double>(std::fabs(v)));
        }
  return peak;
}

}  // namespace

bool FieldMonitor::allFinite(const grid::StaggeredGrid& g) {
  for (const auto& [f, name] : scanOrder(g))
    if (maxAbsBits(*f, g.dims()) >= kNonFiniteBits) return false;
  return true;
}

ScanResult FieldMonitor::scan(const grid::StaggeredGrid& g) {
  ScanResult result;
  const auto& d = g.dims();

  // Fast pass: one branch-free max per row. Only a non-finite value sends
  // the scan through the exact loop, which names the first offender.
  const auto fields = scanOrder(g);
  std::uint32_t velocityBits = 0;
  std::uint32_t allBits = 0;
  for (std::size_t n = 0; n < fields.size(); ++n) {
    allBits = std::max(allBits, maxAbsBits(*fields[n].first, d));
    if (n + 1 == kVelocityFields) velocityBits = allBits;
  }
  Offence off;
  const double peak =
      allBits < kNonFiniteBits
          ? static_cast<double>(std::bit_cast<float>(velocityBits))
          : exactScan(g, off);
  result.peakVelocity = peak;

  if (off.found) {
    result.verdict = Verdict::Fatal;
    result.field = off.field;
    result.i = off.i;
    result.j = off.j;
    result.k = off.k;
    result.value = off.value;
    std::ostringstream os;
    os << "non-finite " << off.field << " = " << off.value << " at local ("
       << off.i - kHalo << "," << off.j - kHalo << "," << off.k - kHalo
       << ")";
    result.detail = os.str();
    consecutiveDegraded_ = 0;
  } else {
    const double prev =
        peakHistory_.empty() ? 0.0 : peakHistory_.back();
    if (prev > config_.velocityFloor &&
        peak > config_.growthLimit * prev) {
      ++consecutiveDegraded_;
      const bool fatal = config_.degradedFatalAfter > 0 &&
                         consecutiveDegraded_ >= config_.degradedFatalAfter;
      result.verdict = fatal ? Verdict::Fatal : Verdict::Degraded;
      std::ostringstream os;
      os << "peak velocity grew " << peak / prev << "x in one window ("
         << prev << " -> " << peak << " m/s), " << consecutiveDegraded_
         << " consecutive" << (fatal ? " — treating as blow-up" : "");
      result.detail = os.str();
    } else {
      consecutiveDegraded_ = 0;
    }
  }

  peakHistory_.push_back(peak);
  while (peakHistory_.size() > kPeakHistoryDepth) peakHistory_.pop_front();
  return result;
}

void FieldMonitor::resetAfterRollback() {
  peakHistory_.clear();
  consecutiveDegraded_ = 0;
}

}  // namespace awp::health
