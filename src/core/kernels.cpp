#include "core/kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "util/hot.hpp"

namespace awp::core {

namespace {

using grid::StaggeredGrid;
using Idx = std::ptrdiff_t;  // flat offset into a halo-padded field

constexpr float kC1 = 9.0f / 8.0f;
constexpr float kC2 = -1.0f / 24.0f;

// 4th-order staggered difference of f across node m along flat stride s,
// in units of h: kC1 (f[m+s] - f[m]) + kC2 (f[m+2s] - f[m-s]). addDiff
// appends one to a running sum term by term, so every stencil sum
// associates left to right exactly as the per-point formulas always have.
inline float diff(const float* f, Idx m, Idx s) {
  return kC1 * (f[m + s] - f[m]) + kC2 * (f[m + 2 * s] - f[m - s]);
}
inline float addDiff(float acc, const float* f, Idx m, Idx s) {
  return acc + kC1 * (f[m + s] - f[m]) + kC2 * (f[m + 2 * s] - f[m - s]);
}

// ---------------------------------------------------------------------------
// Memory-variable update for one stress component (coarse-grained constant
// Q, §II.A). `a` is the elastic stress increment for this step; returns the
// anelastic correction to add to the stress.
// ---------------------------------------------------------------------------

inline float attenuate(float& r, float tau, float qinv, float a, float dt) {
  const float htau = 0.5f * dt / tau;
  const float rNew = (r * (1.0f - htau) - qinv * a / tau) / (1.0f + htau);
  const float corr = 0.5f * dt * (rNew + r);
  r = rNew;
  return corr;
}

// ---------------------------------------------------------------------------
// The sponge taper at a Damped stress row's store: cell i of the row at
// (j, k) is scaled by fx[i] * fjk with fjk = fy[j] * fz[k], exactly the
// factor SpongeLayer::apply multiplies it by. sweep sets row0 and fjk per
// row, so the row loop reads fx at a unit-stride offset.
// ---------------------------------------------------------------------------

struct RowTaper {
  const float* __restrict fx = nullptr;
  const float* fy = nullptr;
  const float* fz = nullptr;
  Idx row0 = 0;  // flat index of raw x = 0 on the current row
  float fjk = 1.0f;

  [[nodiscard]] RowTaper onRow(std::size_t j, std::size_t k, Idx rowStart)
      const {
    RowTaper t = *this;
    t.row0 = rowStart;
    t.fjk = fy[j] * fz[k];
    return t;
  }
  // s += a, then the taper when Damped: (s + a) * (fx[i] * fjk).
  template <bool Damped>
  void store(float& s, float a, Idx n) const {
    if constexpr (Damped)
      s = (s + a) * (fx[n - row0] * fjk);
    else
      s += a;
  }
};

// ---------------------------------------------------------------------------
// Point stencils over flat offsets. Each holds the __restrict base pointers
// of the fields it touches (distinct arrays, so they never alias) and the
// flat strides of the grid: 1 in x, strideY = sx in y, strideZ = sx*sy in z.
// ---------------------------------------------------------------------------

// ρ ∂t v_c = ∂x σ_cx + ∂y σ_cy + ∂z σ_cz for one velocity component c.
// tx, ty, tz are σ_cx, σ_cy, σ_cz; each is differenced along its own axis
// across node n + nodeX / nodeY / nodeZ. ρ is averaged over n and
// n + rhoNbr (the cell on the other side of the velocity node).
struct VelocityRow {
  static constexpr bool kDamped = false;
  float* __restrict vel;
  const float* __restrict tx;
  const float* __restrict ty;
  const float* __restrict tz;
  const float* __restrict rho;
  Idx strideY, strideZ;
  Idx nodeX, nodeY, nodeZ;
  Idx rhoNbr;
  float dth;  // dt / h

  void operator()(Idx n) const {
    const float d = 0.5f * (rho[n] + rho[n + rhoNbr]);
    float acc = diff(tx, n + nodeX, 1);
    acc = addDiff(acc, ty, n + nodeY, strideY);
    acc = addDiff(acc, tz, n + nodeZ, strideZ);
    vel[n] += (dth / d) * acc;
  }
};

// Normal stresses from the velocity divergence, plus the memory-variable
// correction when Atten and the sponge taper when Damped.
template <bool Atten, bool Damped>
struct NormalRow {
  static constexpr bool kDamped = Damped;
  const float* __restrict u;
  const float* __restrict v;
  const float* __restrict w;
  float* __restrict xx;
  float* __restrict yy;
  float* __restrict zz;
  const float* __restrict lam;
  const float* __restrict mu;
  float* __restrict rxx;
  float* __restrict ryy;
  float* __restrict rzz;
  const float* __restrict tau;
  const float* __restrict qinv;
  Idx strideY, strideZ;
  float dth, dt;
  RowTaper taper;

  void operator()(Idx n) const {
    const float exx = diff(u, n, 1);
    const float eyy = diff(v, n - strideY, strideY);
    const float ezz = diff(w, n - strideZ, strideZ);
    const float tr = exx + eyy + ezz;
    const float l = lam[n];
    const float m2 = 2.0f * mu[n];
    float axx = dth * (l * tr + m2 * exx);
    float ayy = dth * (l * tr + m2 * eyy);
    float azz = dth * (l * tr + m2 * ezz);
    if constexpr (Atten) {
      axx += attenuate(rxx[n], tau[n], qinv[n], axx, dt);
      ayy += attenuate(ryy[n], tau[n], qinv[n], ayy, dt);
      azz += attenuate(rzz[n], tau[n], qinv[n], azz, dt);
    }
    taper.store<Damped>(xx[n], axx, n);
    taper.store<Damped>(yy[n], ayy, n);
    taper.store<Damped>(zz[n], azz, n);
  }
};

// One shear stress σ_ab = μ (∂b v_a + ∂a v_b) on the a-b staggered edge.
// v_a is differenced forward along b; v_b across node n + aLo along a. μ is
// the harmonic mean over the four cells n + {aLo, aLo + strideA} x
// {0, strideB}. Recip = true reads the stored reciprocals (1 division);
// false recomputes 1/μ per use (5 divisions) — the pre-v6.0 arithmetic
// (§IV.B). Damped applies the sponge taper at the store.
template <bool Recip, bool Atten, bool Damped>
struct ShearRow {
  static constexpr bool kDamped = Damped;
  const float* __restrict va;
  const float* __restrict vb;
  float* __restrict s;
  const float* __restrict mu;  // 1/μ when Recip, μ otherwise
  float* __restrict r;
  const float* __restrict tau;
  const float* __restrict qinv;
  Idx aLo, strideA, strideB;
  float dth, dt;
  RowTaper taper;

  void operator()(Idx n) const {
    const Idx c0 = n + aLo;
    const Idx c1 = c0 + strideA;
    const float m =
        Recip ? 4.0f / (mu[c0] + mu[c1] + mu[c0 + strideB] +
                        mu[c1 + strideB])
              : 4.0f / (1.0f / mu[c0] + 1.0f / mu[c1] +
                        1.0f / mu[c0 + strideB] + 1.0f / mu[c1 + strideB]);
    const float e = addDiff(diff(va, n, strideB), vb, c0, strideA);
    float a = dth * m * e;
    if constexpr (Atten) a += attenuate(r[n], tau[n], qinv[n], a, dt);
    taper.store<Damped>(s[n], a, n);
  }
};

// ---------------------------------------------------------------------------
// The one row kernel. `row` arrives by value, so its __restrict pointers are
// scoped to this loop: that is what lets the compiler vectorize it without
// alias checks. Unroll is the §IV.B 2x unrolling ("unrolling by 2
// iterations gives the best performance"), here applied to every row.
// AWP_SIMD_CLONES also builds every instantiation for AVX2, with the same
// bits (util/hot.hpp). tools/check_vectorized.py fails CI unless every
// line tagged "row loop" is reported vectorized, in both clones.
// ---------------------------------------------------------------------------

template <bool Unroll, typename Row>
[[gnu::noinline]] AWP_SIMD_CLONES AWP_HOT void sweepRow(const Row row,
                                                        Idx begin, Idx end) {
  if constexpr (Unroll) {
#pragma GCC unroll 2
    for (Idx n = begin; n < end; ++n) row(n);  // row loop
  } else {
    for (Idx n = begin; n < end; ++n) row(n);  // row loop
  }
}

// ---------------------------------------------------------------------------
// Loop drivers: plain j/k double loop, or the §IV.B kblock/jblock tiling
// ("the values of kblock and jblock are chosen to guarantee that the
// operands on subsequent planes are still in cache").
// ---------------------------------------------------------------------------

template <typename RowFn>
AWP_HOT void driveRange(std::size_t k0, std::size_t k1, const Region& r,
                const KernelOptions& o, RowFn&& row) {
  if (!o.cacheBlocked) {
    for (std::size_t k = k0; k < k1; ++k)
      for (std::size_t j = r.j0; j < r.j1; ++j) row(j, k);
    return;
  }
  const auto kb = static_cast<std::size_t>(o.kblock);
  const auto jb = static_cast<std::size_t>(o.jblock);
  for (std::size_t kk = k0; kk < k1; kk += kb)
    for (std::size_t jj = r.j0; jj < r.j1; jj += jb)
      for (std::size_t k = kk; k < std::min(kk + kb, k1); ++k)
        for (std::size_t j = jj; j < std::min(jj + jb, r.j1); ++j) row(j, k);
}

template <typename RowFn>
AWP_HOT void driveLoops(const Region& r, const KernelOptions& o, RowFn&& row) {
  if (o.pool == nullptr) {
    driveRange(r.k0, r.k1, r, o, row);
    return;
  }
  // Hybrid mode (§IV.D): k-slabs across the intra-rank threads. Rows only
  // write their own (j, k) cells, so slabs are data-race free.
  o.pool->parallelFor(r.k0, r.k1,
                      [&](std::size_t k0, std::size_t k1) {
                        driveRange(k0, k1, r, o, row);
                      });
}

// Call fn with std::true_type or std::false_type: lifts a runtime variant
// switch into a template argument.
template <typename Fn>
void withFlag(bool flag, Fn&& fn) {
  if (flag)
    fn(std::true_type{});
  else
    fn(std::false_type{});
}

// Sweep a point stencil over every (j, k) row of the region.
template <typename Row>
void sweep(const StaggeredGrid& g, const Region& r, const KernelOptions& o,
           const Row& row) {
  const auto sx = static_cast<Idx>(g.sx());
  const auto sxy = sx * static_cast<Idx>(g.sy());
  const auto i0 = static_cast<Idx>(r.i0);
  const auto len = static_cast<Idx>(r.i1 - r.i0);
  withFlag(o.unrolled, [&](auto unroll) {
    driveLoops(r, o, [&](std::size_t j, std::size_t k) {
      const Idx rowStart =
          sx * static_cast<Idx>(j) + sxy * static_cast<Idx>(k);
      const Idx begin = i0 + rowStart;
      constexpr bool kUnroll = decltype(unroll)::value;
      if constexpr (Row::kDamped) {
        Row damped = row;
        damped.taper = row.taper.onRow(j, k, rowStart);
        sweepRow<kUnroll>(damped, begin, begin + len);
      } else {
        sweepRow<kUnroll>(row, begin, begin + len);
      }
    });
  });
}

}  // namespace

AWP_HOT void updateVelocity(grid::StaggeredGrid& g, VelocityComponent comp,
                    const KernelOptions& opts, const Region& r) {
  const float dth = static_cast<float>(g.dt() / g.h());
  const auto y = static_cast<Idx>(g.sx());
  const auto z = y * static_cast<Idx>(g.sy());
  // u sits at i-1/2, v at j+1/2, w at k+1/2 (see kernels.hpp).
  VelocityRow row{};
  switch (comp) {
    case VelocityComponent::U:
      row = {g.u.data(), g.xx.data(), g.xy.data(), g.xz.data(), g.rho.data(),
             y, z, -1, -y, -z, -1, dth};
      break;
    case VelocityComponent::V:
      row = {g.v.data(), g.xy.data(), g.yy.data(), g.yz.data(), g.rho.data(),
             y, z, 0, 0, -z, y, dth};
      break;
    case VelocityComponent::W:
      row = {g.w.data(), g.xz.data(), g.yz.data(), g.zz.data(), g.rho.data(),
             y, z, 0, -y, 0, z, dth};
      break;
  }
  sweep(g, r, opts, row);
}

AWP_HOT void updateVelocity(grid::StaggeredGrid& g, const KernelOptions& opts) {
  const Region r = Region::interior(g);
  updateVelocity(g, VelocityComponent::U, opts, r);
  updateVelocity(g, VelocityComponent::V, opts, r);
  updateVelocity(g, VelocityComponent::W, opts, r);
}

AWP_HOT void updateStress(grid::StaggeredGrid& g, StressGroup group,
                          const KernelOptions& opts, const Region& r,
                          const SpongeTaper* taper) {
  const float dth = static_cast<float>(g.dt() / g.h());
  const float dt = static_cast<float>(g.dt());
  const auto y = static_cast<Idx>(g.sx());
  const auto z = y * static_cast<Idx>(g.sy());
  RowTaper t;
  if (taper != nullptr) t = RowTaper{taper->fx, taper->fy, taper->fz};
  withFlag(g.attenuation().enabled, [&](auto atten) {
    constexpr bool kAtten = decltype(atten)::value;
    withFlag(taper != nullptr, [&](auto damped) {
      constexpr bool kDamped = decltype(damped)::value;
      if (group == StressGroup::Normal) {
        sweep(g, r, opts,
              NormalRow<kAtten, kDamped>{
                  g.u.data(), g.v.data(), g.w.data(), g.xx.data(),
                  g.yy.data(), g.zz.data(), g.lam.data(), g.mu.data(),
                  g.rxx.data(), g.ryy.data(), g.rzz.data(),
                  g.tauSigma.data(), g.qpInv.data(), y, z, dth, dt, t});
        return;
      }
      withFlag(opts.useReciprocals, [&](auto recip) {
        constexpr bool kRecip = decltype(recip)::value;
        const float* mu = kRecip ? g.mui.data() : g.mu.data();
        // xy sits at (i-1/2, j+1/2), xz at (i-1/2, k+1/2), yz at
        // (j+1/2, k+1/2): a = x is differenced backward, a = y forward.
        ShearRow<kRecip, kAtten, kDamped> row{};
        switch (group) {
          case StressGroup::XY:
            row = {g.u.data(), g.v.data(), g.xy.data(), mu, g.rxy.data(),
                   g.tauSigma.data(), g.qsInv.data(), -1, 1, y, dth, dt, t};
            break;
          case StressGroup::XZ:
            row = {g.u.data(), g.w.data(), g.xz.data(), mu, g.rxz.data(),
                   g.tauSigma.data(), g.qsInv.data(), -1, 1, z, dth, dt, t};
            break;
          case StressGroup::YZ:
          case StressGroup::Normal:
            row = {g.v.data(), g.w.data(), g.yz.data(), mu, g.ryz.data(),
                   g.tauSigma.data(), g.qsInv.data(), 0, y, z, dth, dt, t};
            break;
        }
        sweep(g, r, opts, row);
      });
    });
  });
}

AWP_HOT void updateStress(grid::StaggeredGrid& g, const KernelOptions& opts,
                          const SpongeTaper* taper) {
  const Region r = Region::interior(g);
  updateStress(g, StressGroup::Normal, opts, r, taper);
  updateStress(g, StressGroup::XY, opts, r, taper);
  updateStress(g, StressGroup::XZ, opts, r, taper);
  updateStress(g, StressGroup::YZ, opts, r, taper);
}

double velocityFlopsPerPoint() {
  // Per component: 6 stencil multiplies, 11 adds/subs, density average
  // (2), divide (1), multiply-accumulate (2) ~ 22; three components.
  return 3 * 22.0;
}

double stressFlopsPerPoint(bool attenuation) {
  // Normals: 3 strains (6 ops each) + trace (2) + 3 updates (~6 each) = 38.
  // Shears: 3 x (strain 12 + harmonic mean 5 + update 4) = 63.
  double f = 38.0 + 63.0;
  if (attenuation) f += 6 * 10.0;  // memory-variable update per component
  return f;
}

double flopsPerPointPerStep(bool attenuation) {
  return velocityFlopsPerPoint() + stressFlopsPerPoint(attenuation);
}

}  // namespace awp::core
