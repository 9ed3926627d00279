#include "core/sponge.hpp"

#include <cmath>
#include <span>

#include "util/hot.hpp"

namespace awp::core {

using grid::kHalo;

SpongeLayer::SpongeLayer(const DomainGeometry& geom,
                         const grid::StaggeredGrid& g, int width,
                         double amplitude) {
  const double a = amplitude * 20.0 / width;  // keep edge damping ~constant
  auto taper = [&](double cellsFromBoundary) {
    if (cellsFromBoundary >= width) return 1.0;
    const double d = a * (width - cellsFromBoundary);
    return std::exp(-d * d);
  };

  auto build = [&](std::vector<float>& f, std::size_t rawExtent,
                   std::size_t globalBegin, std::size_t globalExtent,
                   bool damphi) {
    f.assign(rawExtent, 1.0f);
    for (std::size_t r = 0; r < rawExtent; ++r) {
      // Global cell index (halo cells clamp to the nearest interior cell).
      const double gl = static_cast<double>(globalBegin) +
                        static_cast<double>(r) - kHalo;
      double v = taper(std::max(0.0, gl));
      if (damphi) {
        const double fromHi = static_cast<double>(globalExtent) - 1.0 - gl;
        v = std::min(v, taper(std::max(0.0, fromHi)));
      }
      f[r] = static_cast<float>(v);
      if (v < 1.0) active_ = true;
    }
  };

  build(fx_, g.sx(), geom.local.x.begin, geom.global.nx, true);
  build(fy_, g.sy(), geom.local.y.begin, geom.global.ny, true);
  // No damping at the top (free surface): only the bottom is tapered in z.
  build(fz_, g.sz(), geom.local.z.begin, geom.global.nz, false);

  for (std::size_t i = 0; i < fx_.size();) {
    if (fx_[i] == 1.0f) {
      ++i;
      continue;
    }
    const std::size_t i0 = i;
    while (i < fx_.size() && fx_[i] != 1.0f) ++i;
    xDamped_.emplace_back(i0, i);
  }
}

bool SpongeLayer::undampedFrom(std::size_t k) const {
  for (; k < fz_.size(); ++k)
    if (fz_[k] != 1.0f) return false;
  return true;
}

AWP_SIMD_CLONES AWP_HOT void SpongeLayer::apply(grid::StaggeredGrid& g,
                                                bool stresses) const {
  if (!active_) return;
  const std::size_t ax = g.sx(), ay = g.sy(), az = g.sz();
  Array3f* fields[] = {&g.u,  &g.v,  &g.w,  &g.xx, &g.yy,
                             &g.zz, &g.xy, &g.xz, &g.yz};
  for (auto* f : std::span(fields).first(stresses ? 9 : 3)) {
    float* row = f->data();
    for (std::size_t k = 0; k < az; ++k) {
      const float fk = fz_[k];
      for (std::size_t j = 0; j < ay; ++j, row += ax) {
        const float fjk = fy_[j] * fk;
        if (fjk == 1.0f) {
          // Only x damping (or none) on this row: touch the damped cells
          // alone. The rest would be multiplied by exactly 1.0f, which
          // leaves every normal float unchanged. Under the step's FTZ/DAZ
          // guard (util/fp_env.hpp) the kernels never write a subnormal,
          // so there is none here for the skipped multiply to flush.
          for (const auto& [i0, i1] : xDamped_)
            for (std::size_t i = i0; i < i1; ++i)  // row loop
              row[i] *= fx_[i];
        } else {
          for (std::size_t i = 0; i < ax; ++i) row[i] *= fx_[i] * fjk;  // row loop
        }
      }
    }
  }
}

}  // namespace awp::core
