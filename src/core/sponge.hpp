#pragma once
// Cerjan sponge-layer absorbing boundary (§II.D): "These ABCs apply a
// damping term to the full (un-split) wavefield inside the sponge layer
// and are unconditionally stable. However, the ability of the sponge
// layers to absorb reflections is poorer than PMLs." Implemented as the
// classic per-step multiplicative taper g(d) = exp(-(a (W-d))^2) applied
// to all wavefields within W cells of the non-top physical boundaries.

#include <cstddef>
#include <utility>
#include <vector>

#include "core/geometry.hpp"
#include "grid/staggered_grid.hpp"

namespace awp::core {

class SpongeLayer {
 public:
  // width: sponge thickness in cells; amplitude: Cerjan 'a' parameter for
  // a 20-cell sponge (rescaled with width).
  SpongeLayer(const DomainGeometry& geom, const grid::StaggeredGrid& g,
              int width = 20, double amplitude = 0.015);

  // Multiply all nine wavefields by the taper (call once per time step).
  // Cells whose factor is exactly 1 are skipped.
  void apply(grid::StaggeredGrid& g) const;

  [[nodiscard]] bool active() const { return active_; }

 private:
  // Per-raw-index damping factors along each axis (1.0 outside the sponge).
  std::vector<float> fx_, fy_, fz_;
  // Half-open raw x-ranges where fx_ != 1: the only cells an x-only row
  // has to touch.
  std::vector<std::pair<std::size_t, std::size_t>> xDamped_;
  bool active_ = false;
};

}  // namespace awp::core
