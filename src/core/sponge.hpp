#pragma once
// Cerjan sponge-layer absorbing boundary (§II.D): "These ABCs apply a
// damping term to the full (un-split) wavefield inside the sponge layer
// and are unconditionally stable. However, the ability of the sponge
// layers to absorb reflections is poorer than PMLs." Implemented as the
// classic per-step multiplicative taper g(d) = exp(-(a (W-d))^2) applied
// to all wavefields within W cells of the non-top physical boundaries.
//
// A cell's factor depends only on its global index, so the taper commutes
// with the FS2 images (copy or negate) and with the halo exchange. That
// lets the stress half run inside the stress kernel's store (taper() given
// to updateStress) whenever nothing else writes a damped stress cell after
// the store; apply() then tapers only the velocities.

#include <cstddef>
#include <utility>
#include <vector>

#include "core/geometry.hpp"
#include "core/kernels.hpp"
#include "grid/staggered_grid.hpp"

namespace awp::core {

class SpongeLayer {
 public:
  // width: sponge thickness in cells; amplitude: Cerjan 'a' parameter for
  // a 20-cell sponge (rescaled with width).
  SpongeLayer(const DomainGeometry& geom, const grid::StaggeredGrid& g,
              int width = 20, double amplitude = 0.015);

  // Multiply the wavefields by the taper (call once per time step): all
  // nine, or only u, v and w when the stress kernel already applied
  // taper() at its store. Cells whose factor is exactly 1 are skipped.
  void apply(grid::StaggeredGrid& g, bool stresses = true) const;

  [[nodiscard]] bool active() const { return active_; }
  // The per-raw-index factors, for updateStress's damped store.
  [[nodiscard]] SpongeTaper taper() const {
    return {fx_.data(), fy_.data(), fz_.data()};
  }
  // Whether raw cell (i, j, k) has factor exactly 1.
  [[nodiscard]] bool undamped(std::size_t i, std::size_t j,
                              std::size_t k) const {
    return fx_[i] == 1.0f && fy_[j] == 1.0f && fz_[k] == 1.0f;
  }
  // Whether every raw z plane from k up has factor exactly 1.
  [[nodiscard]] bool undampedFrom(std::size_t k) const;

 private:
  // Per-raw-index damping factors along each axis (1.0 outside the sponge).
  std::vector<float> fx_, fy_, fz_;
  // Half-open raw x-ranges where fx_ != 1: the only cells an x-only row
  // has to touch.
  std::vector<std::pair<std::size_t, std::size_t>> xDamped_;
  bool active_ = false;
};

}  // namespace awp::core
