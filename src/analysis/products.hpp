#pragma once
// dPDA: derived data analysis products (§III.I). The paper's workflow
// derives analysis/visualization products from the raw simulation
// collections; here: grayscale PGM images of surface maps (the PGV maps
// of Figs 3/15/17/21 as actual image files) and a reader for the solver's
// aggregated surface-output files that reconstructs velocity-magnitude
// snapshots (Fig 22-style wavefield frames). The reader takes the record
// format from core::SurfaceLayout, the same description the solver writes
// with.

#include <cstdint>
#include <string>
#include <vector>

#include "core/surface_layout.hpp"

namespace awp::analysis {

// Write a map as an 8-bit binary PGM (values gamma-scaled to the map's
// max; zero maps to black). Returns the peak value used for scaling.
double writePgm(const std::vector<float>& map, std::size_t nx,
                std::size_t ny, const std::string& path,
                double gamma = 0.5);

// Velocity-magnitude snapshot (layout.nx() * layout.ny(), x fastest) of
// one sampled step of a surface-output file written with `layout`.
std::vector<float> readSurfaceSnapshot(const std::string& path,
                                       const core::SurfaceLayout& layout,
                                       std::size_t sample);

}  // namespace awp::analysis
