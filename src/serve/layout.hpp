#pragma once
// The serving tier reads the solver's surface records through the one
// record-format description, core::SurfaceLayout: the (nx, ny, nz, nranks)
// constructor mirrors the scenario service's decomposition, and the
// layout's PGV-H fold is the routine sched's derivePgvh runs, so a map
// folded window by window equals the pgvh.bin product bit for bit.

#include "core/surface_layout.hpp"

namespace awp::serve {

using SurfaceLayout = core::SurfaceLayout;

}  // namespace awp::serve
