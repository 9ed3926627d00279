#include "core/surface_layout.hpp"

#include <cmath>

#include "mesh/partitioner.hpp"
#include "util/error.hpp"

namespace awp::core {

SurfaceLayout::SurfaceLayout(const vcluster::CartTopology& topo,
                             const grid::GridDims& global,
                             int spatialDecimation) {
  AWP_CHECK_MSG(global.nx > 0 && global.ny > 0 && global.nz > 0 &&
                    spatialDecimation >= 1,
                "degenerate surface layout");
  const auto dec = static_cast<std::size_t>(spatialDecimation);
  // First decimated index at or after a global index.
  auto decFirst = [&](std::size_t begin) { return (begin + dec - 1) / dec; };
  nx_ = decFirst(global.nx);
  ny_ = decFirst(global.ny);
  const mesh::MeshSpec spec{global.nx, global.ny, global.nz, 0.0, 0.0, 0.0};
  for (int r = 0; r < topo.size(); ++r) {
    const auto sub = mesh::subdomainFor(topo, spec, r);
    if (sub.z.end != global.nz) continue;  // not a surface rank
    SurfaceBlock block;
    block.rank = r;
    block.offsetFloats = stepFloats_;
    block.x0 = decFirst(sub.x.begin);
    block.y0 = decFirst(sub.y.begin);
    block.nx = decFirst(sub.x.end) - block.x0;
    block.ny = decFirst(sub.y.end) - block.y0;
    blocks_.push_back(block);
    stepFloats_ += 3ULL * block.nx * block.ny;
  }
  AWP_CHECK_MSG(stepFloats_ == 3ULL * nx_ * ny_,
                "surface blocks do not cover the free surface");
}

SurfaceLayout::SurfaceLayout(std::size_t nx, std::size_t ny, std::size_t nz,
                             int nranks)
    : SurfaceLayout(vcluster::CartTopology(vcluster::CartTopology::balancedDims(
                        nranks, nx, ny, nz)),
                    grid::GridDims{nx, ny, nz}, 1) {}

const SurfaceBlock* SurfaceLayout::blockOf(int rank) const {
  for (const SurfaceBlock& block : blocks_)
    if (block.rank == rank) return &block;
  return nullptr;
}

std::size_t SurfaceLayout::sampleCount(std::uint64_t fileBytes) const {
  return static_cast<std::size_t>(fileBytes / sizeof(float) / stepFloats_);
}

void SurfaceLayout::foldPgvh(const float* record, float* pgvh) const {
  const std::uint64_t points = stepFloats_ / 3;
  for (std::uint64_t p = 0; p < points; ++p) {
    const float u = record[3 * p];
    const float v = record[3 * p + 1];
    const float horiz = std::sqrt(u * u + v * v);
    if (horiz > pgvh[p]) pgvh[p] = horiz;
  }
}

void SurfaceLayout::recordToRowMajor(const float* recordScalars,
                                     float* field) const {
  for (const SurfaceBlock& block : blocks_) {
    std::uint64_t at = block.offsetFloats / 3;
    for (std::size_t j = block.y0; j < block.y0 + block.ny; ++j)
      for (std::size_t i = block.x0; i < block.x0 + block.nx; ++i)
        field[i + nx_ * j] = recordScalars[at++];
  }
}

}  // namespace awp::core
