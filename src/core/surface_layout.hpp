#pragma once
// SurfaceLayout: the record format of the aggregated surface output
// (§III.E) and the PGV-H fold over it — the one place either is defined.
//
// Each sampled step is one global record of 3 floats (u, v, w) per
// decimated surface point. The surface ranks (sub.z.end == nz) own
// contiguous blocks of the record, ordered by rank id and addressed by
// explicit displacement: "we use explicit displacements to perform data
// accesses at the specific locations for all the participating
// processors". Within a block, points run row-major over the decimated
// patch (global j outer, i inner). The layout is a pure function of
// (topology, global dims, decimation), so the writer (WaveSolver), the
// product derivation (sched's pgvh.bin), the serving tier and the dPDA
// reader each build it independently, with no metadata handshake.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/staggered_grid.hpp"
#include "vcluster/cart.hpp"

namespace awp::core {

// One surface rank's contiguous block of a sample record.
struct SurfaceBlock {
  int rank = -1;
  std::uint64_t offsetFloats = 0;  // displacement within one record
  std::size_t x0 = 0, y0 = 0;      // decimated global origin
  std::size_t nx = 0, ny = 0;      // decimated extent
};

class SurfaceLayout {
 public:
  SurfaceLayout(const vcluster::CartTopology& topo,
                const grid::GridDims& global, int spatialDecimation);
  // The decomposition the scenario service runs wave jobs with:
  // CartTopology::balancedDims(nranks, nx, ny, nz), decimation 1.
  SurfaceLayout(std::size_t nx, std::size_t ny, std::size_t nz, int nranks);

  // Decimated global surface dims.
  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  // Floats per sample record across all surface ranks (3 per point).
  [[nodiscard]] std::uint64_t stepFloats() const { return stepFloats_; }
  // Surface ranks' blocks in record (= rank) order.
  [[nodiscard]] const std::vector<SurfaceBlock>& blocks() const {
    return blocks_;
  }
  // The block `rank` writes, or nullptr when it is not a surface rank.
  [[nodiscard]] const SurfaceBlock* blockOf(int rank) const;
  // Whole sample records in a surface file of `fileBytes`.
  [[nodiscard]] std::size_t sampleCount(std::uint64_t fileBytes) const;

  // The PGV-H fold: pgvh[p] = max(pgvh[p], sqrt(u^2 + v^2)) for every
  // record position p of one sample record (stepFloats() floats). Float
  // arithmetic with strict >, so a NaN sample never enters the fold; max
  // is order-independent, so folding sample by sample as windows land
  // equals the post-hoc fold over the whole file bit for bit.
  void foldPgvh(const float* record, float* pgvh) const;

  // Scatter one scalar per record position (the pgvh.bin layout) into a
  // row-major nx() * ny() field.
  void recordToRowMajor(const float* recordScalars, float* field) const;

 private:
  std::size_t nx_ = 0, ny_ = 0;
  std::uint64_t stepFloats_ = 0;
  std::vector<SurfaceBlock> blocks_;
};

}  // namespace awp::core
