#pragma once
// The AWP-ODC finite-difference kernels: 4th-order-in-space, 2nd-order-in-
// time velocity–stress updates on the staggered grid (§II.B), including
// the coarse-grained memory-variable attenuation (§II.A).
//
// One row kernel does all of it: every (j, k) row of the update region runs
// a point stencil (velocity, normal stress or shear stress) over unit-stride
// flat offsets — ±1 in x, ±sx in y, ±sx*sy in z — through __restrict base
// pointers, so the compiler vectorizes the row (kernels.cpp is built at -O3;
// tools/check_vectorized.py guards it). Every expression keeps the
// evaluation order of the per-point formulas, so results are bit-identical
// across variants that share arithmetic. The §IV.B single-CPU optimization
// variants are parameters of that one kernel, so the ablations stay real
// measurements:
//   * plain        — divisions per use (1/μ recomputed at every point)
//   * reciprocal   — stored 1/λ, 1/μ ("only the reciprocal form is used in
//                    frequently invoked subroutines")
//   * cache-block  — kblock/jblock tiling of the k/j row loops
//   * unrolled     — 2x unrolling of every row loop ("unrolling by 2
//                    iterations gives the best performance")
//   * hybrid       — k-slabs of rows across a §IV.D thread pool
// Attenuation and the sponge's stress taper (a SpongeTaper given to
// updateStress) are template flags of the stress rows as well.
//
// Staggering convention (h = grid spacing):
//   xx, yy, zz at (i, j, k);  u at (i-1/2, j, k);  v at (i, j+1/2, k);
//   w at (i, j, k+1/2);  xy at (i-1/2, j+1/2, k);  xz at (i-1/2, j, k+1/2);
//   yz at (i, j+1/2, k+1/2).

#include "grid/staggered_grid.hpp"
#include "util/thread_pool.hpp"

namespace awp::core {

struct KernelOptions {
  bool useReciprocals = true;
  bool cacheBlocked = false;
  bool unrolled = false;
  // "For a typical loop length of 125, the optimal solution was found to
  // be 16/8" (§IV.B).
  int kblock = 16;
  int jblock = 8;
  // §IV.D hybrid mode: when set, the k loop is split across the pool's
  // threads ("multiple OpenMP threads, spawned from a single MPI process,
  // directly access shared memory within a node"). Non-owning.
  ThreadPool* pool = nullptr;
};

// Raw-index update region (half-open). Defaults to the full interior.
struct Region {
  std::size_t i0, i1, j0, j1, k0, k1;
  static Region interior(const grid::StaggeredGrid& g) {
    return Region{grid::kHalo, grid::kHalo + g.dims().nx,
                  grid::kHalo, grid::kHalo + g.dims().ny,
                  grid::kHalo, grid::kHalo + g.dims().nz};
  }
};

// The stress half of a Cerjan sponge (SpongeLayer::taper()): per-raw-index
// taper factors along each axis. Given to updateStress, every stress store
// becomes (s + a) * (fx[i] * (fy[j] * fz[k])) — the float operations of
// SpongeLayer::apply's pass over the same cell, so the damped store is
// bit-identical to the store followed by the pass. Non-owning.
struct SpongeTaper {
  const float* fx = nullptr;
  const float* fy = nullptr;
  const float* fz = nullptr;
};

enum class VelocityComponent { U = 0, V, W };
enum class StressGroup { Normal = 0, XY, XZ, YZ };

// Update one velocity component over a region from the current stresses.
void updateVelocity(grid::StaggeredGrid& g, VelocityComponent comp,
                    const KernelOptions& opts, const Region& r);
// All three components over the full interior.
void updateVelocity(grid::StaggeredGrid& g, const KernelOptions& opts);

// Update one stress group over a region from the current velocities,
// applying `taper` at the store when given.
void updateStress(grid::StaggeredGrid& g, StressGroup group,
                  const KernelOptions& opts, const Region& r,
                  const SpongeTaper* taper = nullptr);
// All stress components over the full interior.
void updateStress(grid::StaggeredGrid& g, const KernelOptions& opts,
                  const SpongeTaper* taper = nullptr);

// Useful-flop estimates per interior grid point per full time step, for
// sustained-performance accounting (§V.B).
double velocityFlopsPerPoint();
double stressFlopsPerPoint(bool attenuation);
double flopsPerPointPerStep(bool attenuation);

}  // namespace awp::core
