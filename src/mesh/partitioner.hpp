#pragma once
// PetaMeshP: petascale mesh partitioning (§III.C). Three access models, all
// producing the identical per-rank sub-block:
//
//  1. Pre-partitioning (serial I/O): a preparation pass writes one small
//     file per solver rank; the solver then reads only its own file.
//     "Although many per-core partitioned small files are generated, this
//     model provides efficient data locality." M8 used this path, reading
//     223,074 pre-partitioned files in 4 minutes.
//  2. On-demand read-and-redistribute (the advanced MPI-IO model): a
//     subset of ranks ("readers") read highly contiguous XY planes and
//     redistribute sub-rectangles point-to-point to the destination ranks
//     ("receivers"). A plane may be subdivided along Y by a factor n so n
//     times more readers participate (Fig 9).
//  3. Direct strided reads: every rank reads its own x-runs straight from
//     the global file — the fallback "direct contiguous MPI-IO imbedded
//     into the solver" of §VII.B.

#include <string>
#include <vector>

#include "io/throttle.hpp"
#include "mesh/mesh_file.hpp"
#include "vcluster/cart.hpp"
#include "vcluster/comm.hpp"
#include "vmodel/cvm.hpp"

namespace awp::mesh {

struct SubdomainSpec {
  vcluster::Range x, y, z;
  [[nodiscard]] std::uint64_t pointCount() const {
    return static_cast<std::uint64_t>(x.count()) * y.count() * z.count();
  }
};

// The global index block owned by `rank` under a Cartesian decomposition.
// Its z range counts up from the bottom of the model, as the solver's grid
// does (core/geometry.hpp).
SubdomainSpec subdomainFor(const vcluster::CartTopology& topo,
                           const MeshSpec& spec, int rank);

// The mesh depth slices (k = 0 at the free surface) that hold `sub`:
// [nz - z.end, nz - z.begin). The only conversion between a subdomain's
// bottom-up z range and the mesh file's top-down planes.
vcluster::Range depthSlices(const MeshSpec& spec, const SubdomainSpec& sub);

// A rank's materialized sub-block (local storage, x fastest, then y, then
// depth: local k = 0 is the shallowest of depthSlices(spec, sub)).
struct MeshBlock {
  SubdomainSpec spec;
  std::vector<vmodel::Material> points;

  [[nodiscard]] const vmodel::Material& at(std::size_t li, std::size_t lj,
                                           std::size_t lk) const {
    return points[li + spec.x.count() * (lj + spec.y.count() * lk)];
  }
  [[nodiscard]] vmodel::Material& at(std::size_t li, std::size_t lj,
                                     std::size_t lk) {
    return points[li + spec.x.count() * (lj + spec.y.count() * lk)];
  }
};

// CVM2MESH for one block: samples `model` at (x0 + i*h, y0 + j*h, d*h) for
// every point of `sub`, with d over depthSlices(spec, sub). The only loop
// that turns a velocity model into material.
MeshBlock sampleBlock(const vmodel::VelocityModel& model,
                      const MeshSpec& spec, const SubdomainSpec& sub);

// --- Model 1: pre-partitioning -------------------------------------------
// Collective: each rank extracts its block from the global mesh file and
// writes <dir>/mesh_rank<r>.bin. `throttle` bounds concurrent opens.
void prePartitionMesh(vcluster::Communicator& comm,
                      const std::string& meshPath,
                      const vcluster::CartTopology& topo,
                      const std::string& dir,
                      io::OpenThrottle* throttle = nullptr);

// Solver-side read of a pre-partitioned block.
MeshBlock readPrePartitioned(const std::string& dir, int rank,
                             io::OpenThrottle* throttle = nullptr);

// --- Model 2: on-demand read + redistribute -------------------------------
// Collective: ranks [0, nReaders) act as readers; every rank (readers
// included) receives its own block. ySubdivision splits each XY plane into
// that many Y-bands so more readers can work concurrently.
MeshBlock readAndRedistribute(vcluster::Communicator& comm,
                              const std::string& meshPath,
                              const vcluster::CartTopology& topo,
                              int nReaders, int ySubdivision = 1);

// --- Model 3: direct strided reads ----------------------------------------
MeshBlock readDirect(const std::string& meshPath,
                     const vcluster::CartTopology& topo, int rank);

// Reject unphysical material (zero/negative Vs, vp <= vs, non-finite
// values) with the offending local cell and its values. All the load paths
// above call this before handing the block to the solver; `origin` names
// the file the block came from.
void validateBlock(const MeshBlock& block, const std::string& origin);

}  // namespace awp::mesh
