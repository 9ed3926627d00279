#include "mesh/generator.hpp"

#include "io/shared_file.hpp"
#include "mesh/partitioner.hpp"
#include "util/error.hpp"
#include "vcluster/cart.hpp"
#include "vcluster/cluster.hpp"

namespace awp::mesh {

void generateMesh(vcluster::Communicator& comm,
                  const vmodel::VelocityModel& model, const MeshSpec& spec,
                  const std::string& path) {
  AWP_CHECK(spec.nx > 0 && spec.ny > 0 && spec.nz > 0 && spec.h > 0.0);

  // Rank 0 creates and sizes the file; everyone opens after that.
  if (comm.rank() == 0) {
    io::SharedFile f(path, io::SharedFile::Mode::Write);
    f.truncate(meshFileSize(spec));
    MeshHeader h;
    h.nx = spec.nx;
    h.ny = spec.ny;
    h.nz = spec.nz;
    h.h = spec.h;
    h.x0 = spec.x0;
    h.y0 = spec.y0;
    f.writeAt(0, std::span<const std::byte>(
                     reinterpret_cast<const std::byte*>(&h), sizeof(h)));
  }
  comm.barrier();

  io::SharedFile f(path, io::SharedFile::Mode::ReadWrite);

  // Slice decomposition along z: each rank samples its slab of depth
  // slices and writes it, contiguous in the file, at the slab's offset.
  SubdomainSpec slab;
  slab.x = {0, spec.nx};
  slab.y = {0, spec.ny};
  slab.z = vcluster::CartTopology::blockRange(spec.nz, comm.size(),
                                              comm.rank());
  const MeshBlock block = sampleBlock(model, spec, slab);
  f.writeAt(pointOffset(spec, 0, 0, depthSlices(spec, slab).begin),
            std::span<const vmodel::Material>(block.points));
  comm.barrier();
}

void generateMeshSerial(const vmodel::VelocityModel& model,
                        const MeshSpec& spec, const std::string& path) {
  vcluster::ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    generateMesh(comm, model, spec, path);
  });
}

}  // namespace awp::mesh
