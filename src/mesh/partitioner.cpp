#include "mesh/partitioner.hpp"

#include <sys/stat.h>

#include <cstring>

#include "io/shared_file.hpp"
#include "util/error.hpp"

namespace awp::mesh {

namespace {

constexpr std::uint64_t kBlockMagic = 0x4157504d424c4b31ULL;  // AWPMBLK1

struct BlockHeader {
  std::uint64_t magic = kBlockMagic;
  std::uint64_t rank = 0;
  std::uint64_t xb = 0, xe = 0, yb = 0, ye = 0, zb = 0, ze = 0;
};

std::string blockPath(const std::string& dir, int rank) {
  return dir + "/mesh_rank" + std::to_string(rank) + ".bin";
}

// Read one rank's block straight out of the global file, x-run at a time.
MeshBlock readBlockFromGlobal(io::SharedFile& f, const MeshSpec& spec,
                              const SubdomainSpec& sub) {
  MeshBlock block;
  block.spec = sub;
  block.points.resize(sub.pointCount());
  const std::size_t lnx = sub.x.count();
  const vcluster::Range depth = depthSlices(spec, sub);
  std::size_t dst = 0;
  for (std::uint64_t k = depth.begin; k < depth.end; ++k) {
    for (std::uint64_t j = sub.y.begin; j < sub.y.end; ++j) {
      f.readAt(pointOffset(spec, sub.x.begin, j, k),
               std::span<vmodel::Material>(&block.points[dst], lnx));
      dst += lnx;
    }
  }
  return block;
}

}  // namespace

void validateBlock(const MeshBlock& block, const std::string& origin) {
  const std::size_t lnx = block.spec.x.count();
  const std::size_t lny = block.spec.y.count();
  for (std::size_t n = 0; n < block.points.size(); ++n) {
    const vmodel::Material& m = block.points[n];
    const char* issue = vmodel::materialIssue(m);
    if (issue == nullptr) continue;
    throw Error("bad material in '" + origin + "': " + issue +
                " at local cell (" + std::to_string(n % lnx) + ", " +
                std::to_string((n / lnx) % lny) + ", " +
                std::to_string(n / (lnx * lny)) + "): vp=" +
                std::to_string(m.vp) + " vs=" + std::to_string(m.vs) +
                " rho=" + std::to_string(m.rho));
  }
}

SubdomainSpec subdomainFor(const vcluster::CartTopology& topo,
                           const MeshSpec& spec, int rank) {
  const auto c = topo.coordsOf(rank);
  SubdomainSpec sub;
  sub.x = vcluster::CartTopology::blockRange(spec.nx, topo.dims().x, c.x);
  sub.y = vcluster::CartTopology::blockRange(spec.ny, topo.dims().y, c.y);
  sub.z = vcluster::CartTopology::blockRange(spec.nz, topo.dims().z, c.z);
  return sub;
}

vcluster::Range depthSlices(const MeshSpec& spec, const SubdomainSpec& sub) {
  AWP_CHECK(sub.z.begin <= sub.z.end && sub.z.end <= spec.nz);
  return {spec.nz - sub.z.end, spec.nz - sub.z.begin};
}

MeshBlock sampleBlock(const vmodel::VelocityModel& model,
                      const MeshSpec& spec, const SubdomainSpec& sub) {
  MeshBlock block;
  block.spec = sub;
  block.points.resize(sub.pointCount());
  const vcluster::Range depth = depthSlices(spec, sub);
  std::size_t at = 0;
  for (std::uint64_t d = depth.begin; d < depth.end; ++d) {
    const double z = static_cast<double>(d) * spec.h;
    for (std::uint64_t j = sub.y.begin; j < sub.y.end; ++j) {
      const double y = spec.y0 + static_cast<double>(j) * spec.h;
      for (std::uint64_t i = sub.x.begin; i < sub.x.end; ++i)
        block.points[at++] =
            model.sample(spec.x0 + static_cast<double>(i) * spec.h, y, z);
    }
  }
  return block;
}

void prePartitionMesh(vcluster::Communicator& comm,
                      const std::string& meshPath,
                      const vcluster::CartTopology& topo,
                      const std::string& dir, io::OpenThrottle* throttle) {
  AWP_CHECK(comm.size() == topo.size());
  if (comm.rank() == 0) ::mkdir(dir.c_str(), 0755);
  comm.barrier();
  const MeshHeader header = readMeshHeader(meshPath);
  const MeshSpec spec = header.spec();
  const SubdomainSpec sub = subdomainFor(topo, spec, comm.rank());

  auto work = [&] {
    io::SharedFile in(meshPath, io::SharedFile::Mode::Read);
    MeshBlock block = readBlockFromGlobal(in, spec, sub);
    validateBlock(block, meshPath);

    BlockHeader bh;
    bh.rank = static_cast<std::uint64_t>(comm.rank());
    bh.xb = sub.x.begin;
    bh.xe = sub.x.end;
    bh.yb = sub.y.begin;
    bh.ye = sub.y.end;
    bh.zb = sub.z.begin;
    bh.ze = sub.z.end;

    io::SharedFile out(blockPath(dir, comm.rank()),
                       io::SharedFile::Mode::Write);
    out.truncate(0);
    out.writeAt(0, std::span<const std::byte>(
                       reinterpret_cast<const std::byte*>(&bh), sizeof(bh)));
    out.writeAt(sizeof(bh),
                std::span<const vmodel::Material>(block.points));
  };
  if (throttle != nullptr) {
    io::OpenThrottle::Ticket ticket(*throttle);
    work();
  } else {
    work();
  }
  comm.barrier();
}

MeshBlock readPrePartitioned(const std::string& dir, int rank,
                             io::OpenThrottle* throttle) {
  auto work = [&]() -> MeshBlock {
    io::SharedFile f(blockPath(dir, rank), io::SharedFile::Mode::Read);
    BlockHeader bh;
    f.readAt(0, std::span<std::byte>(reinterpret_cast<std::byte*>(&bh),
                                     sizeof(bh)));
    AWP_CHECK_MSG(bh.magic == kBlockMagic, "not a mesh block file");
    AWP_CHECK_MSG(bh.rank == static_cast<std::uint64_t>(rank),
                  "mesh block belongs to a different rank");
    MeshBlock block;
    block.spec.x = {bh.xb, bh.xe};
    block.spec.y = {bh.yb, bh.ye};
    block.spec.z = {bh.zb, bh.ze};
    block.points.resize(block.spec.pointCount());
    f.readAt(sizeof(bh), std::span<vmodel::Material>(block.points));
    validateBlock(block, blockPath(dir, rank));
    return block;
  };
  if (throttle != nullptr) {
    io::OpenThrottle::Ticket ticket(*throttle);
    return work();
  }
  return work();
}

MeshBlock readAndRedistribute(vcluster::Communicator& comm,
                              const std::string& meshPath,
                              const vcluster::CartTopology& topo,
                              int nReaders, int ySubdivision) {
  AWP_CHECK(comm.size() == topo.size());
  AWP_CHECK(nReaders >= 1 && nReaders <= comm.size());
  AWP_CHECK(ySubdivision >= 1);
  const MeshHeader header = readMeshHeader(meshPath);
  const MeshSpec spec = header.spec();
  const SubdomainSpec mine = subdomainFor(topo, spec, comm.rank());

  // Work units: (plane k, band b). Bands split the plane's Y extent.
  auto bandRange = [&](int b) {
    return vcluster::CartTopology::blockRange(spec.ny, ySubdivision, b);
  };
  auto readerOf = [&](std::uint64_t k, int b) {
    return static_cast<int>((k * static_cast<std::uint64_t>(ySubdivision) +
                             static_cast<std::uint64_t>(b)) %
                            static_cast<std::uint64_t>(nReaders));
  };
  auto tagOf = [&](std::uint64_t k, int b) {
    return static_cast<int>(k * static_cast<std::uint64_t>(ySubdivision) +
                            static_cast<std::uint64_t>(b));
  };

  // --- Reader side: read contiguous bands, carve and send sub-rectangles.
  if (comm.rank() < nReaders) {
    io::SharedFile in(meshPath, io::SharedFile::Mode::Read);
    std::vector<vmodel::Material> band;
    for (std::uint64_t k = 0; k < spec.nz; ++k) {
      for (int b = 0; b < ySubdivision; ++b) {
        if (readerOf(k, b) != comm.rank()) continue;
        const auto yr = bandRange(b);
        band.resize(spec.nx * yr.count());
        // One contiguous burst: rows yr.begin..yr.end of plane k.
        in.readAt(pointOffset(spec, 0, yr.begin, k),
                  std::span<vmodel::Material>(band));

        // Destination ranks: all blocks whose depth slices hold plane k
        // and whose y-range intersects this band.
        for (int rank = 0; rank < topo.size(); ++rank) {
          const SubdomainSpec dst = subdomainFor(topo, spec, rank);
          const vcluster::Range depth = depthSlices(spec, dst);
          if (k < depth.begin || k >= depth.end) continue;
          const std::uint64_t yb = std::max(dst.y.begin, yr.begin);
          const std::uint64_t ye = std::min(dst.y.end, yr.end);
          if (yb >= ye) continue;
          std::vector<vmodel::Material> rect((ye - yb) * dst.x.count());
          std::size_t w = 0;
          for (std::uint64_t j = yb; j < ye; ++j) {
            const vmodel::Material* src =
                band.data() + (j - yr.begin) * spec.nx + dst.x.begin;
            std::memcpy(&rect[w], src,
                        dst.x.count() * sizeof(vmodel::Material));
            w += dst.x.count();
          }
          comm.sendSpan<vmodel::Material>(rank, tagOf(k, b), rect);
        }
      }
    }
  }

  // --- Receiver side: assemble the local block plane by plane.
  MeshBlock block;
  block.spec = mine;
  block.points.resize(mine.pointCount());
  const std::size_t lnx = mine.x.count();
  const vcluster::Range depth = depthSlices(spec, mine);
  for (std::uint64_t k = depth.begin; k < depth.end; ++k) {
    for (int b = 0; b < ySubdivision; ++b) {
      const auto yr = bandRange(b);
      const std::uint64_t yb = std::max(mine.y.begin, yr.begin);
      const std::uint64_t ye = std::min(mine.y.end, yr.end);
      if (yb >= ye) continue;
      std::vector<vmodel::Material> rect((ye - yb) * lnx);
      comm.recvSpan<vmodel::Material>(readerOf(k, b), tagOf(k, b),
                                      std::span<vmodel::Material>(rect));
      std::size_t r = 0;
      for (std::uint64_t j = yb; j < ye; ++j) {
        vmodel::Material* dst =
            &block.at(0, j - mine.y.begin, k - depth.begin);
        std::memcpy(dst, &rect[r], lnx * sizeof(vmodel::Material));
        r += lnx;
      }
    }
  }
  comm.barrier();
  validateBlock(block, meshPath);
  return block;
}

MeshBlock readDirect(const std::string& meshPath,
                     const vcluster::CartTopology& topo, int rank) {
  const MeshHeader header = readMeshHeader(meshPath);
  const MeshSpec spec = header.spec();
  io::SharedFile in(meshPath, io::SharedFile::Mode::Read);
  MeshBlock block =
      readBlockFromGlobal(in, spec, subdomainFor(topo, spec, rank));
  validateBlock(block, meshPath);
  return block;
}

}  // namespace awp::mesh
