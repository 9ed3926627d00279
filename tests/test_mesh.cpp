// Tests for CVM2MESH mesh generation and the PetaMeshP partitioning models.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "io/shared_file.hpp"
#include "mesh/generator.hpp"
#include "mesh/mesh_file.hpp"
#include "mesh/partitioner.hpp"
#include "util/error.hpp"
#include "vcluster/cluster.hpp"
#include "vmodel/cvm.hpp"

namespace awp::mesh {
namespace {

class MeshTest : public ::testing::Test {
 protected:
  MeshTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("awp_mesh_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~MeshTest() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;

  static MeshSpec smallSpec() {
    MeshSpec s;
    s.nx = 24;
    s.ny = 16;
    s.nz = 12;
    s.h = 1000.0;
    return s;
  }
  static vmodel::CommunityVelocityModel model() {
    return vmodel::CommunityVelocityModel::socal(24e3, 16e3, 8e3);
  }
};

TEST_F(MeshTest, HeaderRoundTrip) {
  const auto spec = smallSpec();
  generateMeshSerial(model(), spec, path("mesh.bin"));
  const auto h = readMeshHeader(path("mesh.bin"));
  EXPECT_EQ(h.nx, spec.nx);
  EXPECT_EQ(h.ny, spec.ny);
  EXPECT_EQ(h.nz, spec.nz);
  EXPECT_DOUBLE_EQ(h.h, spec.h);
}

TEST_F(MeshTest, RejectsNonMeshFile) {
  io::writeFile(path("junk.bin"), std::vector<std::byte>(128));
  EXPECT_THROW(readMeshHeader(path("junk.bin")), Error);
}

TEST_F(MeshTest, ParallelGenerationMatchesSerial) {
  const auto spec = smallSpec();
  const auto cvm = model();
  generateMeshSerial(cvm, spec, path("serial.bin"));
  vcluster::ThreadCluster::run(5, [&](vcluster::Communicator& comm) {
    generateMesh(comm, cvm, spec, path("parallel.bin"));
  });
  const auto a = io::readTextFile(path("serial.bin"));
  const auto b = io::readTextFile(path("parallel.bin"));
  EXPECT_EQ(a, b);
}

TEST_F(MeshTest, GeneratedMaterialsMatchModelSamples) {
  const auto spec = smallSpec();
  const auto cvm = model();
  generateMeshSerial(cvm, spec, path("mesh.bin"));
  vcluster::CartTopology topo(vcluster::Dims3{1, 1, 1});
  const auto block = readDirect(path("mesh.bin"), topo, 0);
  // Spot-check a few points against direct model queries.
  for (auto [i, j, k] : {std::array<std::size_t, 3>{0, 0, 0},
                         {5, 7, 3},
                         {23, 15, 11}}) {
    const auto got = block.at(i, j, k);
    const auto want = cvm.sample(static_cast<double>(i) * spec.h,
                                 static_cast<double>(j) * spec.h,
                                 static_cast<double>(k) * spec.h);
    EXPECT_FLOAT_EQ(got.vs, want.vs);
    EXPECT_FLOAT_EQ(got.vp, want.vp);
    EXPECT_FLOAT_EQ(got.rho, want.rho);
  }
}

TEST_F(MeshTest, SubdomainsPartitionTheVolume) {
  const auto spec = smallSpec();
  vcluster::CartTopology topo(vcluster::Dims3{2, 2, 3});
  std::uint64_t total = 0;
  for (int r = 0; r < topo.size(); ++r)
    total += subdomainFor(topo, spec, r).pointCount();
  EXPECT_EQ(total, spec.pointCount());
}

TEST_F(MeshTest, AllThreePartitioningModelsAgree) {
  const auto spec = smallSpec();
  generateMeshSerial(model(), spec, path("mesh.bin"));
  vcluster::CartTopology topo(vcluster::Dims3{2, 2, 2});

  // Model 3 (direct) as the reference.
  std::vector<MeshBlock> direct;
  for (int r = 0; r < topo.size(); ++r)
    direct.push_back(readDirect(path("mesh.bin"), topo, r));

  // Model 1: pre-partitioning then per-rank read.
  std::filesystem::create_directories(path("parts"));
  vcluster::ThreadCluster::run(topo.size(),
                               [&](vcluster::Communicator& comm) {
                                 prePartitionMesh(comm, path("mesh.bin"),
                                                  topo, path("parts"));
                               });
  for (int r = 0; r < topo.size(); ++r) {
    const auto block = readPrePartitioned(path("parts"), r);
    ASSERT_EQ(block.points.size(), direct[r].points.size());
    for (std::size_t n = 0; n < block.points.size(); ++n) {
      EXPECT_FLOAT_EQ(block.points[n].vs, direct[r].points[n].vs);
    }
  }

  // Model 2: read + redistribute with various reader counts/subdivisions.
  for (const auto& [readers, ysub] :
       std::vector<std::pair<int, int>>{{1, 1}, {3, 1}, {8, 2}, {2, 4}}) {
    vcluster::ThreadCluster::run(
        topo.size(), [&, readers = readers, ysub = ysub](
                         vcluster::Communicator& comm) {
          const auto block = readAndRedistribute(comm, path("mesh.bin"),
                                                 topo, readers, ysub);
          const auto& ref = direct[comm.rank()];
          ASSERT_EQ(block.points.size(), ref.points.size());
          for (std::size_t n = 0; n < block.points.size(); ++n) {
            ASSERT_FLOAT_EQ(block.points[n].vs, ref.points[n].vs);
            ASSERT_FLOAT_EQ(block.points[n].rho, ref.points[n].rho);
          }
        });
  }
}

// Subdomain z ranges count up from the bottom; mesh planes count down from
// the surface. The top rank of a 1x1x2 split holds the shallow half.
TEST_F(MeshTest, TopRankOfAZSplitHoldsTheShallowSlices) {
  const auto spec = smallSpec();
  const auto cvm = model();
  generateMeshSerial(cvm, spec, path("mesh.bin"));
  vcluster::CartTopology topo(vcluster::Dims3{1, 1, 2});
  int top = -1;
  for (int r = 0; r < topo.size(); ++r)
    if (subdomainFor(topo, spec, r).z.end == spec.nz) top = r;
  ASSERT_GE(top, 0);
  const auto depth = depthSlices(spec, subdomainFor(topo, spec, top));
  EXPECT_EQ(depth.begin, 0u);
  EXPECT_EQ(depth.end, spec.nz / 2);

  const auto block = readDirect(path("mesh.bin"), topo, top);
  for (std::size_t k = 0; k < spec.nz / 2; ++k)
    for (std::size_t j = 0; j < spec.ny; ++j)
      for (std::size_t i = 0; i < spec.nx; ++i) {
        const auto want = cvm.sample(static_cast<double>(i) * spec.h,
                                     static_cast<double>(j) * spec.h,
                                     static_cast<double>(k) * spec.h);
        ASSERT_EQ(block.at(i, j, k).vs, want.vs) << i << "," << j << "," << k;
        ASSERT_EQ(block.at(i, j, k).rho, want.rho);
      }
}

// Every load path and direct sampling give each rank of a 2x2x2 split the
// same block, bit for bit.
TEST_F(MeshTest, LoadPathsAndSamplingAgreeOnAZSplit) {
  const auto spec = smallSpec();
  const auto cvm = model();
  generateMeshSerial(cvm, spec, path("mesh.bin"));
  vcluster::CartTopology topo(vcluster::Dims3{2, 2, 2});
  auto expectSame = [](const MeshBlock& got, const MeshBlock& want) {
    ASSERT_EQ(got.points.size(), want.points.size());
    for (std::size_t n = 0; n < got.points.size(); ++n) {
      ASSERT_EQ(got.points[n].vp, want.points[n].vp) << "point " << n;
      ASSERT_EQ(got.points[n].vs, want.points[n].vs) << "point " << n;
      ASSERT_EQ(got.points[n].rho, want.points[n].rho) << "point " << n;
    }
  };
  vcluster::ThreadCluster::run(topo.size(), [&](vcluster::Communicator& comm) {
    const MeshBlock sampled =
        sampleBlock(cvm, spec, subdomainFor(topo, spec, comm.rank()));
    prePartitionMesh(comm, path("mesh.bin"), topo, path("parts"));
    expectSame(readPrePartitioned(path("parts"), comm.rank()), sampled);
    expectSame(readAndRedistribute(comm, path("mesh.bin"), topo, 3, 2),
               sampled);
    expectSame(readDirect(path("mesh.bin"), topo, comm.rank()), sampled);
  });
}

TEST_F(MeshTest, PrePartitionedFileBelongsToRank) {
  const auto spec = smallSpec();
  generateMeshSerial(model(), spec, path("mesh.bin"));
  vcluster::CartTopology topo(vcluster::Dims3{2, 1, 1});
  vcluster::ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    prePartitionMesh(comm, path("mesh.bin"), topo, path("parts2"));
  });
  // Reading rank 0's file as rank 1 must fail the ownership check.
  EXPECT_THROW(
      {
        auto bad = readPrePartitioned(path("parts2"), 0);
        // Manually confuse the rank by renaming.
        std::filesystem::copy(path("parts2") + "/mesh_rank0.bin",
                              path("parts2") + "/mesh_rank1.bin",
                              std::filesystem::copy_options::
                                  overwrite_existing);
        readPrePartitioned(path("parts2"), 1);
      },
      Error);
}

}  // namespace
}  // namespace awp::mesh
