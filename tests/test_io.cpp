// Tests for the parallel I/O substrate: shared files, open throttling,
// aggregated output, checkpoint/restart, parallel checksums, and the
// file-system contention model.

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>
#include <filesystem>
#include <thread>

#include "fault/injector.hpp"
#include "io/aggregated_writer.hpp"
#include "io/checkpoint.hpp"
#include "io/checksum.hpp"
#include "io/contention.hpp"
#include "io/shared_file.hpp"
#include "io/throttle.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"
#include "vcluster/cluster.hpp"

namespace awp::io {
namespace {

class TempDir : public ::testing::Test {
 protected:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("awp_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

using SharedFileTest = TempDir;

TEST_F(SharedFileTest, PositionalReadWrite) {
  SharedFile f(path("a.bin"), SharedFile::Mode::Write);
  const std::vector<float> data = {1.0f, 2.0f, 3.0f};
  f.writeAt(100, std::span<const float>(data));
  std::vector<float> back(3);
  f.readAt(100, std::span<float>(back));
  EXPECT_EQ(back, data);
  EXPECT_EQ(f.size(), 100 + 3 * sizeof(float));
}

TEST_F(SharedFileTest, ConcurrentDisjointWrites) {
  const std::string p = path("shared.bin");
  {
    SharedFile f(p, SharedFile::Mode::Write);
    f.truncate(8 * sizeof(double));
  }
  vcluster::ThreadCluster::run(8, [&](vcluster::Communicator& comm) {
    SharedFile f(p, SharedFile::Mode::ReadWrite);
    const double v = comm.rank() * 1.5;
    f.writeAt(comm.rank() * sizeof(double),
              std::span<const double>(&v, 1));
  });
  SharedFile f(p, SharedFile::Mode::Read);
  for (int r = 0; r < 8; ++r) {
    double v;
    f.readAt(r * sizeof(double), std::span<double>(&v, 1));
    EXPECT_DOUBLE_EQ(v, r * 1.5);
  }
}

TEST_F(SharedFileTest, ShortReadThrows) {
  SharedFile f(path("short.bin"), SharedFile::Mode::Write);
  f.truncate(4);
  std::vector<std::byte> buf(16);
  EXPECT_THROW(f.readAt(0, std::span<std::byte>(buf)), Error);
}

TEST_F(SharedFileTest, MissingFileThrows) {
  EXPECT_THROW(SharedFile(path("nope.bin"), SharedFile::Mode::Read), Error);
}

TEST(Throttle, NeverExceedsLimit) {
  OpenThrottle throttle(4);
  vcluster::ThreadCluster::run(16, [&](vcluster::Communicator&) {
    for (int i = 0; i < 20; ++i) {
      OpenThrottle::Ticket t(throttle);
      std::this_thread::yield();
    }
  });
  EXPECT_LE(throttle.peakConcurrent(), 4);
  EXPECT_GE(throttle.peakConcurrent(), 1);
}

using AggregatedWriterTest = TempDir;

TEST_F(AggregatedWriterTest, AggregatesFlushes) {
  SharedFile f(path("out.bin"), SharedFile::Mode::Write);
  AggregatedWriter w(&f, /*recordFloats=*/4, /*rankOffset=*/0,
                     /*stepFloats=*/4, /*flushEvery=*/5);
  std::vector<float> sample = {1, 2, 3, 4};
  for (int s = 0; s < 12; ++s) {
    for (auto& v : sample) v += 1.0f;
    w.appendSample(sample.data(), sample.size());
  }
  w.flush();
  EXPECT_EQ(w.stats().flushes, 3u);  // 5 + 5 + 2
  EXPECT_EQ(w.stats().bytesWritten, 12u * 4 * sizeof(float));

  // Verify sample 7 landed at the right displacement.
  std::vector<float> back(4);
  f.readAt(7 * 4 * sizeof(float), std::span<float>(back));
  EXPECT_FLOAT_EQ(back[0], 1.0f + 8.0f);
}

TEST_F(AggregatedWriterTest, MultiRankDisplacements) {
  const std::string p = path("multi.bin");
  {
    SharedFile f(p, SharedFile::Mode::Write);
    f.truncate(0);
  }
  // 4 ranks each owning 2 floats of an 8-float step record, 3 samples.
  vcluster::ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
    SharedFile f(p, SharedFile::Mode::ReadWrite);
    AggregatedWriter w(&f, 2, static_cast<std::uint64_t>(comm.rank()) * 2,
                       8, 2);
    for (int s = 0; s < 3; ++s) {
      const float vals[2] = {static_cast<float>(comm.rank()),
                             static_cast<float>(s)};
      w.appendSample(vals, 2);
    }
    w.flush();
    comm.barrier();
  });
  SharedFile f(p, SharedFile::Mode::Read);
  for (int s = 0; s < 3; ++s)
    for (int r = 0; r < 4; ++r) {
      float vals[2];
      f.readAt((s * 8 + r * 2) * sizeof(float),
               std::span<float>(vals, 2));
      EXPECT_FLOAT_EQ(vals[0], r);
      EXPECT_FLOAT_EQ(vals[1], s);
    }
}

using CheckpointTest = TempDir;

TEST_F(CheckpointTest, RoundTrip) {
  CheckpointStore store(path("ckpt"));
  std::vector<std::byte> state(1000);
  for (std::size_t i = 0; i < state.size(); ++i)
    state[i] = static_cast<std::byte>(i & 0xff);
  store.write(3, 1234, state);
  EXPECT_TRUE(store.exists(3));
  EXPECT_FALSE(store.exists(4));
  const auto restored = store.read(3);
  EXPECT_EQ(restored.step, 1234u);
  EXPECT_EQ(restored.state, state);
}

TEST_F(CheckpointTest, DetectsCorruption) {
  CheckpointStore store(path("ckpt"));
  std::vector<std::byte> state(64, std::byte{0x5a});
  store.write(0, 10, state);
  // Flip a byte in the payload.
  {
    SharedFile f(store.pathFor(0), SharedFile::Mode::ReadWrite);
    const std::byte evil{0xff};
    f.writeAt(f.size() - 1, std::span<const std::byte>(&evil, 1));
  }
  EXPECT_THROW(store.read(0), Error);
}

TEST_F(CheckpointTest, KeepsTwoGenerationsAndRotates) {
  CheckpointStore store(path("ckpt"));
  std::vector<std::byte> s1(32, std::byte{1});
  std::vector<std::byte> s2(32, std::byte{2});
  std::vector<std::byte> s3(32, std::byte{3});
  store.write(0, 10, s1);
  store.write(0, 20, s2);
  // Newest wins on read; both generations exist on disk.
  EXPECT_EQ(store.read(0).step, 20u);
  EXPECT_EQ(store.newestValidStep(0), 20u);
  EXPECT_EQ(store.readStep(0, 10).state, s1);
  // A third write overwrites the *older* generation, never the newest.
  store.write(0, 30, s3);
  EXPECT_EQ(store.read(0).step, 30u);
  EXPECT_EQ(store.readStep(0, 20).state, s2);
  EXPECT_THROW(store.readStep(0, 10), Error);  // rotated out
  // Writes are atomic: no .tmp litter remains.
  for (const auto& entry :
       std::filesystem::directory_iterator(path("ckpt")))
    EXPECT_EQ(entry.path().extension(), ".bin");
}

TEST_F(CheckpointTest, FallsBackOnPayloadDigestMismatch) {
  CheckpointStore store(path("ckpt"));
  std::vector<std::byte> oldState(128, std::byte{0xaa});
  std::vector<std::byte> newState(128, std::byte{0xbb});
  store.write(2, 100, oldState);
  store.write(2, 200, newState);
  // Corrupt one payload byte of the newest generation.
  {
    SharedFile f(store.pathFor(2), SharedFile::Mode::ReadWrite);
    const std::byte evil{0xff};
    f.writeAt(f.size() - 5, std::span<const std::byte>(&evil, 1));
  }
  const auto restored = store.read(2);  // falls back, does not throw
  EXPECT_EQ(restored.step, 100u);
  EXPECT_EQ(restored.state, oldState);
  EXPECT_EQ(store.newestValidStep(2), 100u);
}

TEST_F(CheckpointTest, FallsBackOnTornHeader) {
  CheckpointStore store(path("ckpt"));
  std::vector<std::byte> oldState(64, std::byte{0x11});
  std::vector<std::byte> newState(64, std::byte{0x22});
  store.write(1, 10, oldState);
  store.write(1, 20, newState);
  // Tear the newest generation mid-header (truncated file).
  {
    SharedFile f(store.pathFor(1), SharedFile::Mode::ReadWrite);
    f.truncate(17);
  }
  const auto restored = store.read(1);
  EXPECT_EQ(restored.step, 10u);
  EXPECT_EQ(restored.state, oldState);
}

TEST_F(CheckpointTest, MissingNewestGenerationUsesPrevious) {
  CheckpointStore store(path("ckpt"));
  std::vector<std::byte> oldState(64, std::byte{0x33});
  std::vector<std::byte> newState(64, std::byte{0x44});
  store.write(0, 5, oldState);
  store.write(0, 6, newState);
  std::filesystem::remove(store.pathFor(0));  // lose the newest file
  EXPECT_TRUE(store.exists(0));
  const auto restored = store.read(0);
  EXPECT_EQ(restored.step, 5u);
  EXPECT_EQ(restored.state, oldState);
}

TEST_F(CheckpointTest, BothGenerationsCorruptThrows) {
  CheckpointStore store(path("ckpt"));
  std::vector<std::byte> state(64, std::byte{0x55});
  store.write(0, 1, state);
  store.write(0, 2, state);
  for (int g = 0; g < CheckpointStore::kGenerations; ++g) {
    SharedFile f(store.pathFor(0, g), SharedFile::Mode::ReadWrite);
    const std::byte evil{0xf0};
    f.writeAt(f.size() - 1, std::span<const std::byte>(&evil, 1));
  }
  EXPECT_THROW(store.read(0), Error);
  EXPECT_FALSE(store.newestValidStep(0).has_value());
}

TEST_F(CheckpointTest, PerRankParallelWrites) {
  CheckpointStore store(path("ckpt"));
  OpenThrottle throttle(2);
  CheckpointStore throttled(path("ckpt"), &throttle);
  vcluster::ThreadCluster::run(8, [&](vcluster::Communicator& comm) {
    std::vector<std::byte> state(
        128, std::byte{static_cast<unsigned char>(comm.rank())});
    throttled.write(comm.rank(), 55, state);
    comm.barrier();
    const auto r = throttled.read(comm.rank());
    EXPECT_EQ(r.state[0],
              std::byte{static_cast<unsigned char>(comm.rank())});
  });
  EXPECT_LE(throttle.peakConcurrent(), 2);
}

TEST_F(CheckpointTest, WriterCommitsUnderTheRankAndRethrowsAtDrain) {
  // The writer thread takes the submitting rank's fault attribution: two
  // transient "sharedfile.write" faults scheduled for rank 3 hit its first
  // write and are retried away. A permanent ENOSPC on the second write is
  // not raised by submit() but by the next drain(), on the caller's
  // thread, and the first generation stays the newest valid one.
  fault::FaultPlan plan;
  plan.transientIoError("sharedfile.write", /*rank=*/3, /*occurrence=*/1,
                        /*count=*/2);
  plan.add({"sharedfile.write", fault::FaultKind::NoSpace, /*rank=*/3,
            /*occurrence=*/5, /*count=*/1, 0.0});
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scope(injector);

  CheckpointStore store(path("ckpt"));
  const std::vector<std::byte> first(256, std::byte{0x31});
  const std::vector<std::byte> second(256, std::byte{0x32});
  CheckpointWriter writer;
  writer.submit(store, 3, 10,
                std::make_shared<const std::vector<std::byte>>(first));
  writer.drain();
  EXPECT_EQ(injector.faultsInjected(), 2u);
  EXPECT_EQ(store.read(3).state, first);

  writer.submit(store, 3, 20,
                std::make_shared<const std::vector<std::byte>>(second));
  EXPECT_THROW(writer.drain(), Error);
  EXPECT_EQ(injector.faultsInjected(), 3u);
  EXPECT_EQ(store.newestValidStep(3), 10u);
  writer.drain();  // the error was delivered once; nothing is in flight
}

TEST(ParallelChecksum, DeterministicAcrossRuns) {
  std::string hex1, hex2;
  auto runOnce = [&](std::string& out) {
    vcluster::ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
      std::vector<std::byte> block(
          256, std::byte{static_cast<unsigned char>(comm.rank() + 1)});
      const auto result = parallelMd5(comm, block);
      if (comm.rank() == 0) out = result.collectionHex;
      // Every rank receives the same collection digest.
      EXPECT_EQ(result.collectionHex.size(), 32u);
    });
  };
  runOnce(hex1);
  runOnce(hex2);
  EXPECT_EQ(hex1, hex2);
}

TEST(ParallelChecksum, SensitiveToAnyBlock) {
  std::string base, changed;
  auto runWith = [&](unsigned char rank2Fill, std::string& out) {
    vcluster::ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
      const unsigned char fill =
          comm.rank() == 2 ? rank2Fill
                           : static_cast<unsigned char>(comm.rank());
      std::vector<std::byte> block(64, std::byte{fill});
      const auto result = parallelMd5(comm, block);
      if (comm.rank() == 0) out = result.collectionHex;
    });
  };
  runWith(2, base);
  runWith(3, changed);
  EXPECT_NE(base, changed);
}

TEST(ContentionModel, PeaksNearMdsComfortLimit) {
  const auto fs = FileSystemModel::jaguarLustre();
  // §IV.E: limiting to 650 concurrent opens reached ~20 GB/s.
  const double bwAtLimit = fs.aggregateBandwidth(650);
  EXPECT_GT(bwAtLimit, 15e9);
  EXPECT_LT(bwAtLimit, 30e9);
  // Unthrottled access at 100K+ clients collapses (the BG/P failure mode).
  EXPECT_LT(fs.aggregateBandwidth(100000), 0.2 * bwAtLimit);
  // The best writer count is at/below the comfort limit.
  const int best = fs.bestWriterCount(20000);
  EXPECT_LE(best, 700);
  EXPECT_GT(best, 50);
}

TEST(ContentionModel, StripePolicyMatchesPaper) {
  const auto fs = FileSystemModel::jaguarLustre();
  // "The stripe size is set to unity for serial access of pre-partitioned
  // input files and checkpoints" (§IV.E).
  EXPECT_EQ(stripePolicy(FileClass::PrePartitioned, fs).stripeCount, 1);
  EXPECT_GT(stripePolicy(FileClass::LargeSharedInput, fs).stripeCount, 100);
  EXPECT_EQ(stripePolicy(FileClass::SimulationOutput, fs).stripeCount,
            fs.osts);
}

}  // namespace
}  // namespace awp::io
