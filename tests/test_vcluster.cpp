// Unit tests for the virtual-cluster message-passing runtime.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "fault/injector.hpp"
#include "util/error.hpp"
#include "vcluster/cart.hpp"
#include "vcluster/cluster.hpp"
#include "vcluster/comm.hpp"
#include "vcluster/mailbox.hpp"

namespace awp::vcluster {
namespace {

TEST(Cluster, RunsAllRanks) {
  std::atomic<int> count{0};
  ThreadCluster::run(8, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 8);
    count.fetch_add(comm.rank());
  });
  EXPECT_EQ(count.load(), 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
}

TEST(Cluster, PropagatesExceptions) {
  EXPECT_THROW(ThreadCluster::run(4,
                                  [&](Communicator& comm) {
                                    comm.barrier();
                                    if (comm.rank() == 2)
                                      throw Error("rank 2 failed");
                                    comm.barrier();
                                  }),
               Error);
}

TEST(Cluster, RankErrorUnblocksBlockedPeers) {
  // A rank that throws while its peers block on it must fence them out of
  // their waits, and run() must rethrow its error. The cluster runs on a
  // detached thread so a hang fails the test in bounded time instead of
  // stalling the suite.
  const auto outcome = [](int nranks, ThreadCluster::RankFn fn) {
    auto result = std::make_shared<std::promise<std::string>>();
    std::future<std::string> done = result->get_future();
    std::thread([nranks, fn = std::move(fn), result] {
      try {
        ThreadCluster::run(nranks, fn);
        result->set_value("returned");
      } catch (const std::exception& e) {
        result->set_value(e.what());
      }
    }).detach();
    if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready)
      return std::string("hung");
    return done.get();
  };

  EXPECT_EQ(outcome(2,
                    [](Communicator& comm) {
                      if (comm.rank() == 1) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(20));
                        throw Error("rank 1 failed");
                      }
                      (void)comm.recvValue<int>(1, 4);  // never sent
                    }),
            "rank 1 failed");

  EXPECT_EQ(outcome(3,
                    [](Communicator& comm) {
                      if (comm.rank() == 2) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(20));
                        throw Error("rank 2 failed");
                      }
                      (void)comm.allreduce(1.0, ReduceOp::Sum);
                    }),
            "rank 2 failed");
}

TEST(Mailbox, InjectedPopStallDelaysButDelivers) {
  // A RankStall at the "mailbox.pop" hook models a slow receiver: the
  // pop goes quiet for the stall window, then delivery proceeds intact.
  fault::FaultPlan plan;
  plan.stall("mailbox.pop", /*rank=*/-1, /*occurrence=*/1,
             /*seconds=*/0.05);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  Mailbox box;
  Message msg;
  msg.src = 0;
  msg.tag = 7;
  msg.payload.resize(3, std::byte{0x2a});
  box.push(std::move(msg));

  const auto start = std::chrono::steady_clock::now();
  const Message out = box.popMatch(0, 7);
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(out.src, 0);
  EXPECT_EQ(out.tag, 7);
  EXPECT_EQ(out.payload.size(), 3u);
  EXPECT_GE(elapsed.count(), 0.04);
  EXPECT_EQ(injector.faultsInjected(), 1u);
}

TEST(Comm, BlockingSendRecv) {
  ThreadCluster::run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      const double v = 3.5;
      comm.sendValue(1, 7, v);
    } else {
      EXPECT_EQ(comm.recvValue<double>(0, 7), 3.5);
    }
  });
}

TEST(Comm, TagMatchingOutOfOrder) {
  // Send two messages with different tags; receive them in reverse order.
  ThreadCluster::run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.sendValue<int>(1, 100, 1);
      comm.sendValue<int>(1, 200, 2);
    } else {
      EXPECT_EQ(comm.recvValue<int>(0, 200), 2);
      EXPECT_EQ(comm.recvValue<int>(0, 100), 1);
    }
  });
}

TEST(Comm, FifoWithinSameEnvelope) {
  ThreadCluster::run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.sendValue(1, 5, i);
    } else {
      for (int i = 0; i < 10; ++i)
        EXPECT_EQ(comm.recvValue<int>(0, 5), i);
    }
  });
}

TEST(Comm, RecvSizeMismatchThrows) {
  EXPECT_THROW(ThreadCluster::run(2,
                                  [&](Communicator& comm) {
                                    if (comm.rank() == 0) {
                                      const int v = 1;
                                      comm.sendValue(1, 3, v);
                                    } else {
                                      double wrong;
                                      comm.recv(0, 3, &wrong,
                                                sizeof(double));
                                    }
                                  }),
               Error);
}

TEST(Comm, AllreduceOps) {
  ThreadCluster::run(5, [&](Communicator& comm) {
    const double r = comm.rank();
    EXPECT_DOUBLE_EQ(comm.allreduce(r, ReduceOp::Sum), 10.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(r, ReduceOp::Min), 0.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(r, ReduceOp::Max), 4.0);
    const std::int64_t i = comm.rank() + 1;
    EXPECT_EQ(comm.allreduce(i, ReduceOp::Sum), 15);
  });
}

TEST(Comm, Broadcast) {
  ThreadCluster::run(6, [&](Communicator& comm) {
    double v = comm.rank() == 2 ? 42.0 : 0.0;
    comm.bcast(2, &v, sizeof(v));
    EXPECT_DOUBLE_EQ(v, 42.0);
  });
}

TEST(Comm, GatherBytesVariableLength) {
  ThreadCluster::run(4, [&](Communicator& comm) {
    std::vector<std::byte> mine(static_cast<std::size_t>(comm.rank()),
                                std::byte{static_cast<unsigned char>(
                                    comm.rank())});
    const auto all = comm.gatherBytes(0, mine);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(r));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Comm, StatsCountMessages) {
  ThreadCluster::run(2, [&](Communicator& comm) {
    comm.stats().reset();
    comm.barrier();
    if (comm.rank() == 0) comm.sendValue<int>(1, 1, 5);
    else comm.recvValue<int>(0, 1);
    comm.barrier();
    EXPECT_EQ(comm.stats().messagesSent.load(), 1u);
    EXPECT_EQ(comm.stats().bytesSent.load(), sizeof(int));
  });
}

TEST(Cart, BalancedDimsMatchesRankCount) {
  for (int p : {1, 2, 6, 8, 12, 64, 223074}) {
    const auto d = CartTopology::balancedDims(p, 1000, 500, 100);
    EXPECT_EQ(d.total(), p);
  }
}

TEST(Cart, BalancedDimsPrefersLongAxisSplit) {
  // A grid much longer in x should get more splits in x.
  const auto d = CartTopology::balancedDims(8, 8000, 100, 100);
  EXPECT_GE(d.x, d.y);
  EXPECT_GE(d.x, d.z);
}

TEST(Cart, CoordsRoundTrip) {
  CartTopology topo(Dims3{3, 4, 5});
  for (int r = 0; r < topo.size(); ++r) {
    const auto c = topo.coordsOf(r);
    EXPECT_EQ(topo.rankOf(c.x, c.y, c.z), r);
  }
}

TEST(Cart, NeighborsAndBoundaries) {
  CartTopology topo(Dims3{2, 2, 2});
  const int r = topo.rankOf(0, 0, 0);
  EXPECT_EQ(topo.neighbor(r, 0, -1), -1);  // boundary
  EXPECT_EQ(topo.neighbor(r, 0, 1), topo.rankOf(1, 0, 0));
  EXPECT_EQ(topo.neighbor(r, 1, 1), topo.rankOf(0, 1, 0));
  EXPECT_EQ(topo.neighbor(r, 2, 1), topo.rankOf(0, 0, 1));
}

TEST(Cart, BlockRangeCoversAll) {
  const std::size_t n = 103;
  const int parts = 7;
  std::size_t covered = 0;
  std::size_t prevEnd = 0;
  for (int c = 0; c < parts; ++c) {
    const auto r = CartTopology::blockRange(n, parts, c);
    EXPECT_EQ(r.begin, prevEnd);
    covered += r.count();
    prevEnd = r.end;
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(prevEnd, n);
}

TEST(Mailbox, DepthTracksQueue) {
  Mailbox box;
  box.push({0, 1, {}});
  box.push({0, 2, {}});
  EXPECT_EQ(box.depth(), 2u);
  Message out;
  EXPECT_TRUE(box.tryPopMatch(0, 2, out));
  EXPECT_EQ(out.tag, 2);
  EXPECT_EQ(box.depth(), 1u);
  EXPECT_FALSE(box.tryPopMatch(0, 99, out));
}

}  // namespace
}  // namespace awp::vcluster
