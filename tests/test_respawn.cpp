// Rank-recovery-ladder tests: the in-memory buddy checkpoint store, epoch
// fencing in the mailbox/communicator layer, SupervisedCluster respawn and
// budget escalation, watchdog debounce, the rank_death / buddy_drop fault
// sites, buddy-restore vs disk-restore equivalence at the solver level,
// and the end-to-end service guarantee: a rank killed mid-attempt is
// respawned in place, the attempt completes with ZERO requeues, and the
// products are bit-identical to an uninterrupted baseline.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "core/source.hpp"
#include "fault/injector.hpp"
#include "health/watchdog.hpp"
#include "io/buddy.hpp"
#include "io/checkpoint.hpp"
#include "sched/report.hpp"
#include "sched/service.hpp"
#include "sched/spec.hpp"
#include "vcluster/cart.hpp"
#include "vcluster/cluster.hpp"
#include "vcluster/comm.hpp"
#include "vcluster/epoch.hpp"
#include "vcluster/respawn.hpp"

namespace awp {
namespace {

namespace fs = std::filesystem;

fs::path tempDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("awp-respawn-test-" + tag + "-" +
                  std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::byte> bytesOf(const std::string& text) {
  std::vector<std::byte> out(text.size());
  std::memcpy(out.data(), text.data(), text.size());
  return out;
}

// ---------------------------------------------------------------------------
// BuddyStore

TEST(BuddyStore, StoresRestoresAndPrefersSelf) {
  io::BuddyStore store(2);
  EXPECT_EQ(store.size(), 2);
  EXPECT_FALSE(store.newestStep(0).has_value());
  EXPECT_FALSE(store.restore(0, 5).has_value());

  store.storeSelf(0, 5,
                  std::make_shared<const std::vector<std::byte>>(
                      bytesOf("self-gen5")));
  store.storeReplica(0, 5, bytesOf("replica-gen5"));
  ASSERT_TRUE(store.newestStep(0).has_value());
  EXPECT_EQ(*store.newestStep(0), 5u);

  // A survivor restores from its own blob; the replica is untouched.
  auto self = store.restore(0, 5);
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(*self, bytesOf("self-gen5"));

  // Newer generation replaces self in place; a step-5 restore now falls
  // through to the replica, and step 10 is served from the new self blob.
  store.storeSelf(0, 10,
                  std::make_shared<const std::vector<std::byte>>(
                      bytesOf("self-gen10")));
  EXPECT_EQ(*store.newestStep(0), 10u);
  auto replica = store.restore(0, 5);
  ASSERT_TRUE(replica.has_value());
  EXPECT_EQ(*replica, bytesOf("replica-gen5"));
  auto newest = store.restore(0, 10);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, bytesOf("self-gen10"));

  // A dead rank loses its self blob but keeps the buddy-held replica.
  store.noteDeath(0);
  EXPECT_FALSE(store.restore(0, 10).has_value());
  ASSERT_TRUE(store.restore(0, 5).has_value());

  const auto stats = store.stats();
  EXPECT_EQ(stats.selfStores, 2u);
  EXPECT_EQ(stats.replicaStores, 1u);
  EXPECT_EQ(stats.restoresFromSelf, 2u);
  EXPECT_EQ(stats.restoresFromReplica, 2u);

  store.clear();
  EXPECT_FALSE(store.newestStep(0).has_value());
}

TEST(BuddyStore, ReplacementRestoresFromReplicaAndDropInvalidates) {
  io::BuddyStore store(4);
  // Only the replica exists for rank 2 (its own memory died with it).
  store.storeReplica(2, 12, bytesOf("rank2@12"));
  ASSERT_TRUE(store.newestStep(2).has_value());
  EXPECT_EQ(*store.newestStep(2), 12u);
  auto blob = store.restore(2, 12);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(*blob, bytesOf("rank2@12"));
  EXPECT_EQ(store.stats().restoresFromReplica, 1u);

  // A dropped replication invalidates the stale replica: a later restore
  // must fall back to disk instead of resurrecting an old generation.
  store.noteDrop(2);
  EXPECT_FALSE(store.restore(2, 12).has_value());
  EXPECT_EQ(store.stats().drops, 1u);
}

// ---------------------------------------------------------------------------
// Epoch fencing in the mailbox layer

TEST(EpochFencing, StaleMailIsDiscardedNotDelivered) {
  vcluster::ClusterState state(2);

  vcluster::Communicator sender(0, &state);
  const int payloadOld = 111;
  sender.sendValue(1, /*tag=*/7, payloadOld);  // stamped epoch 0

  // A respawn bumps the epoch; the queued message is now dead-incarnation
  // mail. A receiver under the new epoch must get the NEW message, not the
  // stale one.
  state.epoch.store(1, std::memory_order_release);
  sender.adoptEpoch();
  const int payloadNew = 222;
  sender.sendValue(1, /*tag=*/7, payloadNew);

  vcluster::Communicator receiver(1, &state);
  EXPECT_EQ(receiver.epoch(), 1u);
  EXPECT_EQ(receiver.recvValue<int>(0, 7), payloadNew);
  EXPECT_EQ(state.stats.messagesFenced.load(), 1u);
}

TEST(EpochFencing, BlockedReceiverWakesAndThrowsOnFence) {
  vcluster::ClusterState state(2);
  vcluster::Communicator receiver(1, &state);

  std::atomic<bool> fenced{false};
  std::thread t([&] {
    try {
      (void)receiver.recvValue<int>(0, 3);  // nothing will ever arrive
    } catch (const vcluster::EpochFenced&) {
      fenced.store(true);
    }
  });
  // Let the receiver block, then fence it the way the supervisor does.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  state.epoch.store(1, std::memory_order_release);
  for (auto& mb : state.mailboxes) mb->wakeAll();
  t.join();
  EXPECT_TRUE(fenced.load());
}

TEST(EpochFencing, PurgeBelowDropsOnlyDeadIncarnationMail) {
  vcluster::Mailbox box;
  box.push({/*src=*/0, /*tag=*/1, /*epoch=*/0, bytesOf("dead")});
  box.push({/*src=*/0, /*tag=*/2, /*epoch=*/1, bytesOf("live")});
  EXPECT_EQ(box.depth(), 2u);
  EXPECT_EQ(box.purgeBelow(1), 1u);
  EXPECT_EQ(box.depth(), 1u);
  vcluster::Message out;
  EXPECT_TRUE(box.tryPopMatch(0, 2, out));
  EXPECT_EQ(out.payload, bytesOf("live"));
}

// ---------------------------------------------------------------------------
// SupervisedCluster

TEST(SupervisedCluster, RespawnsDeadRankAndRunCompletes) {
  constexpr int kRanks = 3;
  constexpr int kRounds = 6;
  std::atomic<int> rank1Entries{0};
  std::atomic<int> cleanFinishes{0};

  vcluster::SupervisorOptions opts;
  opts.respawnBudget = 1;
  std::atomic<int> quiesceEnters{0};
  opts.onQuiesce = [&](int, bool entering) {
    if (entering) quiesceEnters.fetch_add(1);
  };
  vcluster::SupervisedCluster cluster(kRanks, opts);

  cluster.run([&](vcluster::Communicator& comm) {
    // First incarnation of rank 1 dies on round 2; every other execution
    // (survivors re-entering after the fence, and the replacement) runs
    // all rounds to completion.
    const bool doomed =
        comm.rank() == 1 && rank1Entries.fetch_add(1) == 0;
    for (int round = 0; round < kRounds; ++round) {
      if (doomed && round == 2)
        throw vcluster::RankDeathError(comm.rank(),
                                       static_cast<std::uint64_t>(round));
      const std::int64_t sum =
          comm.allreduce(std::int64_t{comm.rank()}, vcluster::ReduceOp::Sum);
      EXPECT_EQ(sum, kRanks * (kRanks - 1) / 2);
    }
    comm.barrier();
    cleanFinishes.fetch_add(1);
  });

  EXPECT_EQ(cluster.respawnsUsed(), 1);
  const auto events = cluster.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rank, 1);
  EXPECT_EQ(events[0].cause, "rank-death");
  EXPECT_EQ(events[0].incarnation, 1);
  EXPECT_EQ(cleanFinishes.load(), kRanks);
  EXPECT_EQ(rank1Entries.load(), 2);  // dead incarnation + replacement
  // Both survivors fenced and quiesced exactly once.
  EXPECT_EQ(quiesceEnters.load(), kRanks - 1);
}

TEST(SupervisedCluster, ExhaustedBudgetEscalates) {
  constexpr int kRanks = 2;
  std::atomic<int> rank1Entries{0};

  vcluster::SupervisorOptions opts;
  opts.respawnBudget = 1;
  vcluster::SupervisedCluster cluster(kRanks, opts);

  try {
    cluster.run([&](vcluster::Communicator& comm) {
      // Rank 1 dies on BOTH its incarnations: the second death exceeds
      // the budget and must escalate instead of respawning again.
      const int entry =
          comm.rank() == 1 ? rank1Entries.fetch_add(1) : -1;
      for (int round = 0; round < 50; ++round) {
        if (comm.rank() == 1 && entry < 2 && round == 1)
          throw vcluster::RankDeathError(comm.rank(),
                                         static_cast<std::uint64_t>(round));
        (void)comm.allreduce(std::int64_t{1}, vcluster::ReduceOp::Sum);
      }
    });
    FAIL() << "expected RespawnExhaustedError";
  } catch (const vcluster::RespawnExhaustedError& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.cause(), "rank-death");
  }
  EXPECT_EQ(cluster.respawnsUsed(), 1);  // the one respawn before escalation
  EXPECT_EQ(rank1Entries.load(), 2);
}

TEST(SupervisedCluster, RequestRespawnOutsideRunIsRefused) {
  vcluster::SupervisorOptions opts;
  vcluster::SupervisedCluster cluster(2, opts);
  EXPECT_FALSE(cluster.requestRespawn(0, "stall"));
  cluster.run([](vcluster::Communicator&) {});
  EXPECT_FALSE(cluster.requestRespawn(0, "stall"));
}

// ---------------------------------------------------------------------------
// Fault plan builders for the new sites

TEST(FaultSites, RankDeathFiresAtTheChosenStepConsult) {
  fault::FaultPlan plan;
  plan.rankDeath(/*rank=*/1, /*occurrence=*/3);
  ASSERT_EQ(plan.specs().size(), 1u);
  EXPECT_EQ(plan.specs()[0].site, "rank_death");
  EXPECT_EQ(plan.specs()[0].kind, fault::FaultKind::RankDeath);

  fault::FaultInjector injector(std::move(plan));
  EXPECT_FALSE(injector.check("rank_death", 1).has_value());  // consult 1
  EXPECT_FALSE(injector.check("rank_death", 0).has_value());  // other rank
  EXPECT_FALSE(injector.check("rank_death", 1).has_value());  // consult 2
  auto action = injector.check("rank_death", 1);              // consult 3
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->kind, fault::FaultKind::RankDeath);
  EXPECT_FALSE(injector.check("rank_death", 1).has_value());  // one-shot
}

TEST(FaultSites, BuddyDropIsAttributedToTheReplicaOwner) {
  fault::FaultPlan plan;
  plan.buddyDrop(/*rank=*/2, /*occurrence=*/1, /*count=*/2);
  ASSERT_EQ(plan.specs().size(), 1u);
  EXPECT_EQ(plan.specs()[0].site, "buddy_drop");
  EXPECT_EQ(plan.specs()[0].kind, fault::FaultKind::MessageDrop);

  fault::FaultInjector injector(std::move(plan));
  EXPECT_FALSE(injector.check("buddy_drop", 0).has_value());
  ASSERT_TRUE(injector.check("buddy_drop", 2).has_value());  // count=2
  ASSERT_TRUE(injector.check("buddy_drop", 2).has_value());
  EXPECT_FALSE(injector.check("buddy_drop", 2).has_value());
  EXPECT_EQ(injector.faultsInjected(), 2u);
}

// ---------------------------------------------------------------------------
// Watchdog debounce

TEST(WatchdogDebounce, MissThresholdSuppressesTransientStalls) {
  health::HeartbeatBoard board(1);
  board.beat(0, 1);

  // Threshold far above what the sleep window can accumulate: silence.
  {
    std::atomic<int> episodes{0};
    health::Watchdog dog(
        board, /*stallTimeoutSeconds=*/0.05,
        [&](const health::StallReport&) { episodes.fetch_add(1); },
        /*pollIntervalSeconds=*/0.01, /*missThreshold=*/100000);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    dog.stop();
    EXPECT_EQ(episodes.load(), 0);
    EXPECT_TRUE(dog.reports().empty());
  }

  // Threshold 1 (legacy behaviour): the same silence opens an episode.
  {
    std::atomic<int> episodes{0};
    health::Watchdog dog(
        board, /*stallTimeoutSeconds=*/0.05,
        [&](const health::StallReport&) { episodes.fetch_add(1); },
        /*pollIntervalSeconds=*/0.01, /*missThreshold=*/1);
    for (int i = 0; i < 500 && episodes.load() == 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    dog.stop();
    EXPECT_GE(episodes.load(), 1);
    ASSERT_GE(dog.reports().size(), 1u);
    EXPECT_EQ(dog.reports().front().rank, 0);
  }
}

// ---------------------------------------------------------------------------
// Buddy-restore vs disk-restore equivalence (solver level)

TEST(BuddyCheckpoint, BuddyRestoreMatchesDiskRestore) {
  const auto dir = tempDir("buddy-vs-disk");
  using core::SolverConfig;
  using core::WaveSolver;
  const vmodel::Material rock{5196.0f, 3000.0f, 2700.0f};

  auto makeSolver = [&](vcluster::Communicator& comm,
                        const vcluster::CartTopology& topo,
                        io::CheckpointStore* disk, io::BuddyStore* buddies) {
    SolverConfig config;
    config.globalDims = {20, 20, 20};
    config.h = 100.0;
    config.absorbing = core::AbsorbingType::Sponge;
    config.spongeWidth = 6;
    auto solver = std::make_unique<WaveSolver>(comm, topo, config, rock);
    const double dt = solver->config().dt;
    solver->addSource(core::explosionPointSource(
        10, 10, 10, core::rickerWavelet(4.0, 0.4, dt, 60, 1e15)));
    if (disk != nullptr) solver->attachCheckpoints(disk, 20);
    if (buddies != nullptr) solver->attachBuddies(buddies, 20);
    return solver;
  };

  // One run writes BOTH stores at step 20, then continues to 40.
  io::BuddyStore buddies(2);
  std::vector<float> uninterrupted;
  vcluster::ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    vcluster::CartTopology topo(vcluster::Dims3{2, 1, 1});
    io::CheckpointStore disk(dir.string());
    auto solver = makeSolver(comm, topo, &disk, &buddies);
    solver->run(40);
    if (comm.rank() == 0) {
      const auto& u = solver->grid().u;
      uninterrupted.assign(u.data(), u.data() + u.size());
    }
  });
  EXPECT_GE(buddies.stats().selfStores, 2u);
  EXPECT_GE(buddies.stats().replicaStores, 2u);

  // Restart path A: buddy blobs only (no disk store attached).
  std::vector<float> fromBuddy;
  vcluster::ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    vcluster::CartTopology topo(vcluster::Dims3{2, 1, 1});
    auto solver = makeSolver(comm, topo, nullptr, &buddies);
    solver->restart();
    EXPECT_EQ(solver->currentStep(), 21u);
    solver->run(40 - solver->currentStep());
    if (comm.rank() == 0) {
      const auto& u = solver->grid().u;
      fromBuddy.assign(u.data(), u.data() + u.size());
    }
  });
  EXPECT_GE(buddies.stats().restoresFromSelf, 2u);

  // Restart path B: disk only.
  std::vector<float> fromDisk;
  vcluster::ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    vcluster::CartTopology topo(vcluster::Dims3{2, 1, 1});
    io::CheckpointStore disk(dir.string());
    auto solver = makeSolver(comm, topo, &disk, nullptr);
    solver->restart();
    EXPECT_EQ(solver->currentStep(), 21u);
    solver->run(40 - solver->currentStep());
    if (comm.rank() == 0) {
      const auto& u = solver->grid().u;
      fromDisk.assign(u.data(), u.data() + u.size());
    }
  });
  fs::remove_all(dir);

  ASSERT_EQ(fromBuddy.size(), uninterrupted.size());
  ASSERT_EQ(fromDisk.size(), uninterrupted.size());
  for (std::size_t n = 0; n < uninterrupted.size(); ++n) {
    ASSERT_EQ(fromBuddy[n], uninterrupted[n]) << "buddy restore diverged";
    ASSERT_EQ(fromDisk[n], uninterrupted[n]) << "disk restore diverged";
  }
}

// ---------------------------------------------------------------------------
// End-to-end service guarantee

sched::ScenarioSpec chaosWaveSpec() {
  sched::ScenarioSpec spec;
  spec.kind = sched::ScenarioKind::Wave;
  spec.dims = {24, 18, 12};
  spec.h = 600.0;
  spec.steps = 24;
  spec.nranks = 4;
  spec.useCvm = true;
  spec.spongeWidth = 4;
  spec.checkpointEverySteps = 6;
  spec.surfaceSampleEverySteps = 2;
  spec.healthEverySteps = 4;
  spec.name = "chaos-wave";
  return spec;
}

std::string blobMd5(const sched::ScenarioProducts& products,
                    const std::string& name) {
  const sched::ArtifactBlob* blob = products.find(name);
  return blob != nullptr ? blob->md5Hex
                         : std::string("<missing:" + name + ">");
}

TEST(ScenarioService, RankDeathIsRepairedInPlaceBitIdentically) {
  const sched::ScenarioSpec spec = chaosWaveSpec();

  // Baseline: uninterrupted run.
  const fs::path baseWork = tempDir("svc-death-base");
  std::string surfaceMd5;
  std::string pgvhMd5;
  {
    sched::ServiceConfig cfg;
    cfg.coreBudget = 4;
    cfg.workDir = baseWork.string();
    sched::ScenarioService service(cfg);
    auto job = service.submit(spec);
    ASSERT_EQ(job->wait(), sched::JobPhase::Completed);
    surfaceMd5 = blobMd5(job->products, "surface.bin");
    pgvhMd5 = blobMd5(job->products, "pgvh.bin");
  }

  // Faulted: rank 2 dies entering step 14 (1-based consult 15) — past the
  // step-12 checkpoint/buddy generation, so the respawned rank restores
  // from its ring buddy and the loop replays only a 2-step window.
  const fs::path chaosWork = tempDir("svc-death-chaos");
  fault::FaultPlan plan;
  plan.rankDeath(/*rank=*/2, /*occurrence=*/15);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  sched::ServiceConfig cfg;
  cfg.coreBudget = 4;
  cfg.workDir = chaosWork.string();
  cfg.respawnBudget = 1;
  sched::ScenarioService service(cfg);
  auto job = service.submit(spec);
  ASSERT_EQ(job->wait(), sched::JobPhase::Completed);
  EXPECT_EQ(injector.faultsInjected(), 1u);

  // The loss was absorbed IN PLACE: one attempt, zero requeues, exactly
  // one successful respawn — and the products are bit-identical.
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    EXPECT_EQ(job->attempts, 1);
    EXPECT_TRUE(job->requeues.empty());
    EXPECT_EQ(job->respawns, 1);
    EXPECT_EQ(job->respawnEscalations, 0);
  }
  EXPECT_EQ(blobMd5(job->products, "surface.bin"), surfaceMd5);
  EXPECT_EQ(blobMd5(job->products, "pgvh.bin"), pgvhMd5);

  const auto report = service.report();
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_EQ(report.respawnEscalations, 0u);
  EXPECT_EQ(report.executedAttempts, 1u);
  const auto violations =
      sched::validateServiceReportJson(sched::toJson(report));
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
  fs::remove_all(baseWork);
  fs::remove_all(chaosWork);
}

// A 2-rank rupture scenario on the same ladder: checkpoints (and buddy
// replicas) every 10 steps.
sched::ScenarioSpec chaosRuptureSpec() {
  sched::ScenarioSpec spec;
  spec.kind = sched::ScenarioKind::Rupture;
  spec.nranks = 2;
  spec.steps = 40;
  spec.h = 600.0;
  spec.lengthKm = 36.0;
  spec.depthKm = 12.0;
  spec.seed = 42;
  spec.checkpointEverySteps = 10;
  spec.name = "chaos-rupture";
  return spec;
}

// Runs `spec` on a fresh 2-core service; returns the settled job.
sched::JobHandle runOnFreshService(const sched::ScenarioSpec& spec,
                                   const fs::path& work) {
  sched::ServiceConfig cfg;
  cfg.coreBudget = 2;
  cfg.workDir = work.string();
  cfg.respawnBudget = 1;
  sched::ScenarioService service(cfg);
  auto job = service.submit(spec);
  job->wait();
  return job;
}

TEST(ScenarioService, RuptureRankDeathIsRepairedInPlaceBitIdentically) {
  const sched::ScenarioSpec spec = chaosRuptureSpec();
  const fs::path baseWork = tempDir("svc-rupture-base");
  const auto base = runOnFreshService(spec, baseWork);
  ASSERT_EQ(base->wait(), sched::JobPhase::Completed);
  const std::string historyMd5 = blobMd5(base->products, "fault_history");

  // Rank 1 dies entering step 24, past the step-20 generation: the
  // replacement restores grid AND fault state from its ring buddy.
  const fs::path chaosWork = tempDir("svc-rupture-death");
  fault::FaultPlan plan;
  plan.rankDeath(/*rank=*/1, /*occurrence=*/25);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);
  const auto job = runOnFreshService(spec, chaosWork);
  EXPECT_EQ(injector.faultsInjected(), 1u);
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    ASSERT_EQ(job->phase, sched::JobPhase::Completed) << job->error;
    EXPECT_EQ(job->attempts, 1);
    EXPECT_TRUE(job->requeues.empty());
    EXPECT_EQ(job->respawns, 1);
  }
  EXPECT_EQ(blobMd5(job->products, "fault_history"), historyMd5);
  fs::remove_all(baseWork);
  fs::remove_all(chaosWork);
}

TEST(ScenarioService, RupturePoisonIsDetectedAndRolledBack) {
  const sched::ScenarioSpec spec = chaosRuptureSpec();
  const fs::path baseWork = tempDir("svc-rupture-clean");
  const auto base = runOnFreshService(spec, baseWork);
  ASSERT_EQ(base->wait(), sched::JobPhase::Completed);

  // A NaN lands in rank 0's velocity entering step 22; the step-25 scan
  // sees it and the guard rolls back to the step-20 generation on a
  // halved dt.
  const fs::path chaosWork = tempDir("svc-rupture-poison");
  fault::FaultPlan plan;
  plan.poison("solver.step", /*rank=*/0, /*occurrence=*/23);
  fault::FaultInjector injector(std::move(plan), /*seed=*/99);
  fault::ScopedInjection scoped(injector);
  const auto job = runOnFreshService(spec, chaosWork);
  EXPECT_EQ(injector.faultsInjected(), 1u);
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    ASSERT_EQ(job->phase, sched::JobPhase::Completed) << job->error;
    EXPECT_EQ(job->attempts, 1);
    EXPECT_TRUE(job->requeues.empty());
  }
  const auto* blob = job->products.find("fault_history");
  ASSERT_NE(blob, nullptr);
  const auto history = sched::deserializeFaultHistory(blob->bytes);
  EXPECT_DOUBLE_EQ(history.dt, 0.5 * base->products.dt);
  for (const auto* v : {&history.finalSlip, &history.peakSlipRate,
                        &history.slipRateX, &history.slipRateZ})
    for (float x : *v) ASSERT_TRUE(std::isfinite(x));
  fs::remove_all(baseWork);
  fs::remove_all(chaosWork);
}

TEST(ScenarioService, ExhaustedRespawnBudgetFallsBackToRequeue) {
  const sched::ScenarioSpec spec = chaosWaveSpec();

  // Kill rank 1 at step 14 on BOTH incarnations: the second death exceeds
  // the budget, the ladder escalates, and the legacy cancel-and-requeue
  // path must still finish the job (the requeued attempt's consult stream
  // is past the kill window, so it completes).
  const fs::path work = tempDir("svc-death-escalate");
  fault::FaultPlan plan;
  plan.rankDeath(/*rank=*/1, /*occurrence=*/15, /*count=*/2);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  sched::ServiceConfig cfg;
  cfg.coreBudget = 4;
  cfg.workDir = work.string();
  cfg.respawnBudget = 1;
  cfg.maxRetries = 2;
  sched::ScenarioService service(cfg);
  auto job = service.submit(spec);
  ASSERT_EQ(job->wait(), sched::JobPhase::Completed);

  {
    std::lock_guard<std::mutex> lock(job->mutex);
    EXPECT_EQ(job->respawns, 1);
    EXPECT_EQ(job->respawnEscalations, 1);
    ASSERT_GE(job->requeues.size(), 1u);
    EXPECT_EQ(job->requeues[0].cause, sched::RequeueCause::WorkerCrash);
    EXPECT_GE(job->attempts, 2);
  }
  const auto report = service.report();
  EXPECT_GE(report.retries, 1u);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_EQ(report.respawnEscalations, 1u);
  EXPECT_TRUE(
      sched::validateServiceReportJson(sched::toJson(report)).empty());
  fs::remove_all(work);
}

TEST(ScenarioService, BuddyDropForcesDiskFallbackAndStaysBitIdentical) {
  const sched::ScenarioSpec spec = chaosWaveSpec();

  const fs::path baseWork = tempDir("svc-drop-base");
  std::string surfaceMd5;
  {
    sched::ServiceConfig cfg;
    cfg.coreBudget = 4;
    cfg.workDir = baseWork.string();
    sched::ScenarioService service(cfg);
    auto job = service.submit(spec);
    ASSERT_EQ(job->wait(), sched::JobPhase::Completed);
    surfaceMd5 = blobMd5(job->products, "surface.bin");
  }

  // Every replication of rank 2's blob is lost in flight AND rank 2 dies
  // at step 14: the replacement finds no in-memory blob and must restore
  // from the on-disk generation — same bit-identical outcome, one rung
  // lower on the ladder.
  const fs::path chaosWork = tempDir("svc-drop-chaos");
  fault::FaultPlan plan;
  plan.buddyDrop(/*rank=*/2, /*occurrence=*/1, /*count=*/100);
  plan.rankDeath(/*rank=*/2, /*occurrence=*/15);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  sched::ServiceConfig cfg;
  cfg.coreBudget = 4;
  cfg.workDir = chaosWork.string();
  cfg.respawnBudget = 1;
  sched::ScenarioService service(cfg);
  auto job = service.submit(spec);
  ASSERT_EQ(job->wait(), sched::JobPhase::Completed);

  {
    std::lock_guard<std::mutex> lock(job->mutex);
    EXPECT_EQ(job->respawns, 1);
    EXPECT_TRUE(job->requeues.empty());
  }
  EXPECT_EQ(blobMd5(job->products, "surface.bin"), surfaceMd5);
  fs::remove_all(baseWork);
  fs::remove_all(chaosWork);
}

}  // namespace
}  // namespace awp
