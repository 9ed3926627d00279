// Fault-tolerant hazard fabric tests: consistent-hash routing, lease-based
// membership, transport fault injection, submission-log replay, degraded
// mode, the fabric-owned telemetry session, and the broker-death chaos
// acceptance run (kill 1 of 3 brokers mid-ensemble; every scenario still
// completes bit-identically, exactly once).

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fabric/fabric.hpp"
#include "fabric/hash_ring.hpp"
#include "fabric/membership.hpp"
#include "fabric/submission_log.hpp"
#include "fabric/transport.hpp"
#include "fault/injector.hpp"
#include "sched/report.hpp"
#include "sched/spec.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/retry.hpp"

namespace awp::fabric {
namespace {

namespace fs = std::filesystem;

fs::path tempDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("awp-fabric-test-" + tag + "-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Small, fast wave scenario (mirrors test_sched's): ~5k cells, a
// checkpoint every 6 steps, surface samples every 2.
sched::ScenarioSpec smallWaveSpec(std::uint64_t steps = 24) {
  sched::ScenarioSpec spec;
  spec.kind = sched::ScenarioKind::Wave;
  spec.dims = {24, 18, 12};
  spec.h = 600.0;
  spec.steps = steps;
  spec.nranks = 2;
  spec.useCvm = true;
  spec.spongeWidth = 4;
  spec.checkpointEverySteps = 6;
  spec.surfaceSampleEverySteps = 2;
  spec.healthEverySteps = 4;
  spec.name = "fabric-wave";
  return spec;
}

std::string blobMd5(const sched::ScenarioProducts& products,
                    const std::string& name) {
  const sched::ArtifactBlob* blob = products.find(name);
  return blob != nullptr ? blob->md5Hex
                         : std::string("<missing:" + name + ">");
}

FabricConfig smallFabricConfig(const fs::path& root, int brokers) {
  FabricConfig c;
  c.brokers = brokers;
  c.vnodes = 64;
  c.rootDir = root.string();
  c.leaseSeconds = 0.6;
  c.heartbeatSeconds = 0.08;
  c.degradedAfterMisses = 2;
  c.pumpIntervalSeconds = 0.004;
  c.forwardAttempts = 4;
  c.service.coreBudget = 4;
  c.service.queueCapacity = 32;
  return c;
}

// Spin until every broker has fetched (and adopted) the initial
// membership view. The first heartbeat consumes fault-site consults, so
// tests that inject "fabric_drop" install their injector only after this.
void waitForInitialViews(HazardFabric& fabric, int brokers) {
  for (int i = 0; i < 5000; ++i) {
    int adopted = 0;
    for (const std::string& ev : fabric.events())
      if (ev.find("adopted view epoch 1") != std::string::npos) ++adopted;
    if (adopted >= brokers) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "brokers never adopted the initial membership view";
}

// Find a steps variant of the small wave spec whose digest lands on
// `wantOwner` under the full live mask of an (nbrokers, 64) ring. The
// ring is deterministic, so the search is too.
sched::ScenarioSpec specOwnedBy(int nbrokers, int wantOwner,
                                std::uint64_t minSteps = 12) {
  const HashRing ring(nbrokers, 64);
  const std::uint32_t full = (1u << static_cast<std::uint32_t>(nbrokers)) - 1u;
  for (std::uint64_t steps = minSteps; steps < minSteps + 200; steps += 2) {
    sched::ScenarioSpec spec = smallWaveSpec(steps);
    if (ring.ownerOf(HashRing::pointFor(spec.hashHex()), full) == wantOwner)
      return spec;
  }
  ADD_FAILURE() << "no spec variant owned by broker " << wantOwner;
  return smallWaveSpec(minSteps);
}

// ---------------------------------------------------------------------------
// HashRing

TEST(HashRing, DeterministicBalancedAndLiveOnly) {
  const HashRing a(4, 64);
  const HashRing b(4, 64);
  EXPECT_EQ(a.vnodeCount(), 4u * 64u);

  const std::uint32_t full = 0b1111;
  std::map<int, int> load;
  for (int i = 0; i < 2000; ++i) {
    const std::string digest = "digest-" + std::to_string(i);
    const std::uint64_t point = HashRing::pointFor(digest);
    const int owner = a.ownerOf(point, full);
    EXPECT_EQ(owner, b.ownerOf(point, full));  // identical rings
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    ++load[owner];
  }
  for (int broker = 0; broker < 4; ++broker)
    EXPECT_GT(load[broker], 0) << "broker " << broker << " owns nothing";

  // Excluded brokers are never chosen.
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t point =
        HashRing::pointFor("mask-" + std::to_string(i));
    EXPECT_NE(a.ownerOf(point, 0b1101), 1);
  }
  EXPECT_EQ(a.ownerOf(12345, 0), -1);  // nobody live
}

TEST(HashRing, DeathMovesOnlyTheDeadBrokersKeys) {
  const HashRing ring(3, 64);
  const std::uint32_t full = 0b111;
  const std::uint32_t without1 = 0b101;
  int moved = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t point =
        HashRing::pointFor("reshuffle-" + std::to_string(i));
    const int before = ring.ownerOf(point, full);
    const int after = ring.ownerOf(point, without1);
    if (before != 1) {
      EXPECT_EQ(after, before);  // survivors' assignments untouched
    } else {
      EXPECT_NE(after, 1);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);  // broker 1 owned something to begin with
}

// ---------------------------------------------------------------------------
// LeaseBoard

TEST(LeaseBoard, MissedRenewalsEvictAndBumpTheEpoch) {
  LeaseBoard board(3, /*leaseSeconds=*/0.5);
  MembershipView v = board.view(0.0);
  EXPECT_EQ(v.epoch, 1u);
  EXPECT_EQ(v.liveCount(), 3);

  // Broker 0 renews at 0.4 (deadline 0.9); 1 and 2 never do.
  EXPECT_EQ(board.renew(0, 0.4), LeaseBoard::RenewResult::Ok);
  v = board.view(0.6);
  EXPECT_EQ(v.epoch, 2u);  // one bump for the batch of expiries
  EXPECT_TRUE(v.contains(0));
  EXPECT_FALSE(v.contains(1));
  EXPECT_FALSE(v.contains(2));

  // A lapsed broker's renewal is refused until it rejoins.
  EXPECT_EQ(board.renew(1, 0.7), LeaseBoard::RenewResult::Lapsed);
  board.rejoin(1, 0.7);
  v = board.view(0.7);
  EXPECT_EQ(v.epoch, 3u);
  EXPECT_TRUE(v.contains(1));

  // markDead is permanent: rejoin is ignored.
  board.markDead(2);
  board.rejoin(2, 0.8);
  v = board.view(0.8);
  EXPECT_FALSE(v.contains(2));
}

// ---------------------------------------------------------------------------
// FabricTransport fault sites

TEST(Transport, InjectedDropAndDuplicateAreAttributedToTheSender) {
  LeaseBoard board(2, 1000.0);
  FabricTransport transport(2, &board, /*inboxCapacity=*/8);

  fault::FaultPlan plan;
  plan.fabricDrop(0, /*occurrence=*/1);       // first send from broker 0
  plan.fabricDuplicate(0, /*occurrence=*/2);  // second send from broker 0
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  FabricMessage m;
  m.from = 0;
  m.setDigest(std::string(32, 'a'));
  EXPECT_EQ(transport.send(m, 1), FabricTransport::SendResult::Dropped);
  EXPECT_EQ(transport.send(m, 1), FabricTransport::SendResult::Delivered);

  FabricMessage out;
  ASSERT_TRUE(transport.poll(1, out));  // duplicated: two copies queued
  EXPECT_EQ(out.digestStr(), std::string(32, 'a'));
  ASSERT_TRUE(transport.poll(1, out));
  EXPECT_FALSE(transport.poll(1, out));

  const FabricTransport::Stats stats = transport.stats();
  EXPECT_EQ(stats.sent, 2u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.duplicated, 1u);
  EXPECT_EQ(stats.delivered, 2u);
}

TEST(Transport, InjectedSendDelayStallsButStillDelivers) {
  LeaseBoard board(2, 1000.0);
  FabricTransport transport(2, &board, /*inboxCapacity=*/8);

  // A fabric_delay stall slows the sending broker without losing the
  // message: delivery and digest integrity are unaffected.
  fault::FaultPlan plan;
  plan.fabricDelay(0, /*occurrence=*/1, /*seconds=*/0.05);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  FabricMessage m;
  m.from = 0;
  m.setDigest(std::string(32, 'b'));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(transport.send(m, 1), FabricTransport::SendResult::Delivered);
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 0.04);

  FabricMessage out;
  ASSERT_TRUE(transport.poll(1, out));
  EXPECT_EQ(out.digestStr(), std::string(32, 'b'));
  EXPECT_FALSE(transport.poll(1, out));

  const FabricTransport::Stats stats = transport.stats();
  EXPECT_EQ(stats.delayed, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(injector.faultsInjected(), 1u);
}

// ---------------------------------------------------------------------------
// SubmissionLog

TEST(SubmissionLog, AppendIsIdempotentByDigest) {
  SubmissionLog log;
  const sched::ScenarioSpec spec = smallWaveSpec();
  const std::string digest = spec.hashHex();

  const std::uint64_t seq = log.append(spec, digest, 0);
  EXPECT_EQ(log.append(spec, digest, 1), seq);  // dedup, same record
  EXPECT_TRUE(log.contains(digest));
  EXPECT_FALSE(log.isCompleted(digest));
  EXPECT_EQ(log.incompleteRecords().size(), 1u);

  log.markCompleted(digest);
  log.markCompleted(digest);  // idempotent
  EXPECT_TRUE(log.isCompleted(digest));
  EXPECT_TRUE(log.incompleteRecords().empty());

  const SubmissionLog::Stats stats = log.stats();
  EXPECT_EQ(stats.appended, 1u);
  EXPECT_EQ(stats.dedupedAppends, 1u);
  EXPECT_EQ(stats.completedMarks, 1u);
}

// ---------------------------------------------------------------------------
// Healthy-fabric ensemble

TEST(Fabric, EnsembleCompletesWithCoalescedResubmission) {
  const fs::path root = tempDir("ensemble");
  util::resetRetryRegistry();
  HazardFabric fabric(smallFabricConfig(root, 2));

  std::vector<FabricJobHandle> jobs;
  for (std::uint64_t steps : {12u, 14u, 16u, 18u})
    jobs.push_back(fabric.submit(smallWaveSpec(steps)));
  // Resubmitting an in-flight digest coalesces onto the same handle.
  FabricJobHandle dup = fabric.submit(smallWaveSpec(12));
  EXPECT_EQ(dup.get(), jobs[0].get());

  fabric.drain();
  for (const auto& job : jobs) {
    EXPECT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
    std::lock_guard<std::mutex> lock(job->mu);
    EXPECT_EQ(job->completions, 1);
    EXPECT_NE(job->products.find("pgvh.bin"), nullptr);
    EXPECT_NE(job->products.find("surface.bin"), nullptr);
  }
  {
    std::lock_guard<std::mutex> lock(dup->mu);
    EXPECT_EQ(dup->submissions, 2);
  }

  const FabricReport report = fabric.report();
  EXPECT_EQ(report.submitted, 4u);
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.liveBrokers, 2);
  EXPECT_EQ(report.log.appended, 4u);
  EXPECT_EQ(report.log.completedMarks, 4u);
  ASSERT_EQ(report.brokers.size(), 2u);
  for (const auto& br : report.brokers) {
    const auto problems =
        sched::validateServiceReportJson(sched::toJson(br));
    EXPECT_TRUE(problems.empty())
        << "broker report invalid: " << problems.front();
  }
  fabric.shutdown();
}

// ---------------------------------------------------------------------------
// Fabric-owned telemetry session

// FabricConfig::telemetry gives every span writer of the fabric its own
// lane of one session: brokers x coreBudget rank lanes, then a dispatcher
// lane and a pump lane per broker. shutdown() uninstalls the session, and
// its spans stay readable until the fabric is destroyed.
TEST(Fabric, OwnedTelemetrySessionGivesEveryWriterALane) {
  ASSERT_EQ(telemetry::activeSession(), nullptr);
  const fs::path root = tempDir("telemetry");
  const int brokers = 2;
  FabricConfig config = smallFabricConfig(root, brokers);
  config.telemetry = true;
  HazardFabric fabric(config);
  const telemetry::Session* session = telemetry::activeSession();
  ASSERT_NE(session, nullptr);
  const int totalCores = brokers * config.service.coreBudget;
  EXPECT_EQ(session->nranks(), totalCores + 2 * brokers);

  FabricJobHandle job = fabric.submit(smallWaveSpec(12));
  EXPECT_EQ(job->wait(), sched::JobPhase::Completed);
  fabric.shutdown();
  EXPECT_EQ(telemetry::activeSession(), nullptr);

  auto lanePhases = [&](int lane) {
    std::set<telemetry::Phase> phases;
    for (const auto& rec : session->slot(lane).traceSnapshot())
      phases.insert(rec.phase);
    return phases;
  };
  bool kernelSpans = false;
  for (int lane = 0; lane < totalCores; ++lane)
    if (lanePhases(lane).count(telemetry::Phase::VelocityKernel) > 0)
      kernelSpans = true;
  EXPECT_TRUE(kernelSpans) << "no rank lane holds kernel spans";
  for (int i = 0; i < brokers; ++i) {
    EXPECT_EQ(lanePhases(totalCores + i).count(telemetry::Phase::SchedQueue),
              1u)
        << "dispatcher lane of broker " << i;
    EXPECT_EQ(lanePhases(totalCores + brokers + i)
                  .count(telemetry::Phase::FabricHeartbeat),
              1u)
        << "pump lane of broker " << i;
  }
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// Forward retry under injected drops (satellite: per-site retry stats)

TEST(Fabric, ForwardRetriesUnderDropsAndRecordsRetrySites) {
  const fs::path root = tempDir("forward-retry");
  util::resetRetryRegistry();

  FabricConfig config = smallFabricConfig(root, 2);
  // Park the control plane so ONLY data-plane forwards consume broker 0's
  // "fabric_drop" occurrence stream (heartbeats share the site).
  config.heartbeatSeconds = 1000.0;
  config.leaseSeconds = 1e9;

  HazardFabric fabric(config);
  waitForInitialViews(fabric, 2);

  // The first two forward sends from broker 0 are lost; the third retry
  // lands (forwardAttempts = 4). Installed after the initial view fetch
  // so the control plane does not consume the occurrence stream.
  fault::FaultPlan plan;
  plan.fabricDrop(0, /*occurrence=*/1, /*count=*/2);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  // Entry round-robin starts at broker 0; a spec owned by broker 1 forces
  // a forward across the faulty link.
  FabricJobHandle job = fabric.submit(specOwnedBy(2, /*wantOwner=*/1));
  fabric.drain();
  EXPECT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;

  const FabricReport report = fabric.report();
  EXPECT_GE(report.transport.dropped, 2u);
  EXPECT_GE(report.counters.forwards, 1u);
  const auto it = report.retrySites.find("fabric.forward");
  ASSERT_NE(it, report.retrySites.end());
  EXPECT_GE(it->second.calls, 1u);
  EXPECT_GE(it->second.failures, 2u);  // the two dropped attempts
  EXPECT_GT(it->second.attempts, it->second.calls);
  EXPECT_EQ(it->second.exhausted, 0u);
  fabric.shutdown();
}

// ---------------------------------------------------------------------------
// Event-driven pump: arrivals and settles ring the doorbell

// With a 5 s timer tick, a pump that only woke on its timer would hold
// every forwarded submission in the owner's inbox, and every finished job
// in the tracked table, until the next tick. The doorbell settles each
// job within 2.5 s of its submit, and the wakes do not advance the tick
// count that reconcileEveryTicks (and broker_death) read.
TEST(Fabric, DoorbellSettlesWithoutWaitingForTheTimerTick) {
  const fs::path root = tempDir("doorbell");
  const int brokers = 3;
  const double tickSeconds = 5.0;
  FabricConfig config = smallFabricConfig(root, brokers);
  config.pumpIntervalSeconds = tickSeconds;
  config.leaseSeconds = 1000.0;  // no lease lapses between 5 s heartbeats
  config.serve.reconcileEveryTicks = 1;
  config.service.coreBudget = 2;

  const auto start = std::chrono::steady_clock::now();
  HazardFabric fabric(config);

  // Entry brokers go round-robin 0, 1, 2, ...: alternate specs the entry
  // runs itself with specs its successor owns, which are forwarded.
  const HashRing ring(brokers, config.vnodes);
  const std::uint32_t full = (1u << brokers) - 1u;
  std::set<std::string> digests;
  std::vector<sched::ScenarioSpec> specs;
  for (int i = 0; i < 6; ++i) {
    const int entry = i % brokers;
    const int owner = i % 2 == 0 ? entry : (entry + 1) % brokers;
    for (std::uint64_t steps = 4;; ++steps) {
      ASSERT_LT(steps, 400u) << "no tiny spec owned by broker " << owner;
      sched::ScenarioSpec spec;
      spec.dims = {12, 10, 8};
      spec.nranks = 1;
      spec.steps = steps;
      spec.useCvm = false;
      spec.spongeWidth = 2;
      spec.checkpointEverySteps = 0;
      spec.healthEverySteps = 2;
      spec.name = "doorbell";
      const std::string digest = spec.hashHex();
      if (digests.count(digest) != 0 ||
          ring.ownerOf(HashRing::pointFor(digest), full) != owner)
        continue;
      digests.insert(digest);
      specs.push_back(spec);
      break;
    }
  }

  std::vector<FabricJobHandle> jobs;
  std::vector<std::chrono::steady_clock::time_point> submitted;
  for (const auto& spec : specs) {
    submitted.push_back(std::chrono::steady_clock::now());
    jobs.push_back(fabric.submit(spec));
  }
  // Waiting in order over-estimates a job's latency (it may have settled
  // while an earlier one was awaited), so the bound is conservative.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i]->wait(), sched::JobPhase::Completed) << jobs[i]->error;
    const double latency = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               submitted[i])
                               .count();
    EXPECT_LT(latency, 0.5 * tickSeconds) << "job " << i;
  }

  const FabricReport report = fabric.report();
  EXPECT_GE(report.counters.forwards, 1u);
  EXPECT_EQ(report.completed, specs.size());
  // Each broker ticks at its start and then every tickSeconds; read the
  // count before the clock so a tick in between cannot break the bound.
  const std::uint64_t reconciles = fabric.productServer().stats().reconciles;
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LE(reconciles,
            static_cast<std::uint64_t>(
                brokers * (1 + static_cast<int>(elapsed / tickSeconds))));
  fabric.shutdown();
  fs::remove_all(root);
}

TEST(Fabric, DuplicateDeliveryIsAbsorbedExactlyOnce) {
  const fs::path root = tempDir("duplicate");
  util::resetRetryRegistry();

  FabricConfig config = smallFabricConfig(root, 2);
  config.heartbeatSeconds = 1000.0;  // leave the fault stream to the sends
  config.leaseSeconds = 1e9;

  HazardFabric fabric(config);
  waitForInitialViews(fabric, 2);

  fault::FaultPlan plan;
  plan.fabricDuplicate(0, /*occurrence=*/1);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  FabricJobHandle job = fabric.submit(specOwnedBy(2, /*wantOwner=*/1));
  fabric.drain();
  EXPECT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    EXPECT_EQ(job->completions, 1);
  }
  // The second copy is absorbed by digest dedup (tracked-job table or
  // completed-log check), not run again; it may still be in the inbox
  // when drain() returns, so poll for the dedup mark.
  for (int i = 0; i < 1000 && fabric.report().counters.dedupHits == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const FabricReport report = fabric.report();
  EXPECT_EQ(report.transport.duplicated, 1u);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_GE(report.counters.dedupHits, 1u);
  fabric.shutdown();
}

// ---------------------------------------------------------------------------
// Degraded mode: a partitioned broker parks work instead of failing it

TEST(Fabric, PartitionedBrokerDegradesParksAndRecovers) {
  const fs::path root = tempDir("degraded");
  util::resetRetryRegistry();

  FabricConfig config = smallFabricConfig(root, 2);
  config.leaseSeconds = 0.3;
  config.heartbeatSeconds = 0.05;
  config.degradedAfterMisses = 2;

  // Partition broker 1 from the start: every send AND lease RPC from it
  // is lost for the first 40 consults (~1 s of heartbeats), then the
  // link heals and it rejoins.
  fault::FaultPlan plan;
  plan.fabricDrop(1, /*occurrence=*/1, /*count=*/40);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  HazardFabric fabric(config);

  // Wait for the partition to register: broker 1 degrades after two
  // missed renewals, and the board evicts it when the lease lapses.
  for (int i = 0; i < 2000 && fabric.brokerState(1) != BrokerState::Degraded;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(fabric.brokerState(1), BrokerState::Degraded);

  // Entry round-robin: first submit enters broker 0, second enters the
  // degraded broker 1, which must PARK it (degradedHolds), not fail it.
  FabricJobHandle first = fabric.submit(smallWaveSpec(12));
  FabricJobHandle parked = fabric.submit(smallWaveSpec(14));

  fabric.drain();
  EXPECT_EQ(first->wait(), sched::JobPhase::Completed) << first->error;
  EXPECT_EQ(parked->wait(), sched::JobPhase::Completed) << parked->error;
  {
    std::lock_guard<std::mutex> lock(parked->mu);
    EXPECT_EQ(parked->completions, 1);
  }

  // The drop window ends ~1 s in; wait for broker 1 to renew, learn its
  // lease lapsed, and rejoin before checking the recovery markers.
  for (int i = 0; i < 5000 && fabric.brokerState(1) != BrokerState::Active;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(fabric.brokerState(1), BrokerState::Active);

  const FabricReport report = fabric.report();
  EXPECT_GE(report.counters.degradedHolds, 1u);
  EXPECT_GE(report.viewEpoch, 2u);  // the eviction bumped the epoch

  bool sawDegraded = false;
  bool sawRecovery = false;
  for (const std::string& ev : fabric.events()) {
    if (ev.find("degraded") != std::string::npos) sawDegraded = true;
    if (ev.find("active again") != std::string::npos ||
        ev.find("rejoined") != std::string::npos)
      sawRecovery = true;
  }
  EXPECT_TRUE(sawDegraded);
  EXPECT_TRUE(sawRecovery);
  fabric.shutdown();
}

// ---------------------------------------------------------------------------
// Chaos acceptance: kill 1 of 3 brokers mid-ensemble. Every scenario
// completes bit-identically to an undisturbed baseline, exactly once.

TEST(FabricChaos, BrokerDeathMidEnsembleIsBitIdentical) {
  // Ensure at least two scenarios land on the broker we will kill, so its
  // hash range genuinely has work to hand off.
  // The doomed broker's scenarios are long enough (150+ steps, a
  // checkpoint every 6) that they cannot finish before the death fires.
  std::vector<sched::ScenarioSpec> specs;
  specs.push_back(specOwnedBy(3, /*wantOwner=*/1, /*minSteps=*/150));
  specs.push_back(specOwnedBy(
      3, /*wantOwner=*/1, specs.back().steps + 2));
  specs.push_back(specOwnedBy(3, /*wantOwner=*/0, /*minSteps=*/12));
  specs.push_back(specOwnedBy(3, /*wantOwner=*/2, /*minSteps=*/12));
  std::set<std::string> digests;
  for (const auto& s : specs) digests.insert(s.hashHex());
  ASSERT_EQ(digests.size(), specs.size());

  // Baseline: an undisturbed single-broker fabric with its own work/cache
  // tier records the ground-truth product hashes.
  std::map<std::string, std::string> basePgvh;
  std::map<std::string, std::string> baseSurface;
  {
    const fs::path root = tempDir("chaos-baseline");
    util::resetRetryRegistry();
    HazardFabric baseline(smallFabricConfig(root, 1));
    std::vector<FabricJobHandle> jobs;
    for (const auto& s : specs) jobs.push_back(baseline.submit(s));
    baseline.drain();
    for (const auto& job : jobs) {
      ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
      std::lock_guard<std::mutex> lock(job->mu);
      basePgvh[job->digest] = blobMd5(job->products, "pgvh.bin");
      baseSurface[job->digest] = blobMd5(job->products, "surface.bin");
    }
    baseline.shutdown();
  }

  // Chaos run: 3 brokers, broker 1 fail-stops at its 4th pump tick with
  // local work in flight.
  const fs::path root = tempDir("chaos-run");
  util::resetRetryRegistry();
  FabricConfig config = smallFabricConfig(root, 3);
  config.leaseSeconds = 0.3;
  config.heartbeatSeconds = 0.06;

  fault::FaultPlan plan;
  plan.brokerDeath(1, /*occurrence=*/4);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  HazardFabric fabric(config);
  std::vector<FabricJobHandle> jobs;
  for (const auto& s : specs) jobs.push_back(fabric.submit(s));
  fabric.drain();

  EXPECT_EQ(fabric.brokerState(1), BrokerState::Dead);
  for (const auto& job : jobs) {
    ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
    std::lock_guard<std::mutex> lock(job->mu);
    EXPECT_EQ(job->completions, 1) << job->digest;  // exactly once
    EXPECT_EQ(blobMd5(job->products, "pgvh.bin"), basePgvh[job->digest])
        << "pgvh not bit-identical for " << job->digest;
    EXPECT_EQ(blobMd5(job->products, "surface.bin"),
              baseSurface[job->digest])
        << "surface not bit-identical for " << job->digest;
  }

  const FabricReport report = fabric.report();
  EXPECT_EQ(report.completed, specs.size());
  EXPECT_EQ(report.failed, 0u);           // zero lost products
  EXPECT_EQ(report.liveBrokers, 2);
  EXPECT_GE(report.viewEpoch, 2u);        // the death bumped the epoch
  EXPECT_GE(report.counters.replays, 1u); // the orphaned range replayed
  EXPECT_GE(report.counters.viewChanges, 1u);

  bool sawDeath = false;
  for (const std::string& ev : fabric.events())
    if (ev.find("fail-stop") != std::string::npos) sawDeath = true;
  EXPECT_TRUE(sawDeath);

  // The dead broker's jobs were marked complete in the log by whoever
  // finished them — nothing left incomplete, nothing double-marked.
  EXPECT_EQ(report.log.completedMarks, specs.size());

  for (const auto& br : report.brokers) {
    const auto problems =
        sched::validateServiceReportJson(sched::toJson(br));
    EXPECT_TRUE(problems.empty())
        << "broker report invalid: " << problems.front();
  }
  fabric.shutdown();
}

// Every broker dying with work outstanding settles the remainder as
// Failed instead of hanging drain() forever.
TEST(FabricChaos, AllBrokersDeadFailsRemainingWork) {
  const fs::path root = tempDir("all-dead");
  util::resetRetryRegistry();
  FabricConfig config = smallFabricConfig(root, 2);
  config.leaseSeconds = 0.3;
  config.heartbeatSeconds = 0.05;

  HazardFabric fabric(config);
  FabricJobHandle job = fabric.submit(smallWaveSpec(400));  // long-running
  fabric.killBroker(0);
  fabric.killBroker(1);
  fabric.drain();
  EXPECT_EQ(job->wait(), sched::JobPhase::Failed);
  EXPECT_FALSE(job->error.empty());
  // New submissions are refused outright.
  FabricJobHandle refused = fabric.submit(smallWaveSpec(16));
  EXPECT_EQ(refused->wait(), sched::JobPhase::Failed);
  fabric.shutdown();
}

}  // namespace
}  // namespace awp::fabric
