#include "fabric/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "telemetry/registry.hpp"
#include "util/error.hpp"

namespace awp::fabric {

namespace fs = std::filesystem;

// Messages each broker's transport inbox holds before sends are dropped.
constexpr std::size_t kInboxCapacity = 256;

sched::JobPhase FabricJob::wait() {
  std::unique_lock<std::mutex> lock(mu);
  settledCv.wait(lock, [&] { return settled; });
  return phase;
}

bool FabricJob::done() const {
  std::lock_guard<std::mutex> lock(mu);
  return settled;
}

HazardFabric::HazardFabric(FabricConfig config) : config_(std::move(config)) {
  AWP_CHECK_MSG(config_.brokers >= 1 && config_.brokers <= 32,
                "fabric: broker count outside [1, 32]");
  if (config_.rootDir.empty())
    config_.rootDir = (fs::temp_directory_path() / "awp-fabric").string();
  fs::create_directories(fs::path(config_.rootDir) / "cache");

  // One ProductServer whose tile chunks dedupe against each other in
  // memory. The tile index was never persistent, so a chunk file could not
  // be found again; tiles are rebuilt from pgvh.bin.
  server_ = std::make_unique<serve::ProductServer>(config_.serve);

  board_ = std::make_unique<LeaseBoard>(config_.brokers,
                                        config_.leaseSeconds);
  ring_ = std::make_unique<HashRing>(config_.brokers, config_.vnodes);
  transport_ = std::make_unique<FabricTransport>(
      config_.brokers, board_.get(), kInboxCapacity);
  log_ = std::make_unique<SubmissionLog>();

  const int coreBudget = std::max(1, config_.service.coreBudget);
  const int totalCores = config_.brokers * coreBudget;
  if (config_.telemetry && telemetry::activeSession() == nullptr) {
    // One session for the whole fabric: [0, totalCores) rank lanes in
    // per-broker blocks, then a dispatcher lane and a pump lane per
    // broker — every span writer gets a dedicated single-writer slot.
    telemetry::SessionConfig sc;
    sc.nranks = totalCores + 2 * config_.brokers;
    ownedSession_ = std::make_unique<telemetry::Session>(sc);
    telemetry::installSession(ownedSession_.get());
  }

  std::vector<std::string> workDirs;
  workDirs.reserve(static_cast<std::size_t>(config_.brokers));
  for (int i = 0; i < config_.brokers; ++i)
    workDirs.push_back(
        (fs::path(config_.rootDir) / ("broker-" + std::to_string(i)))
            .string());

  auto settle = [this](int broker, const std::string& digest,
                       sched::JobPhase phase,
                       sched::ScenarioProducts products,
                       const std::string& error) {
    settleJob(broker, digest, std::move(products), phase, error);
  };
  auto event = [this](int broker, const std::string& what) {
    recordEvent(broker, what);
  };

  for (int i = 0; i < config_.brokers; ++i) {
    BrokerConfig bc;
    bc.id = i;
    bc.heartbeatSeconds = config_.heartbeatSeconds;
    bc.degradedAfterMisses = config_.degradedAfterMisses;
    bc.pumpIntervalSeconds = config_.pumpIntervalSeconds;
    bc.forwardAttempts = config_.forwardAttempts;
    bc.peerWorkDirs = workDirs;
    bc.service = config_.service;
    bc.service.cacheDir =
        (fs::path(config_.rootDir) / "cache").string();
    bc.service.workDir = workDirs[static_cast<std::size_t>(i)];
    bc.service.publisher = server_.get();
    bc.service.publishOriginId = i;
    bc.reconcile = [this] { server_->reconcile(); };
    bc.reconcileEveryTicks = config_.serve.reconcileEveryTicks;
    bc.service.telemetrySlotBase = i * coreBudget;
    if (ownedSession_ != nullptr) {
      bc.service.dispatcherTelemetrySlot = totalCores + i;
      bc.pumpTelemetrySlot = totalCores + config_.brokers + i;
    }
    brokers_.push_back(std::make_unique<Broker>(
        bc, ring_.get(), transport_.get(), log_.get(), &clock_, settle,
        event));
  }
  for (auto& b : brokers_) b->start();
}

HazardFabric::~HazardFabric() { shutdown(); }

FabricJobHandle HazardFabric::submit(sched::ScenarioSpec spec) {
  const std::string digest = spec.hashHex();
  FabricJobHandle job;
  {
    std::lock_guard<std::mutex> lock(jobsMu_);
    auto it = jobs_.find(digest);
    if (it != jobs_.end()) {
      std::lock_guard<std::mutex> jobLock(it->second->mu);
      ++it->second->submissions;
      return it->second;
    }
    job = std::make_shared<FabricJob>();
    job->spec = spec;
    job->digest = digest;
    job->submissions = 1;
    jobs_[digest] = job;
  }

  // Entry broker: round-robin over the non-dead brokers. The log append
  // happens BEFORE any routing, so nothing downstream can lose the
  // scenario — worst case it waits for a view change and replays.
  int entry = -1;
  {
    std::lock_guard<std::mutex> lock(jobsMu_);
    for (int tries = 0; tries < config_.brokers; ++tries) {
      const int candidate =
          static_cast<int>(nextEntry_++ % static_cast<std::uint64_t>(
                                              config_.brokers));
      if (brokers_[static_cast<std::size_t>(candidate)]->state() !=
          BrokerState::Dead) {
        entry = candidate;
        break;
      }
    }
  }
  if (entry < 0) {
    settleJob(-1, digest, {}, sched::JobPhase::Failed,
              "no live brokers to accept the submission");
    return job;
  }
  log_->append(spec, digest, entry);
  auto shared = std::make_shared<const sched::ScenarioSpec>(std::move(spec));
  brokers_[static_cast<std::size_t>(entry)]->submitClient(shared, digest);
  return job;
}

void HazardFabric::settleJob(int broker, const std::string& digest,
                             sched::ScenarioProducts products,
                             sched::JobPhase phase,
                             const std::string& error) {
  (void)broker;
  bool accepted = false;
  {
    // The handle settles and is counted under one jobsMu_ hold, so a
    // drain() that sees every handle settled sees every one counted.
    std::lock_guard<std::mutex> lock(jobsMu_);
    auto it = jobs_.find(digest);
    if (it == jobs_.end()) return;
    FabricJob& job = *it->second;
    std::lock_guard<std::mutex> jobLock(job.mu);
    if (!job.settled) {
      job.settled = true;
      job.phase = phase;
      job.products = std::move(products);
      job.error = error;
      job.completions = 1;
      accepted = true;
      if (phase == sched::JobPhase::Completed)
        ++completed_;
      else
        ++failed_;
    }
    job.settledCv.notify_all();
  }
  if (!accepted) {
    // Two brokers raced the same digest to completion (at-least-once
    // replay doing its job); the duplicate settle is absorbed here.
    telemetry::count(telemetry::Counter::FabricDedupHits);
    return;
  }
  settleCv_.notify_all();
}

void HazardFabric::settleRemainingLocked(const std::string& why) {
  for (auto& [digest, job] : jobs_) {
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->settled) continue;
    job->settled = true;
    job->phase = sched::JobPhase::Failed;
    job->error = why;
    job->completions = 1;
    ++failed_;
    job->settledCv.notify_all();
  }
}

void HazardFabric::drain() {
  std::unique_lock<std::mutex> lock(jobsMu_);
  for (;;) {
    bool allSettled = true;
    for (auto& [digest, job] : jobs_) {
      if (!job->done()) {
        allSettled = false;
        break;
      }
    }
    if (allSettled) return;
    bool anyAlive = false;
    for (auto& b : brokers_)
      if (b->state() != BrokerState::Dead) anyAlive = true;
    if (!anyAlive) {
      settleRemainingLocked("every broker fail-stopped");
      return;
    }
    settleCv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

void HazardFabric::shutdown() {
  {
    std::lock_guard<std::mutex> lock(jobsMu_);
    if (shutdownDone_) return;
    shutdownDone_ = true;
  }
  for (auto& b : brokers_) b->stop();
  {
    std::lock_guard<std::mutex> lock(jobsMu_);
    settleRemainingLocked("fabric shutdown");
  }
  if (ownedSession_ != nullptr) telemetry::installSession(nullptr);
}

bool HazardFabric::waitAll(const std::vector<FabricJobHandle>& handles) {
  bool allCompleted = true;
  for (const auto& handle : handles) {
    if (!handle) {
      allCompleted = false;
      continue;
    }
    if (handle->wait() != sched::JobPhase::Completed) allCompleted = false;
  }
  return allCompleted;
}

void HazardFabric::killBroker(int id) {
  AWP_CHECK_MSG(id >= 0 && id < config_.brokers,
                "fabric: broker id out of range");
  brokers_[static_cast<std::size_t>(id)]->kill("chaos killBroker");
}

BrokerState HazardFabric::brokerState(int id) const {
  AWP_CHECK_MSG(id >= 0 && id < config_.brokers,
                "fabric: broker id out of range");
  return brokers_[static_cast<std::size_t>(id)]->state();
}

MembershipView HazardFabric::currentView() {
  return board_->view(clock_.seconds());
}

FabricReport HazardFabric::report() const {
  FabricReport r;
  const MembershipView view = board_->view(clock_.seconds());
  r.viewEpoch = view.epoch;
  r.liveBrokers = view.liveCount();
  {
    std::lock_guard<std::mutex> lock(jobsMu_);
    r.submitted = jobs_.size();
    r.completed = completed_;
    r.failed = failed_;
  }
  for (const auto& b : brokers_) {
    const Broker::Counters c = b->counters();
    r.counters.forwards += c.forwards;
    r.counters.replays += c.replays;
    r.counters.handoffs += c.handoffs;
    r.counters.viewChanges += c.viewChanges;
    r.counters.degradedHolds += c.degradedHolds;
    r.counters.dedupHits += c.dedupHits;
    r.brokers.push_back(b->serviceReport());
  }
  r.transport = transport_->stats();
  r.log = log_->stats();
  r.retrySites = util::retryRegistrySnapshot();
  return r;
}

std::vector<std::string> HazardFabric::events() const {
  std::lock_guard<std::mutex> lock(eventsMu_);
  return events_;
}

void HazardFabric::recordEvent(int broker, const std::string& what) {
  std::string line = "broker " + std::to_string(broker) + ": " + what;
  std::lock_guard<std::mutex> lock(eventsMu_);
  events_.push_back(std::move(line));
}

}  // namespace awp::fabric
