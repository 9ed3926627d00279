#include "fabric/broker.hpp"

#include <chrono>
#include <filesystem>
#include <utility>

#include "fault/injector.hpp"
#include "io/checkpoint.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/retry.hpp"

namespace awp::fabric {

namespace fs = std::filesystem;

// Backoff before the second forward attempt (util/retry doubles it).
constexpr double kForwardBaseDelaySeconds = 0.002;

const char* toString(BrokerState state) {
  switch (state) {
    case BrokerState::Active:
      return "active";
    case BrokerState::Degraded:
      return "degraded";
    case BrokerState::Dead:
      return "dead";
  }
  return "unknown";
}

Broker::Broker(BrokerConfig config, const HashRing* ring,
               FabricTransport* transport, SubmissionLog* log,
               const Stopwatch* clock, SettleFn settle, EventFn event)
    : config_(std::move(config)),
      ring_(ring),
      transport_(transport),
      log_(log),
      clock_(clock),
      settle_(std::move(settle)),
      event_(std::move(event)) {
  // A settle wakes the pump so reapCompletions runs now, not next tick.
  // The hook runs on the service's workers; the transport (and with it
  // the doorbell) outlives this broker and its service.
  config_.service.onSettle = [transport, id = config_.id] {
    transport->ring(id);
  };
  service_ = std::make_unique<sched::ScenarioService>(config_.service);
  // Until the first view fetch, route as if everyone is live — the board
  // starts that way, so the optimistic snapshot can only be wrong in the
  // direction the first heartbeat corrects.
  lastView_.epoch = 0;
  for (int b = 0; b < ring_->nbrokers(); ++b)
    lastView_.liveMask |= 1u << static_cast<std::uint32_t>(b);
}

Broker::~Broker() { stop(); }

void Broker::start() {
  if (pump_.joinable()) return;
  stopFlag_.store(false, std::memory_order_relaxed);
  pump_ = std::thread([this] { pumpLoop(); });
}

void Broker::stop() {
  stopFlag_.store(true, std::memory_order_relaxed);
  transport_->ring(config_.id);
  if (pump_.joinable()) pump_.join();
  // After a fail-stop the service was already aborted; shutdown is
  // idempotent either way.
  service_->shutdown();
}

void Broker::pumpLoop() {
  if (config_.pumpTelemetrySlot >= 0) {
    // Claim the pump's dedicated span lane (slot = base + rank 0). The
    // fault thread-rank tag is only a telemetry slot selector here: every
    // fabric fault site passes its broker id explicitly.
    fault::setThreadRank(0);
    telemetry::setThreadSlotBase(config_.pumpTelemetrySlot);
    telemetry::resetThreadSpans();
  }
  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config_.pumpIntervalSeconds));
  auto nextTick = Clock::now();
  while (!stopFlag_.load(std::memory_order_relaxed)) {
    // A ring that lands after the deadline still gets the full tick,
    // which does the event work too: a busy inbox never starves the timer.
    if (transport_->waitDoorbell(config_.id, nextTick) &&
        Clock::now() < nextTick) {
      if (stopFlag_.load(std::memory_order_relaxed)) return;
      routeAndSettle();
    } else {
      pumpOnce();
      nextTick = Clock::now() + interval;
    }
    if (state() == BrokerState::Dead) return;
  }
}

void Broker::pumpOnce() {
  if (state() == BrokerState::Dead) return;
  // The death is consulted only on ticks with local work in flight, so
  // "Nth tick" means N ticks into this broker's own work, however fast
  // that work runs.
  if (fault::injectionEnabled() && hasWorkInFlight()) {
    if (auto act = fault::activeInjector()->check("broker_death", config_.id);
        act && act->kind == fault::FaultKind::RankDeath) {
      die("broker_death injected at pump tick");
      return;
    }
  }
  const double now = clock_->seconds();
  if (now >= nextHeartbeat_) {
    heartbeat(now);
    nextHeartbeat_ = now + config_.heartbeatSeconds;
  }
  routeAndSettle();
  ++pumpTicks_;
  if (config_.reconcile && config_.reconcileEveryTicks > 0 &&
      pumpTicks_ % static_cast<std::uint64_t>(config_.reconcileEveryTicks) ==
          0)
    config_.reconcile();
}

bool Broker::hasWorkInFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [digest, job] : tracked_)
    if (!job->done()) return true;
  return false;
}

void Broker::routeAndSettle() {
  if (state() == BrokerState::Dead) return;
  drainInbox();
  reapCompletions();
  if (state() == BrokerState::Active) flushDeferred();
}

void Broker::heartbeat(double now) {
  // awplint: manual-span(span emission is gated on owning a dedicated pump lane; an unconditional ScopedSpan would multi-write the shared off-rank slot from concurrent broker pumps)
  telemetry::ManualSpan span;
  if (config_.pumpTelemetrySlot >= 0)
    span.begin(telemetry::Phase::FabricHeartbeat);

  // One renewal attempt per heartbeat — a drop IS a missed renewal, so
  // retrying inside the beat would hide exactly what the degraded-mode
  // ladder is counting. The single-attempt retryCall still lands the
  // per-site attempt/failure stats in the process registry.
  util::RetryPolicy once;
  once.maxAttempts = 1;
  auto outcome = FabricTransport::RenewOutcome::Dropped;
  try {
    util::retryCall(once, "fabric.lease.renew", [&] {
      outcome = transport_->renewLease(config_.id, now);
      if (outcome == FabricTransport::RenewOutcome::Dropped)
        throw TransientError("fabric: lease renewal dropped");
    });
  } catch (const TransientError&) {
  }

  switch (outcome) {
    case FabricTransport::RenewOutcome::Ok:
      missedRenewals_ = 0;
      if (state() == BrokerState::Degraded)
        becomeActive("lease renewed before lapse");
      break;
    case FabricTransport::RenewOutcome::Lapsed:
      // Evicted from the view: the only way back is a rejoin RPC (which
      // bumps the epoch so everyone re-runs ownership).
      if (transport_->rejoin(config_.id, now)) {
        missedRenewals_ = 0;
        becomeActive("rejoined membership after lapse");
      } else {
        ++missedRenewals_;
        if (state() == BrokerState::Active &&
            missedRenewals_ >= config_.degradedAfterMisses)
          enterDegraded("rejoin RPC lost");
      }
      break;
    case FabricTransport::RenewOutcome::Dropped:
      ++missedRenewals_;
      if (state() == BrokerState::Active &&
          missedRenewals_ >= config_.degradedAfterMisses)
        enterDegraded(std::to_string(missedRenewals_) +
                      " consecutive lease renewals lost");
      break;
  }

  if (auto view = transport_->fetchView(config_.id, now); view.has_value()) {
    std::uint64_t adopted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      adopted = lastView_.epoch;
    }
    if (view->epoch != adopted) adoptView(*view);
  }
  span.end();
}

void Broker::adoptView(const MembershipView& view) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    lastView_ = view;
  }
  viewChanges_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count(telemetry::Counter::FabricViewChanges);
  event_(config_.id, "adopted view epoch " + std::to_string(view.epoch) +
                         " (" + std::to_string(view.liveCount()) +
                         " live)");
  if (state() != BrokerState::Active) return;

  // Replay: every incomplete submission-log record this broker owns under
  // the new view and is not already running. Records that were forwarded
  // to (or queued on) a broker that vanished re-run here; duplicates from
  // a still-racing forward are absorbed by the tracked/digest dedup.
  for (const LogRecord& rec : log_->incompleteRecords()) {
    if (ring_->ownerOf(HashRing::pointFor(rec.digest), view.liveMask) !=
        config_.id)
      continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (tracked_.count(rec.digest) != 0) continue;
    }
    replays_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::FabricReplays);
    if (seedJobDirFromPeers(rec)) {
      handoffs_.fetch_add(1, std::memory_order_relaxed);
      telemetry::count(telemetry::Counter::FabricHandoffs);
      event_(config_.id,
             "handoff: adopted checkpoint tier for " + rec.digest);
    }
    submitLocal(std::make_shared<const sched::ScenarioSpec>(rec.spec),
                rec.digest);
  }
}

void Broker::drainInbox() {
  FabricMessage m;
  while (transport_->poll(config_.id, m)) {
    handleMessage(m);
    m = FabricMessage{};
  }
}

void Broker::handleMessage(const FabricMessage& m) {
  if (state() == BrokerState::Dead || m.spec == nullptr) return;
  const std::string digest = m.digestStr();
  if (log_->isCompleted(digest)) {
    // At-least-once forwarding delivered a digest that already finished
    // somewhere: the fabric has (or will get) the settle; absorb.
    dedupHits_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::FabricDedupHits);
    return;
  }
  if (state() == BrokerState::Degraded) {
    defer(m.spec, digest, /*degradedHold=*/true);
    return;
  }
  route(m.spec, digest, /*fromPump=*/true);
}

void Broker::reapCompletions() {
  std::vector<std::pair<std::string, sched::JobHandle>> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = tracked_.begin(); it != tracked_.end();) {
      if (it->second->done()) {
        done.emplace_back(it->first, it->second);
        it = tracked_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [digest, job] : done) {
    sched::JobPhase phase;
    sched::ScenarioProducts products;
    std::string error;
    {
      std::lock_guard<std::mutex> lock(job->mutex);
      phase = job->phase;
      // The fabric job keeps the products; the service's row needs only
      // completedSteps, which a move leaves in place.
      products = std::move(job->products);
      error = job->error;
    }
    if (phase == sched::JobPhase::Completed) {
      log_->markCompleted(digest);
      settle_(config_.id, digest, phase, std::move(products), "");
    } else if (!service_->aborted() && state() != BrokerState::Dead) {
      // A genuine local failure (retry budget exhausted, rejection).
      // Abort-path failures are NOT settled: the record stays incomplete
      // in the log and the next view's owner replays it.
      settle_(config_.id, digest, phase, {}, error);
    }
  }
}

void Broker::flushDeferred() {
  std::vector<Parked> work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    work.swap(deferred_);
  }
  for (Parked& p : work) route(p.spec, p.digest, /*fromPump=*/true);
}

Broker::Accept Broker::submitClient(
    const std::shared_ptr<const sched::ScenarioSpec>& spec,
    const std::string& digest) {
  switch (state()) {
    case BrokerState::Dead:
      return Accept::Dead;
    case BrokerState::Degraded:
      // Degraded mode still serves completed work from the shared cache
      // tier; everything else is parked for re-forward after rejoin. A hit
      // is republished, so read-only serving still feeds the catalog.
      if (auto products = service_->cachedProducts(digest, *spec)) {
        settle_(config_.id, digest, sched::JobPhase::Completed,
                std::move(*products), "");
        return Accept::Owned;
      }
      defer(spec, digest, /*degradedHold=*/true);
      return Accept::Deferred;
    case BrokerState::Active:
      break;
  }
  // Client thread: no spans (only the pump owns this broker's span lane);
  // counters are atomics and stay safe from any thread.
  return route(spec, digest, /*fromPump=*/false);
}

Broker::Accept Broker::route(
    const std::shared_ptr<const sched::ScenarioSpec>& spec,
    const std::string& digest, bool fromPump) {
  // awplint: manual-span(span emission is gated on owning a dedicated pump lane; an unconditional ScopedSpan would multi-write the shared off-rank slot from concurrent broker pumps)
  telemetry::ManualSpan span;
  if (fromPump && config_.pumpTelemetrySlot >= 0)
    span.begin(telemetry::Phase::FabricRoute);
  std::uint32_t liveMask = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    liveMask = lastView_.liveMask;
  }
  const int owner = ring_->ownerOf(HashRing::pointFor(digest), liveMask);
  Accept result;
  if (owner == config_.id) {
    result = submitLocal(spec, digest);
  } else if (owner < 0) {
    defer(spec, digest, /*degradedHold=*/false);
    result = Accept::Deferred;
  } else if (forward(spec, digest, owner, fromPump)) {
    result = Accept::Forwarded;
  } else {
    defer(spec, digest, /*degradedHold=*/false);
    result = Accept::Deferred;
  }
  span.end();
  return result;
}

Broker::Accept Broker::submitLocal(
    const std::shared_ptr<const sched::ScenarioSpec>& spec,
    const std::string& digest) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tracked_.count(digest) != 0) {
      dedupHits_.fetch_add(1, std::memory_order_relaxed);
      telemetry::count(telemetry::Counter::FabricDedupHits);
      return Accept::Owned;
    }
  }
  sched::JobHandle job = service_->submit(*spec);
  std::lock_guard<std::mutex> lock(mu_);
  tracked_[digest] = std::move(job);
  return Accept::Owned;
}

bool Broker::forward(
    const std::shared_ptr<const sched::ScenarioSpec>& spec,
    const std::string& digest, int owner, bool fromPump) {
  // awplint: manual-span(span emission is gated on owning a dedicated pump lane; an unconditional ScopedSpan would multi-write the shared off-rank slot from concurrent broker pumps)
  telemetry::ManualSpan span;
  if (fromPump && config_.pumpTelemetrySlot >= 0)
    span.begin(telemetry::Phase::FabricForward);
  FabricMessage m;
  m.from = config_.id;
  m.spec = spec;
  m.setDigest(digest);
  util::RetryPolicy policy;
  policy.maxAttempts = config_.forwardAttempts;
  policy.baseDelaySeconds = kForwardBaseDelaySeconds;
  policy.maxDelaySeconds = 0.05;
  bool sent = true;
  try {
    util::retryCall(policy, "fabric.forward", [&] {
      if (transport_->send(m, owner) ==
          FabricTransport::SendResult::Dropped)
        throw TransientError("fabric: forward to broker " +
                             std::to_string(owner) + " dropped");
    });
  } catch (const Error&) {
    sent = false;  // retry budget exhausted; caller parks the submission
  }
  if (sent) {
    forwards_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::FabricForwards);
  }
  span.end();
  return sent;
}

void Broker::defer(const std::shared_ptr<const sched::ScenarioSpec>& spec,
                   const std::string& digest, bool degradedHold) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    deferred_.push_back({spec, digest});
  }
  if (degradedHold) {
    degradedHolds_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::FabricDegradedHolds);
  }
}

bool Broker::seedJobDirFromPeers(const LogRecord& rec) {
  if (rec.spec.checkpointEverySteps <= 0) return false;
  // Candidate peers: any other broker whose job dir holds a digest-valid
  // rank-0 generation; prefer the newest (the most progress to keep).
  int best = -1;
  std::uint64_t bestStep = 0;
  for (int b = 0; b < static_cast<int>(config_.peerWorkDirs.size()); ++b) {
    if (b == config_.id || config_.peerWorkDirs[b].empty()) continue;
    const fs::path src = fs::path(config_.peerWorkDirs[b]) /
                         ("job-" + rec.digest) / "ckpt";
    std::error_code ec;
    if (!fs::is_directory(src, ec)) continue;
    const io::CheckpointStore store(src.string());
    if (const auto step = store.newestValidStep(0);
        step.has_value() && (best < 0 || *step > bestStep)) {
      best = b;
      bestStep = *step;
    }
  }
  if (best < 0) return false;

  const fs::path srcJob =
      fs::path(config_.peerWorkDirs[best]) / ("job-" + rec.digest);
  const fs::path dstJob = service_->jobDirFor(rec.digest);
  std::error_code ec;
  fs::create_directories(dstJob / "ckpt", ec);
  // Surface first (a rupture job has none: its whole state is in the
  // checkpoints): a resumed attempt marks the pre-resume sample prefix as
  // already persisted, so the prefix must actually be on disk before any
  // checkpoint is adopted. No surface copy -> no checkpoint adoption -> a
  // fresh (still bit-identical) run that rewrites everything.
  if (fs::exists(srcJob / "surface.bin", ec) &&
      (!fs::copy_file(srcJob / "surface.bin", dstJob / "surface.bin",
                      fs::copy_options::overwrite_existing, ec) ||
       ec))
    return false;
  io::CheckpointStore srcStore((srcJob / "ckpt").string());
  io::CheckpointStore dstStore((dstJob / "ckpt").string());
  bool adopted = false;
  for (int r = 0; r < rec.spec.nranks; ++r)
    adopted = dstStore.adoptNewestFrom(srcStore, r).has_value() || adopted;
  return adopted;
}

void Broker::kill(const std::string& why) { die("operator kill: " + why); }

void Broker::die(const std::string& why) {
  if (state_.exchange(BrokerState::Dead, std::memory_order_acq_rel) ==
      BrokerState::Dead)
    return;
  event_(config_.id, "fail-stop: " + why);
  // Fail-fast local abort. The lease is simply never renewed again: peers
  // learn of the death from the membership view, exactly as they would
  // for a real crashed process.
  service_->abort(why);
  std::lock_guard<std::mutex> lock(mu_);
  tracked_.clear();
  deferred_.clear();
}

void Broker::enterDegraded(const std::string& why) {
  auto expected = BrokerState::Active;
  if (state_.compare_exchange_strong(expected, BrokerState::Degraded,
                                     std::memory_order_acq_rel))
    event_(config_.id, "degraded: " + why);
}

void Broker::becomeActive(const std::string& why) {
  auto expected = BrokerState::Degraded;
  if (state_.compare_exchange_strong(expected, BrokerState::Active,
                                     std::memory_order_acq_rel))
    event_(config_.id, "active again: " + why);
}

Broker::Counters Broker::counters() const {
  Counters c;
  c.forwards = forwards_.load(std::memory_order_relaxed);
  c.replays = replays_.load(std::memory_order_relaxed);
  c.handoffs = handoffs_.load(std::memory_order_relaxed);
  c.viewChanges = viewChanges_.load(std::memory_order_relaxed);
  c.degradedHolds = degradedHolds_.load(std::memory_order_relaxed);
  c.dedupHits = dedupHits_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace awp::fabric
