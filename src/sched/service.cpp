#include "sched/service.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>

#include "core/solver.hpp"
#include "core/source.hpp"
#include "core/surface_layout.hpp"
#include "fault/injector.hpp"
#include "health/preflight.hpp"
#include "io/buddy.hpp"
#include "io/checkpoint.hpp"
#include "io/shared_file.hpp"
#include "mesh/partitioner.hpp"
#include "rupture/solver.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/hot.hpp"
#include "vcluster/cart.hpp"
#include "vcluster/respawn.hpp"
#include "vmodel/cvm.hpp"

namespace awp::sched {

namespace fs = std::filesystem;

namespace {

// Collective cancel-poll cadence, in steps.
constexpr std::size_t kCancelCheckEverySteps = 2;
// dt scale applied on a fatal-verdict requeue.
constexpr double kRetryDtTighten = 0.5;

std::string productKey(const std::string& specHash) {
  return "prod:" + specHash;
}

// Horizontal peak ground velocity per surface-file record position: the
// layout's PGV-H fold over every sample record. Derived from the
// surface.bin BYTES (not from in-memory accumulators) so it is exactly
// reproducible from the canonical product alone — the property the
// bit-identity tests pin.
std::vector<std::byte> derivePgvh(const std::vector<std::byte>& surface,
                                  const core::SurfaceLayout& layout) {
  const std::size_t stepBytes = layout.stepFloats() * sizeof(float);
  if (surface.size() % stepBytes != 0)
    throw Error("sched: surface product size is not a whole sample count");
  std::vector<float> record(layout.stepFloats());
  std::vector<float> pgvh(record.size() / 3, 0.0f);
  for (std::size_t at = 0; at < surface.size(); at += stepBytes) {
    std::memcpy(record.data(), surface.data() + at, stepBytes);
    layout.foldPgvh(record.data(), pgvh.data());
  }
  std::vector<std::byte> bytes(pgvh.size() * sizeof(float));
  std::memcpy(bytes.data(), pgvh.data(), bytes.size());
  return bytes;
}

// The wave kind's solver: the spec's domain over the socal CVM (each rank
// samples its own block) or a uniform background, with an isotropic Ricker
// pulse at the centre.
std::unique_ptr<core::WaveSolver> buildWaveSolver(
    vcluster::Communicator& comm, const vcluster::CartTopology& topo,
    core::SolverConfig config, const ScenarioSpec& spec) {
  config.globalDims = spec.dims;
  config.h = spec.h;
  config.absorbing = core::AbsorbingType::Sponge;
  config.spongeWidth = spec.spongeWidth;

  std::unique_ptr<core::WaveSolver> solver;
  if (spec.useCvm) {
    const double lx = static_cast<double>(spec.dims.nx) * spec.h;
    const double ly = static_cast<double>(spec.dims.ny) * spec.h;
    const auto cvm =
        vmodel::CommunityVelocityModel::socal(lx, ly, 0.55 * ly);
    const mesh::MeshSpec mspec{spec.dims.nx, spec.dims.ny, spec.dims.nz,
                               spec.h, 0.0, 0.0};
    solver = std::make_unique<core::WaveSolver>(
        comm, topo, config,
        mesh::sampleBlock(cvm, mspec,
                          mesh::subdomainFor(topo, mspec, comm.rank())));
  } else {
    const vmodel::Material uniform{6000.0f, 3464.0f, 2700.0f};
    solver = std::make_unique<core::WaveSolver>(comm, topo, config, uniform);
  }

  // The wavelet is sampled at the EFFECTIVE dt (CFL-derived or the retry's
  // tightened override), which every rank agrees on.
  const double dt = solver->dt();
  const double f0 =
      spec.sourceFreqHz > 0.0 ? spec.sourceFreqHz : 1.0 / (20.0 * dt);
  solver->addSource(core::explosionPointSource(
      spec.dims.nx / 2, spec.dims.ny / 2, spec.dims.nz / 2,
      core::rickerWavelet(f0, 1.5 / f0, dt, spec.steps,
                          spec.sourceAmplitude)));
  return solver;
}

}  // namespace

const char* toString(JobPhase phase) {
  switch (phase) {
    case JobPhase::Queued: return "queued";
    case JobPhase::Running: return "running";
    case JobPhase::Completed: return "completed";
    case JobPhase::Failed: return "failed";
    case JobPhase::Rejected: return "rejected";
  }
  return "?";
}

const char* toString(RequeueCause cause) {
  switch (cause) {
    case RequeueCause::None: return "none";
    case RequeueCause::WorkerCrash: return "worker-crash";
    case RequeueCause::Stall: return "stall";
    case RequeueCause::FatalVerdict: return "fatal-verdict";
    case RequeueCause::Aborted: return "aborted";
  }
  return "?";
}

ScenarioService::ScenarioService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cacheDir),
      queue_(config_.queueCapacity),
      coreBusy_(static_cast<std::size_t>(std::max(1, config_.coreBudget)),
                0) {
  AWP_CHECK_MSG(config_.coreBudget >= 1, "sched: core budget must be >= 1");
  AWP_CHECK_MSG(config_.stallTimeoutSeconds > 0.0,
                "sched: stall timeout must be > 0");
  if (config_.workDir.empty())
    config_.workDir = (fs::temp_directory_path() / "awp-sched").string();
  fs::create_directories(config_.workDir);
  dispatcher_ = std::thread([this] { dispatcherLoop(); });
}

ScenarioService::~ScenarioService() { shutdown(); }

std::string ScenarioService::jobDirFor(const std::string& hash) const {
  return (fs::path(config_.workDir) / ("job-" + hash)).string();
}

JobHandle ScenarioService::submit(ScenarioSpec spec) {
  AWP_CHECK_MSG(spec.nranks >= 1 && spec.nranks <= config_.coreBudget,
                "sched: spec.nranks outside [1, coreBudget]");
  auto job = std::make_shared<JobState>();
  job->spec = std::move(spec);
  job->hash = job->spec.hashHex();
  job->submitSeq = submitSeq_.fetch_add(1, std::memory_order_relaxed);
  job->submitSeconds = epoch_.seconds();
  telemetry::count(telemetry::Counter::ScenariosSubmitted);

  // Memoized completed work: served without touching the queue. The job
  // is published into allJobs_ only after cacheHit/coalesced are final,
  // so report() never observes a half-initialized row (jobsMu_ release /
  // acquire orders every plain write made here before the publication).
  if (auto products = cachedProducts(job->hash, job->spec)) {
    job->cacheHit = true;
    {
      std::lock_guard<std::mutex> lock(jobsMu_);
      allJobs_.push_back(job);
    }
    settleTerminal(job, JobPhase::Completed, "", std::move(*products),
                   /*countedPrimary=*/false);
    return job;
  }

  // Coalesce onto an identical in-flight spec, or register as primary.
  {
    std::lock_guard<std::mutex> lock(jobsMu_);
    auto it = primaryByHash_.find(job->hash);
    if (it != primaryByHash_.end()) {
      job->coalesced = true;
      followersByHash_[job->hash].push_back(job);
      allJobs_.push_back(job);
      ++outstanding_;
      return job;
    }
    primaryByHash_[job->hash] = job;
    allJobs_.push_back(job);
    ++outstanding_;
  }

  const auto result = queue_.push(job);
  if (result != AdmissionQueue::PushResult::Admitted) {
    telemetry::count(telemetry::Counter::ScenariosRejected);
    const char* why = result == AdmissionQueue::PushResult::Closed
                          ? "service closed"
                          : "admission queue full";
    settleTerminal(job, JobPhase::Rejected, why, {}, /*countedPrimary=*/true);
    return job;
  }
  {
    std::lock_guard<std::mutex> lock(dispatchMu_);
    signal_ = true;
  }
  dispatchCv_.notify_all();
  return job;
}

AWP_HOT bool ScenarioService::dispatchNext(Dispatch& out) {
  telemetry::ScopedSpan span(telemetry::Phase::SchedQueue);
  int freeCores = 0;
  for (std::size_t i = 0; i < coreBusy_.size(); ++i)
    if (coreBusy_[i] == 0) ++freeCores;
  JobHandle job = queue_.popFit(freeCores);
  if (job == nullptr) return false;
  // Contiguous first-fit core range (slot = base + rank needs a run).
  const int need = job->spec.nranks;
  int base = -1;
  int run = 0;
  for (std::size_t i = 0; i < coreBusy_.size(); ++i) {
    if (coreBusy_[i] != 0) {
      run = 0;
      continue;
    }
    ++run;
    if (run == need) {
      base = static_cast<int>(i) - need + 1;
      break;
    }
  }
  if (base < 0) {
    // Enough cores but fragmented: put the job back, retry on release.
    queue_.pushRequeue(std::move(job));
    return false;
  }
  for (int i = 0; i < need; ++i)
    coreBusy_[static_cast<std::size_t>(base + i)] = 1;
  out.job = std::move(job);
  out.coreBase = base;
  return true;
}

void ScenarioService::dispatcherLoop() {
  if (config_.dispatcherTelemetrySlot >= 0) {
    // Claim a private span lane: several services sharing one session
    // (the hazard fabric's brokers) must not interleave single-writer
    // span state on the off-rank slot.
    fault::setThreadRank(0);
    telemetry::setThreadSlotBase(config_.dispatcherTelemetrySlot);
    telemetry::resetThreadSpans();
  }
  std::unique_lock<std::mutex> lock(dispatchMu_);
  for (;;) {
    dispatchCv_.wait(lock, [&] { return signal_; });
    signal_ = false;
    for (;;) {
      Dispatch d;
      if (!dispatchNext(d)) break;
      ++activeWorkers_;
      {
        telemetry::ScopedSpan span(telemetry::Phase::SchedDispatch);
        lock.unlock();
        std::thread([this, d = std::move(d)]() mutable {
          workerMain(std::move(d));
        }).detach();
        lock.lock();
      }
    }
    if (stopping_ && activeWorkers_ == 0 && queue_.empty()) return;
  }
}

void ScenarioService::workerMain(Dispatch d) {
  if (aborting_.load(std::memory_order_relaxed)) {
    // Dispatched after (or racing) an abort: never start the attempt.
    settleTerminal(d.job, JobPhase::Failed, "service aborted", {},
                   /*countedPrimary=*/true);
    {
      std::lock_guard<std::mutex> lock(dispatchMu_);
      for (int i = 0; i < d.job->spec.nranks; ++i)
        coreBusy_[static_cast<std::size_t>(d.coreBase + i)] = 0;
      --activeWorkers_;
      signal_ = true;
      // Workers are detached: notify under the mutex so the dispatcher
      // (and the destructor behind it) cannot observe activeWorkers_==0,
      // exit, and destroy the condvar while this broadcast is in flight.
      dispatchCv_.notify_all();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(d.job->mutex);
    d.job->phase = JobPhase::Running;
    ++d.job->attempts;
    if (d.job->startSeconds <= 0.0) d.job->startSeconds = epoch_.seconds();
  }
  executedAttempts_.fetch_add(1, std::memory_order_relaxed);
  try {
    ScenarioProducts products = attempt(*d.job, d.coreBase);
    cache_.put(productKey(d.job->hash), products.serialize());
    publishCompleted(d.job->hash, d.job->spec, products);
    settleTerminal(d.job, JobPhase::Completed, "", std::move(products),
                   /*countedPrimary=*/true);
  } catch (const CancelledError& e) {
    maybeRequeue(d.job, e.cause(), e.step(), e.what());
  } catch (const vcluster::RespawnExhaustedError& e) {
    // Ladder rung 2: the in-place respawn budget is spent. Fall back to
    // the legacy cancel-and-requeue path with the loss's attribution.
    {
      std::lock_guard<std::mutex> lock(d.job->mutex);
      ++d.job->respawnEscalations;
    }
    telemetry::count(telemetry::Counter::RespawnEscalations);
    maybeRequeue(d.job,
                 e.cause() == "stall" ? RequeueCause::Stall
                                      : RequeueCause::WorkerCrash,
                 d.job->lastStep.load(std::memory_order_relaxed), e.what());
  } catch (const health::PreflightError& e) {
    // The inputs themselves are rejected: every retry would meet the same
    // verdict, so the job fails on this attempt.
    settleTerminal(d.job, JobPhase::Failed, e.what(), {},
                   /*countedPrimary=*/true);
  } catch (const Error& e) {
    // A health-guard abort (rollback budget exhausted) surfaces here as a
    // collective Error: requeue with a tightened dt.
    maybeRequeue(d.job, RequeueCause::FatalVerdict,
                 d.job->lastStep.load(std::memory_order_relaxed), e.what());
  } catch (const std::exception& e) {
    settleTerminal(d.job, JobPhase::Failed, e.what(), {},
                   /*countedPrimary=*/true);
  }
  {
    std::lock_guard<std::mutex> lock(dispatchMu_);
    for (int i = 0; i < d.job->spec.nranks; ++i)
      coreBusy_[static_cast<std::size_t>(d.coreBase + i)] = 0;
    --activeWorkers_;
    signal_ = true;
    // Detached-thread epilogue: see the abort branch above — the notify
    // must complete before the dispatcher can see activeWorkers_==0.
    dispatchCv_.notify_all();
  }
}

ScenarioProducts ScenarioService::attempt(JobState& job, int coreBase) {
  const ScenarioSpec& spec = job.spec;
  const std::string jobDir = jobDirFor(job.hash);
  fs::create_directories(fs::path(jobDir) / "ckpt");
  // The two kinds share this whole attempt (ladder, watchdog, health guard,
  // checkpoints, resume agreement); they differ only in how the solver is
  // built and in the products.
  const bool isRupture = spec.kind == ScenarioKind::Rupture;
  const rupture::RuptureConfig ruptureConfig =
      isRupture ? spec.ruptureConfig() : rupture::RuptureConfig{};
  const grid::GridDims dims = isRupture ? ruptureConfig.globalDims : spec.dims;

  // Recovery ladder: every attempt runs under a SupervisedCluster, a
  // dead/stalled rank is respawned in place while the budget lasts, and
  // the replacement restores disklessly from its ring buddy's in-memory
  // blob (disk checkpoints are the fallback). A spent budget (0 included)
  // escalates to cancel-and-requeue. The buddy store is fresh per attempt
  // so a requeued attempt never restores stale state.
  io::BuddyStore buddies(spec.nranks);

  // Quiesce spans bracket a survivor rank's wait at the respawn fence.
  // awplint: manual-span(the wait spans the unwound rank fn's scope; the fenced frame stack is reset before begin)
  std::vector<telemetry::ManualSpan> quiesceSpans(
      static_cast<std::size_t>(spec.nranks));

  vcluster::SupervisorOptions opts;
  opts.respawnBudget = config_.respawnBudget;
  opts.onRespawn = [this, &job, &buddies,
                    coreBase](const vcluster::RespawnEvent& ev) {
    // A dead rank's in-memory blob died with it (this hook runs before
    // the replacement thread exists, so the restore below it cannot see
    // the stale self copy): the replacement restores from the ring
    // buddy's replica, or from disk. A stall respawn loses no memory.
    if (ev.cause == "rank-death") buddies.noteDeath(ev.rank);
    // Stall respawns leave a ZOMBIE incarnation that may still be
    // executing (the wedge is a sleep, not an exit): fence its telemetry
    // slot and drain any in-flight span write before the replacement —
    // spawned after this hook returns — reuses it. Death respawns get
    // the same treatment for uniformity (the drain is instant).
    telemetry::retireSlot(config_.telemetrySlotBase + coreBase + ev.rank);
    {
      std::lock_guard<std::mutex> lock(job.mutex);
      ++job.respawns;
    }
    telemetry::count(telemetry::Counter::RankRespawns);
  };
  opts.onQuiesce = [&quiesceSpans](int rank, bool entering) {
    auto& span = quiesceSpans[static_cast<std::size_t>(rank)];
    if (entering) {
      // The fenced rank's fn just unwound, leaving its frame stack
      // dangling on the slot: reset before opening the quiesce span
      // (close() chases the parent frame pointer).
      telemetry::resetThreadSpans();
      span.begin(telemetry::Phase::RespawnQuiesce);
    } else {
      span.end();
    }
  };
  vcluster::SupervisedCluster cluster(spec.nranks, std::move(opts));

  // Per-attempt heartbeat board + watchdog. A stall episode first asks
  // the supervisor for an in-place respawn (ladder rung 1); only when the
  // budget is spent does it request a collective cancel. Injected stalls
  // are transient, so on the cancel path the wedged rank wakes, reaches
  // the cancel-check allreduce, and every rank unwinds together.
  health::HeartbeatBoard board(spec.nranks);
  // Heartbeats stop when the step loop ends, so the post-run epilogue
  // (gather, product assembly) would eventually look like a stall; the
  // done flag keeps such phantom episodes out of the record.
  std::atomic<bool> attemptDone{false};
  health::Watchdog dog(
      board, config_.stallTimeoutSeconds,
      [this, &job, &attemptDone, &cluster](const health::StallReport& r) {
        if (attemptDone.load(std::memory_order_relaxed)) return;
        recordStall(r);
        if (cluster.requestRespawn(r.rank, "stall")) return;
        job.requestCancel(RequeueCause::Stall);
      },
      config_.watchdogPollSeconds, config_.watchdogMissThreshold);

  io::CheckpointStore checkpoints((fs::path(jobDir) / "ckpt").string());
  const std::string surfacePath =
      (fs::path(jobDir) / "surface.bin").string();
  rupture::FaultHistory history;  // rank 0's gather, rupture kind only
  double dtOverride = 0.0;
  {
    std::lock_guard<std::mutex> lock(job.mutex);
    dtOverride = job.dtOverride;
  }

  // After a respawn the supervisor re-enters the rank function from the
  // top, so the checkpoint agreement below doubles as the collective
  // recovery fence.
  const vcluster::SupervisedCluster::RankFn rankFn =
      [&](vcluster::Communicator& comm) {
        // Concurrent jobs share one telemetry session sized to the core
        // budget: shift this job's ranks onto its lease's slot range, and
        // clear any frame stack a previous (possibly unwound) attempt left
        // on the slot.
        telemetry::setThreadSlotBase(config_.telemetrySlotBase + coreBase);
        telemetry::resetThreadSpans();

        const auto cart = vcluster::CartTopology::balancedDims(
            spec.nranks, dims.nx, dims.ny, dims.nz);
        vcluster::CartTopology topo(cart);

        core::SolverConfig config;
        config.dt = dtOverride > 0.0 ? dtOverride : 0.0;
        config.health.enabled = true;
        config.health.monitor.everySteps = spec.healthEverySteps;
        config.health.maxRollbacks = spec.maxRollbacks;
        config.health.heartbeats = &board;
        config.telemetry.emitAggregates = false;

        std::unique_ptr<core::WaveSolver> solver;
        std::unique_ptr<rupture::FaultCondition> fault;
        std::optional<io::SharedFile> surface;
        if (isRupture) {
          solver = rupture::makeRuptureWaveSolver(
              comm, topo, ruptureConfig,
              vmodel::LayeredModel::socalBackground(), config);
          fault = std::make_unique<rupture::FaultCondition>(*solver,
                                                            ruptureConfig);
          solver->attachFault(fault.get());
        } else {
          solver = buildWaveSolver(comm, topo, config, spec);
          // Surface output: unbuffered, undecimated, step-indexed writes
          // to a file that PERSISTS across attempts (open never truncates),
          // so a resumed attempt rewrites its replay window in place and
          // keeps every earlier sample — the canonical wave product.
          surface.emplace(surfacePath, io::SharedFile::Mode::ReadWrite);
          core::SurfaceOutputConfig out;
          out.file = &*surface;
          out.sampleEverySteps = spec.surfaceSampleEverySteps;
          out.spatialDecimation = 1;
          out.flushEverySamples = 1;
          if (config_.publisher != nullptr) {
            // Serving-tier hook: every durable-prefix advance of this
            // rank's writer is reported (on the rank thread) so partial
            // hazard products can be folded mid-run.
            SurfaceRunInfo info{job.hash, spec, surfacePath};
            ProductPublisher* pub = config_.publisher;
            const int origin = config_.publishOriginId;
            const int rank = comm.rank();
            out.flushObserver = [pub, info = std::move(info), origin, rank](
                                    std::uint64_t durableSamples,
                                    std::uint64_t lowestRewritten) {
              pub->onWindowFlush(info, origin, rank, durableSamples,
                                 lowestRewritten);
            };
          }
          solver->attachSurfaceOutput(out);
        }

        if (spec.checkpointEverySteps > 0) {
          solver->attachCheckpoints(&checkpoints,
                                    spec.checkpointEverySteps);
          solver->attachBuddies(&buddies, spec.checkpointEverySteps);
          // Collective resume agreement: restart only when EVERY rank has
          // a valid generation somewhere — on disk or in buddy memory (a
          // fresh job has none anywhere). After a respawn every rank
          // re-enters here, so this allreduce is the recovery fence.
          std::int64_t have =
              checkpoints.newestValidStep(comm.rank()).has_value() ? 1 : 0;
          if (buddies.newestStep(comm.rank()).has_value())
            have = 1;
          if (comm.allreduce(have, vcluster::ReduceOp::Min) == 1)
            solver->restart();
        }

        if (comm.rank() == 0) {
          job.lastDt.store(solver->dt(), std::memory_order_relaxed);
          job.lastStep.store(solver->currentStep(),
                             std::memory_order_relaxed);
        }

        // Checkpoints are taken at steps below the target, so a resume
        // never passes it (a resume AT it runs zero steps).
        solver->run(spec.steps - solver->currentStep(), [&](std::size_t step) {
          if (comm.rank() == 0) {
            job.lastStep.store(step, std::memory_order_relaxed);
            job.lastDt.store(solver->dt(), std::memory_order_relaxed);
            // Worker-crash injection point. The consult is rank-0-only
            // (non-collective is fine: it only SETS the flag); the
            // cancellation itself is agreed below by allreduce.
            if (fault::injectionEnabled()) {
              if (fault::activeInjector()->check("sched.job.step", 0))
                job.requestCancel(RequeueCause::WorkerCrash);
            }
          }
          if (step % kCancelCheckEverySteps == 0) {
            const std::int64_t flag = comm.allreduce(
                static_cast<std::int64_t>(
                    job.cancelRequested.load(std::memory_order_relaxed)),
                vcluster::ReduceOp::Max);
            if (flag != 0)
              throw CancelledError(static_cast<RequeueCause>(flag), step);
          }
        });
        if (isRupture) {
          auto h = fault->gather();
          if (comm.rank() == 0) history = std::move(h);
        }
      };

  cluster.run(rankFn);
  attemptDone.store(true, std::memory_order_relaxed);
  dog.stop();

  ScenarioProducts products;
  products.specHash = job.hash;
  products.completedSteps = spec.steps;
  if (isRupture) {
    products.dt = history.dt;
    products.blobs.emplace_back(
        "fault_history",
        ArtifactBlob::fromBytes(serializeFaultHistory(history)));
    return products;
  }
  // Wave products from the canonical bytes on disk.
  products.dt = job.lastDt.load(std::memory_order_relaxed);
  auto surfaceBytes = readFileBytes(surfacePath);
  if (!surfaceBytes.has_value())
    throw Error("sched: cannot read " + surfacePath);
  const core::SurfaceLayout layout(spec.dims.nx, spec.dims.ny, spec.dims.nz,
                                   spec.nranks);
  products.blobs.emplace_back(
      "pgvh.bin", ArtifactBlob::fromBytes(derivePgvh(*surfaceBytes, layout)));
  products.blobs.emplace_back(
      "surface.bin", ArtifactBlob::fromBytes(std::move(*surfaceBytes)));
  return products;
}

void ScenarioService::maybeRequeue(const JobHandle& job, RequeueCause cause,
                                   std::uint64_t atStep,
                                   const std::string& why) {
  bool requeue = false;
  // An aborting service never requeues: the broker this service backs is
  // modelled as dead, and the fabric replays its work elsewhere.
  const bool aborting = aborting_.load(std::memory_order_relaxed) ||
                        cause == RequeueCause::Aborted;
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    if (!aborting &&
        static_cast<int>(job->requeues.size()) < config_.maxRetries) {
      requeue = true;
      RequeueEvent ev;
      ev.cause = cause;
      ev.attempt = job->attempts;
      ev.atStep = atStep;
      if (cause == RequeueCause::FatalVerdict) {
        // The attempt was numerically unstable: resume on a tighter dt.
        const double last = job->lastDt.load(std::memory_order_relaxed);
        if (last > 0.0) job->dtOverride = last * kRetryDtTighten;
      }
      // Crash/stall retries keep dt so the resumed run is bit-identical.
      ev.dtNext = job->dtOverride;
      job->requeues.push_back(ev);
      job->phase = JobPhase::Queued;
      job->cancelRequested.store(0, std::memory_order_relaxed);
      job->fatalAbort.store(false, std::memory_order_relaxed);
    }
  }
  if (!requeue) {
    settleTerminal(job, JobPhase::Failed,
                   std::string("retry budget exhausted (") +
                       toString(cause) + "): " + why,
                   {}, /*countedPrimary=*/true);
    return;
  }
  telemetry::count(telemetry::Counter::ScenarioRetries);
  queue_.pushRequeue(job);
  {
    std::lock_guard<std::mutex> lock(dispatchMu_);
    signal_ = true;
    // Runs on a detached worker: notify under the mutex (see workerMain).
    dispatchCv_.notify_all();
  }
}

void ScenarioService::settleTerminal(const JobHandle& job, JobPhase phase,
                                     const std::string& error,
                                     ScenarioProducts products,
                                     bool countedPrimary) {
  std::vector<JobHandle> followers;
  {
    std::lock_guard<std::mutex> lock(jobsMu_);
    auto it = primaryByHash_.find(job->hash);
    if (it != primaryByHash_.end() && it->second == job) {
      primaryByHash_.erase(it);
      auto fit = followersByHash_.find(job->hash);
      if (fit != followersByHash_.end()) {
        followers = std::move(fit->second);
        followersByHash_.erase(fit);
      }
    }
  }
  const double now = epoch_.seconds();
  auto finish = [&](const JobHandle& j, bool copyProducts) {
    {
      std::lock_guard<std::mutex> lock(j->mutex);
      j->phase = phase;
      j->error = error;
      if (phase == JobPhase::Completed)
        j->products = copyProducts ? products : std::move(products);
      j->endSeconds = now;
    }
    j->settled.notify_all();
    if (phase == JobPhase::Completed)
      telemetry::count(telemetry::Counter::ScenariosCompleted);
  };
  for (const auto& f : followers) finish(f, /*copyProducts=*/true);
  finish(job, /*copyProducts=*/false);
  // Before the outstanding_ update: once drain() can return, the service
  // (and whatever the hook rings) may be torn down.
  if (config_.onSettle) config_.onSettle();
  {
    std::lock_guard<std::mutex> lock(jobsMu_);
    outstanding_ -= followers.size() + (countedPrimary ? 1 : 0);
    // Runs on a detached worker: drain() exits (and the service can be
    // destroyed) the moment outstanding_ hits zero, so the broadcast must
    // land before this mutex is released.
    drainCv_.notify_all();
  }
}

void ScenarioService::recordStall(const health::StallReport& report) {
  std::lock_guard<std::mutex> lock(stallMu_);
  stalls_.push_back(report);
}

std::vector<health::StallReport> ScenarioService::stallEpisodes() const {
  std::lock_guard<std::mutex> lock(stallMu_);
  return stalls_;
}

void ScenarioService::drain() {
  std::unique_lock<std::mutex> lock(jobsMu_);
  drainCv_.wait(lock, [&] { return outstanding_ == 0; });
}

void ScenarioService::abort(const std::string& why) {
  bool expected = false;
  if (!aborting_.compare_exchange_strong(expected, true)) {
    drain();  // a concurrent abort is already sweeping; wait it out
    return;
  }
  queue_.close();
  // Fail everything still queued (requeues included: the abort flag keeps
  // maybeRequeue from re-admitting anything behind our back).
  for (auto& job : queue_.drainAll())
    settleTerminal(job, JobPhase::Failed, "service aborted: " + why, {},
                   /*countedPrimary=*/true);
  // Cancel running attempts; each unwinds at its next collective
  // cancel-check and settles Failed through the aborting maybeRequeue.
  std::vector<JobHandle> jobs;
  {
    std::lock_guard<std::mutex> lock(jobsMu_);
    jobs = allJobs_;
  }
  for (const auto& j : jobs) {
    bool running = false;
    {
      std::lock_guard<std::mutex> lock(j->mutex);
      running = j->phase == JobPhase::Running;
    }
    if (running) j->requestCancel(RequeueCause::Aborted);
  }
  drain();
}

void ScenarioService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(dispatchMu_);
    if (shutdownDone_) return;
    shutdownDone_ = true;
  }
  queue_.close();
  drain();
  {
    std::lock_guard<std::mutex> lock(dispatchMu_);
    stopping_ = true;
    signal_ = true;
  }
  dispatchCv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void ScenarioService::publishCompleted(
    const std::string& hash, const ScenarioSpec& spec,
    const ScenarioProducts& products) const {
  if (config_.publisher == nullptr || spec.kind != ScenarioKind::Wave)
    return;
  const SurfaceRunInfo info{
      hash, spec, (fs::path(jobDirFor(hash)) / "surface.bin").string()};
  config_.publisher->onScenarioComplete(info, config_.publishOriginId,
                                        products);
}

std::optional<ScenarioProducts> ScenarioService::cachedProducts(
    const std::string& hash, const ScenarioSpec& spec) {
  auto bytes = cache_.get(productKey(hash));
  if (!bytes) return std::nullopt;
  std::optional<ScenarioProducts> products;
  try {
    products = ScenarioProducts::deserialize(*bytes);
  } catch (const Error&) {
    // A digest-valid entry that fails structural deserialization is a
    // version skew, not corruption: a miss, and the caller recomputes.
    return std::nullopt;
  }
  telemetry::count(telemetry::Counter::ScenarioCacheHits);
  // A memoized hit still converges the serving tier: the canonical
  // products are republished (the tile store absorbs duplicates).
  publishCompleted(hash, spec, *products);
  return products;
}

ServiceReport ScenarioService::report() const {
  ServiceReport r;
  r.coreBudget = config_.coreBudget;
  r.wallSeconds = epoch_.seconds();
  r.cache = cache_.stats();
  r.executedAttempts = executedAttempts_.load(std::memory_order_relaxed);
  // Process-wide per-site retry stats: in a fabric every broker's report
  // shows the same registry (the fabric report dedupes), which is the
  // point — forwarding and lease-renewal retries are visible wherever an
  // operator happens to look.
  r.retrySites = util::retryRegistrySnapshot();

  std::vector<JobHandle> jobs;
  {
    std::lock_guard<std::mutex> lock(jobsMu_);
    jobs = allJobs_;
  }
  r.submitted = jobs.size();
  double latSum = 0.0;
  std::uint64_t latCount = 0;
  for (const auto& j : jobs) {
    std::lock_guard<std::mutex> lock(j->mutex);
    JobRow row;
    row.name = j->spec.name;
    row.kind = toString(j->spec.kind);
    row.hash = j->hash;
    row.priority = j->spec.priority;
    row.phase = toString(j->phase);
    row.attempts = j->attempts;
    row.retries = static_cast<int>(j->requeues.size());
    row.respawns = j->respawns;
    row.cacheHit = j->cacheHit;
    row.coalesced = j->coalesced;
    if (j->phase == JobPhase::Completed)
      row.completedSteps = j->products.completedSteps;
    if (j->startSeconds > 0.0) {
      row.queueSeconds = j->startSeconds - j->submitSeconds;
      const double end =
          j->endSeconds > 0.0 ? j->endSeconds : r.wallSeconds;
      row.runSeconds = end - j->startSeconds;
      latSum += row.queueSeconds;
      ++latCount;
      if (latCount == 1 || row.queueSeconds < r.queueLatencyMin)
        r.queueLatencyMin = row.queueSeconds;
      if (row.queueSeconds > r.queueLatencyMax)
        r.queueLatencyMax = row.queueSeconds;
    }
    row.error = j->error;
    r.retries += j->requeues.size();
    r.respawns += static_cast<std::uint64_t>(j->respawns);
    r.respawnEscalations +=
        static_cast<std::uint64_t>(j->respawnEscalations);
    // Disjoint outcome classes (cache-served and coalesced submissions
    // complete without executing): completed counts executed completions.
    if (j->cacheHit) {
      ++r.cacheHits;
    } else if (j->coalesced) {
      ++r.coalesced;
    } else if (j->phase == JobPhase::Completed) {
      ++r.completed;
    } else if (j->phase == JobPhase::Failed) {
      ++r.failed;
    } else if (j->phase == JobPhase::Rejected) {
      ++r.rejected;
    }
    r.jobs.push_back(std::move(row));
  }
  if (latCount > 0) r.queueLatencyMean = latSum / latCount;
  if (r.wallSeconds > 0.0)
    r.throughputPerSecond =
        static_cast<double>(r.completed) / r.wallSeconds;
  return r;
}

}  // namespace awp::sched
