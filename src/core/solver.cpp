#include "core/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <thread>

#include "fault/injector.hpp"
#include "telemetry/chrome_trace.hpp"
#include "util/error.hpp"
#include "util/fp_env.hpp"
#include "util/hot.hpp"
#include "util/timer.hpp"
#include "vcluster/epoch.hpp"

namespace awp::core {

using grid::kHalo;

WaveSolver::WaveSolver(vcluster::Communicator& comm,
                       const vcluster::CartTopology& topo,
                       const SolverConfig& config,
                       const mesh::MeshBlock& block)
    : comm_(comm), topo_(topo), config_(config) {
  geom_.global = config_.globalDims;
  geom_.local = block.spec;
  init(block);
}

WaveSolver::WaveSolver(vcluster::Communicator& comm,
                       const vcluster::CartTopology& topo,
                       const SolverConfig& config,
                       const vmodel::Material& material)
    : comm_(comm), topo_(topo), config_(config) {
  geom_.global = config_.globalDims;
  mesh::MeshSpec spec{config_.globalDims.nx, config_.globalDims.ny,
                      config_.globalDims.nz, config_.h, 0.0, 0.0};
  mesh::MeshBlock block;
  block.spec = mesh::subdomainFor(topo, spec, comm.rank());
  block.points.assign(block.spec.pointCount(), material);
  geom_.local = block.spec;
  init(block);
}

void WaveSolver::init(const mesh::MeshBlock& block) {
  AWP_CHECK(comm_.size() == topo_.size());

  const grid::GridDims local{block.spec.x.count(), block.spec.y.count(),
                             block.spec.z.count()};
  // Stencil footprint: every local block must hold at least the halo depth.
  AWP_CHECK_MSG(local.nx >= kHalo && local.ny >= kHalo && local.nz >= kHalo,
                "subdomain too small for the 4th-order stencil");

  // Two-pass construction: the CFL step needs the material, the grid needs
  // dt. Build with a provisional dt, then recompute.
  double dt = config_.dt;
  if (dt <= 0.0) {
    grid::StaggeredGrid probe(local, config_.h, 1.0);
    probe.setMaterial(block);
    const double localDt = probe.stableDt();
    dt = comm_.allreduce(localDt, vcluster::ReduceOp::Min);
    config_.dt = dt;
    dtDerived_ = true;
    if (comm_.rank() == 0)
      std::fprintf(stderr, "[awp] CFL-derived dt = %.6g s (h = %g m)\n", dt,
                   config_.h);
  }

  grid_ = std::make_unique<grid::StaggeredGrid>(local, config_.h, dt,
                                                config_.attenuation);
  grid_->setMaterial(block);

  if (config_.hybridThreads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.hybridThreads);
    config_.kernels.pool = pool_.get();
  }

  halo_ = std::make_unique<grid::HaloExchanger>(
      comm_, topo_, config_.commMode, config_.reducedComm);
  halo_->exchangeMaterial(*grid_);

  freeSurface_ = std::make_unique<FreeSurface>(geom_, config_.freeSurface);
  if (config_.absorbing == AbsorbingType::Sponge)
    sponge_ = std::make_unique<SpongeLayer>(geom_, *grid_,
                                            config_.spongeWidth);
  if (config_.absorbing == AbsorbingType::Pml) {
    const double vpMax =
        comm_.allreduce(grid_->maxVp(), vcluster::ReduceOp::Max);
    pml_ = std::make_unique<PmlBoundary>(geom_, *grid_, config_.pml, vpMax);
  }
  surface_ = std::make_unique<SurfaceMonitor>(geom_);
  planSponge();

  if (config_.health.enabled)
    guard_ = std::make_unique<health::HealthGuard>(config_.health);

  dtBaseline_ = config_.dt;
}

void WaveSolver::addSource(MomentRateSource src) {
  sources_.add(std::move(src));
  sources_.bind(geom_);
  planSponge();
}

void WaveSolver::attachFault(FaultPlugin* fault) {
  fault_ = fault;
  planSponge();
}

void WaveSolver::planSponge() {
  // The taper may move into the stress store only if nothing writes a
  // damped stress cell after the store: a fault plugin or a source cell
  // there would be tapered before its write instead of after. The FS2
  // images copy rows T, T-1, T-2 into T+1, T+2, which commutes with the
  // taper only if those rows share their factor: require all of them
  // untapered.
  spongeFused_ = false;
  if (!sponge_ || !sponge_->active() || fault_ != nullptr) return;
  for (const auto& s : sources_.sources()) {
    std::size_t li = 0, lj = 0, lk = 0;
    if (geom_.owns(s.gi, s.gj, s.gk, li, lj, lk) &&
        !sponge_->undamped(li, lj, lk))
      return;
  }
  if (freeSurface_->active() &&
      !sponge_->undampedFrom(kHalo + grid_->dims().nz - 3))
    return;
  spongeFused_ = true;
}

void WaveSolver::addReceiver(std::string name, std::size_t gi,
                             std::size_t gj) {
  receivers_.add(std::move(name), gi, gj);
  receivers_.bind(geom_);
}

void WaveSolver::attachSurfaceOutput(const SurfaceOutputConfig& out) {
  AWP_CHECK(out.file != nullptr);
  AWP_CHECK(out.sampleEverySteps >= 1);
  surfaceOutput_ = out;
  if (!geom_.touchesTop()) return;

  // This rank's block of the rank-blocked record; every rank derives the
  // whole displacement table from the topology, so no coordination is
  // needed.
  const SurfaceLayout layout(topo_, geom_.global, out.spatialDecimation);
  surfaceBlock_ = *layout.blockOf(comm_.rank());
  const std::size_t floats = 3 * surfaceBlock_.nx * surfaceBlock_.ny;
  surfaceSample_.resize(floats);
  surfaceWriter_ = std::make_unique<io::AggregatedWriter>(
      out.file, floats, surfaceBlock_.offsetFloats, layout.stepFloats(),
      out.flushEverySamples);
  if (out.flushObserver) surfaceWriter_->setFlushObserver(out.flushObserver);
}

void WaveSolver::attachCheckpoints(io::CheckpointStore* store,
                                   int everySteps) {
  checkpoints_ = store;
  checkpointEvery_ = everySteps;
}

void WaveSolver::attachBuddies(io::BuddyStore* store, int everySteps) {
  AWP_CHECK_MSG(store == nullptr || store->size() == comm_.size(),
                "attachBuddies: store sized for a different cluster");
  buddies_ = store;
  buddyEvery_ = everySteps;
}

AWP_HOT void WaveSolver::velocityPhase() {
  // Halo exchanges and PML updates open nested spans, so this bucket's
  // exclusive time is the FD kernels plus free-surface images.
  telemetry::ScopedSpan span(telemetry::Phase::VelocityKernel);
  const Region r = Region::interior(*grid_);
  if (config_.overlap) {
    // §IV.C: "While the value of v is computed, the exchange of u can be
    // performed simultaneously" — per-component interleaving.
    updateVelocity(*grid_, VelocityComponent::U, config_.kernels, r);
    halo_->exchangeFields(*grid_, {grid::FieldId::U});
    updateVelocity(*grid_, VelocityComponent::V, config_.kernels, r);
    halo_->exchangeFields(*grid_, {grid::FieldId::V});
    updateVelocity(*grid_, VelocityComponent::W, config_.kernels, r);
    if (pml_) {
      telemetry::ScopedSpan absorb(telemetry::Phase::Absorb);
      pml_->updateVelocity(*grid_);
    }
    halo_->exchangeFields(*grid_, {grid::FieldId::W});
    // PML rewrote u/v/w in the zones after their exchanges; refresh.
    if (pml_) halo_->exchangeVelocities(*grid_);
  } else {
    updateVelocity(*grid_, config_.kernels);
    if (pml_) {
      telemetry::ScopedSpan absorb(telemetry::Phase::Absorb);
      pml_->updateVelocity(*grid_);
    }
    halo_->exchangeVelocities(*grid_);
  }
  freeSurface_->applyVelocityImages(*grid_);
}

AWP_HOT void WaveSolver::stressPhase() {
  telemetry::ScopedSpan span(telemetry::Phase::StressKernel);
  const SpongeTaper taper =
      spongeFused_ ? sponge_->taper() : SpongeTaper{};
  updateStress(*grid_, config_.kernels, spongeFused_ ? &taper : nullptr);
  if (pml_) {
    telemetry::ScopedSpan absorb(telemetry::Phase::Absorb);
    pml_->updateStress(*grid_);
  }
  sources_.inject(*grid_, step_);
  if (fault_) fault_->afterStress(*grid_);
  freeSurface_->applyStressImages(*grid_);
  if (sponge_) {
    // Before the exchange: every rank then sends tapered stresses, fused
    // or not, and a halo cell's factor is its owner's.
    telemetry::ScopedSpan absorb(telemetry::Phase::Absorb);
    sponge_->apply(*grid_, /*stresses=*/!spongeFused_);
  }
  halo_->exchangeStresses(*grid_);
}

AWP_HOT void WaveSolver::observationPhase() {
  {
    // Step-indexed recording: replayed windows overwrite their first-pass
    // samples, so observations stay one-record-per-step across rollbacks.
    telemetry::ScopedSpan span(telemetry::Phase::Output);
    receivers_.record(*grid_, step_);
    surface_->accumulate(*grid_);
  }

  if (surfaceWriter_ && surfaceOutput_ &&
      step_ % static_cast<std::size_t>(surfaceOutput_->sampleEverySteps) ==
          0 &&
      geom_.touchesTop()) {
    telemetry::ScopedSpan span(telemetry::Phase::Output);
    const auto dec =
        static_cast<std::size_t>(surfaceOutput_->spatialDecimation);
    const std::size_t T = kHalo + grid_->dims().nz - 1;
    // Fill the staging buffer preallocated by attachSurfaceOutput with the
    // rank's block; decimated point (di, dj) is global (di, dj) * dec.
    const SurfaceBlock& b = surfaceBlock_;
    std::size_t at = 0;
    for (std::size_t dj = b.y0; dj < b.y0 + b.ny; ++dj)
      for (std::size_t di = b.x0; di < b.x0 + b.nx; ++di) {
        const std::size_t i = di * dec - geom_.local.x.begin + kHalo;
        const std::size_t j = dj * dec - geom_.local.y.begin + kHalo;
        surfaceSample_[at++] = grid_->u(i, j, T);
        surfaceSample_[at++] = grid_->v(i, j, T);
        surfaceSample_[at++] = grid_->w(i, j, T);
      }
    const std::uint64_t sampleIndex =
        step_ / static_cast<std::size_t>(surfaceOutput_->sampleEverySteps);
    surfaceWriter_->writeSampleAt(sampleIndex, surfaceSample_.data(), at);
  }

  const bool ckptDue =
      checkpoints_ != nullptr && checkpointEvery_ > 0 && step_ > 0 &&
      step_ % static_cast<std::size_t>(checkpointEvery_) == 0;
  const bool buddyDue =
      buddies_ != nullptr && buddyEvery_ > 0 && step_ > 0 &&
      step_ % static_cast<std::size_t>(buddyEvery_) == 0;
  if (ckptDue || buddyDue) persistState(ckptDue, buddyDue);
}

void WaveSolver::persistState(bool toDisk, bool toBuddy) {
  // Checkpoint veto: never persist a non-finite state. A blow-up that
  // slips a NaN into a checkpoint between poisoning and detection would
  // turn every later rollback into a restore-garbage-retry loop. The veto
  // is COLLECTIVE: if any rank is poisoned, no rank writes — otherwise the
  // clean ranks' two-generation stores rotate past the last step the
  // poisoned rank can still restore. The buddy replicas share the veto for
  // the same reason. The previous background write drains first (at most
  // one in flight, and its snapshot is released before this one is taken)
  // and a failure of it joins the veto, also for the same reason: once any
  // rank's write has failed, no rank writes a newer generation. The
  // failing rank rethrows; the others skip this generation and unwind with
  // it.
  telemetry::ScopedSpan span(telemetry::Phase::Checkpoint);
  constexpr std::int64_t kPoisoned = 1;
  constexpr std::int64_t kWriteFailed = 2;
  std::exception_ptr writeError;
  try {
    checkpointWriter_.drain();
  } catch (...) {
    writeError = std::current_exception();
  }
  std::int64_t bad = 0;
  if (guard_ && !health::FieldMonitor::allFinite(*grid_)) bad = kPoisoned;
  if (writeError) bad = kWriteFailed;
  const std::int64_t worst = comm_.allreduce(bad, vcluster::ReduceOp::Max);
  if (writeError) std::rethrow_exception(writeError);
  if (worst == kPoisoned) guard_->noteCheckpointVeto(step_);
  if (worst != 0) return;

  auto blob = grid_->saveState();
  if (fault_) fault_->saveState(blob);
  const io::StateSnapshot state =
      std::make_shared<const std::vector<std::byte>>(std::move(blob));
  if (toDisk)
    checkpointWriter_.submit(*checkpoints_, comm_.rank(), step_, state);
  if (!toBuddy) return;
  buddies_->storeSelf(comm_.rank(), step_, state);
  if (comm_.size() == 1) return;  // no partner: the self blob suffices
  // Ring replica exchange: ship my blob to my buddy, receive my
  // predecessor's and retain it as their replica. Deterministic order
  // (everyone sends, then everyone receives) — buffered sends never block.
  const int buddy = topo_.ringBuddy(comm_.rank());
  const int pred = (comm_.rank() + comm_.size() - 1) % comm_.size();
  comm_.send(buddy, vcluster::kTagBuddyData, state->data(), state->size());
  auto replica = comm_.recvBytes(pred, vcluster::kTagBuddyData);
  // buddy_drop site: the replica is lost in flight AFTER the wire exchange
  // (occurrence streams are attributed to the replica's OWNER, so plans
  // read as "drop rank R's replica").
  if (fault::injectionEnabled()) {
    if (auto act = fault::activeInjector()->check("buddy_drop", pred);
        act && act->kind == fault::FaultKind::MessageDrop) {
      buddies_->noteDrop(pred);
      return;
    }
  }
  buddies_->storeReplica(pred, step_, std::move(replica));
  telemetry::count(telemetry::Counter::BuddyBlobsReplicated, 1);
}

void WaveSolver::drainCheckpointWrite() {
  telemetry::ScopedSpan span(telemetry::Phase::Checkpoint);
  checkpointWriter_.drain();
}

void WaveSolver::stepEntryChecks() {
  // Epoch fence before any per-rank side effect: a zombie incarnation
  // woken after a respawn must quiesce here, before it can beat the
  // heartbeat or write telemetry for a step the replacement re-runs.
  comm_.fencePoint();
  if (!fault::injectionEnabled()) return;
  // Fault hooks: the injector can wedge this rank (RankStall — exercises
  // the watchdog), poison one deterministic interior cell (FieldPoison —
  // exercises blow-up detection and rollback), or kill the rank thread
  // outright (rank_death — exercises the respawn ladder).
  if (auto act = fault::activeInjector()->check("rank_death", comm_.rank());
      act && act->kind == fault::FaultKind::RankDeath)
    throw vcluster::RankDeathError(comm_.rank(), step_);
  if (auto act =
          fault::activeInjector()->check("solver.step", comm_.rank())) {
    if (act->kind == fault::FaultKind::RankStall)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(act->stallSeconds));
    if (act->kind == fault::FaultKind::FieldPoison) {
      const auto& d = grid_->dims();
      const std::size_t n = act->flipBit % d.count();
      grid_->u(kHalo + n % d.nx, kHalo + (n / d.nx) % d.ny,
               kHalo + n / (d.nx * d.ny)) =
          std::numeric_limits<float>::quiet_NaN();
    }
  }
}

AWP_HOT void WaveSolver::step() {
  stepEntryChecks();
  telemetry::stepMark(step_);
  telemetry::count(telemetry::Counter::CellsUpdated, grid_->dims().count());
  telemetry::count(
      telemetry::Counter::FlopsEstimated,
      static_cast<std::uint64_t>(
          static_cast<double>(grid_->dims().count()) *
          flopsPerPointPerStep(config_.attenuation.enabled)));
  // Heartbeat AFTER the fault hook: a stalled rank's last beat stays one
  // step behind its neighbors (which beat, then block in the halo
  // exchange), so the watchdog can name the origin of a stall.
  if (guard_) guard_->beat(comm_.rank(), step_);
  {
    // The field-advancing phases run with subnormals flushed: the
    // wavefront's subnormal fringe would otherwise cost ~30-40x per point
    // for the first few dozen steps. Observation (PGV-H fold, surface
    // output, checkpoint veto) and the caller's health scan stay in the
    // caller's IEEE environment, so the serving tier's incremental fold
    // and the post-hoc fold run the same code in the same mode.
    const ScopedFlushDenormals flush;
    velocityPhase();
    if (fault_) fault_->afterVelocity(*grid_, step_);
    stressPhase();
  }
  observationPhase();
  ++step_;
}

health::PreflightContext WaveSolver::buildPreflightContext(
    std::size_t plannedSteps) const {
  health::PreflightContext ctx;
  ctx.grid = grid_.get();
  ctx.globalDims = config_.globalDims;
  ctx.dt = config_.dt;
  ctx.h = config_.h;
  ctx.limits = config_.health.limits;
  switch (config_.absorbing) {
    case AbsorbingType::None:
      break;
    case AbsorbingType::Sponge:
      ctx.boundary = health::BoundaryKind::Sponge;
      ctx.boundaryWidth = config_.spongeWidth;
      break;
    case AbsorbingType::Pml:
      ctx.boundary = health::BoundaryKind::Pml;
      ctx.boundaryWidth = config_.pml.width;
      break;
  }
  ctx.touchesXMin = geom_.touchesXMin();
  ctx.touchesXMax = geom_.touchesXMax();
  ctx.touchesYMin = geom_.touchesYMin();
  ctx.touchesYMax = geom_.touchesYMax();
  ctx.touchesBottom = geom_.touchesBottom();
  ctx.decompX = topo_.dims().x;
  ctx.decompY = topo_.dims().y;
  ctx.decompZ = topo_.dims().z;
  ctx.haloWidth = kHalo;
  ctx.plannedSteps = plannedSteps;
  for (const auto& s : sources_.sources())
    ctx.sources.push_back({s.gi, s.gj, s.gk, s.stepCount()});
  return ctx;
}

void WaveSolver::handleBlowup(const health::ClusterVerdict& cv) {
  // Every rank saw the same allreduced verdict and shares the same rollback
  // budget, so all take the same branch — recovery and abort are both
  // collective.
  if (checkpoints_ != nullptr && guard_->rollbackBudgetLeft()) {
    const std::size_t from = step_;
    try {
      restart();
    } catch (const vcluster::EpochFenced&) {
      throw;  // a peer's failure or a respawn unwinds this rank, not ours
    } catch (const Error& e) {
      throw Error(guard_->abortDump(cv, from) +
                  "; rollback failed: " + e.what());
    }
    const double newDt = config_.dt * config_.health.dtTighten;
    config_.dt = newDt;
    grid_->setDt(newDt);
    guard_->noteRollback(from, step_, newDt);
    // Open (or extend) the replay window: until the solver re-reaches the
    // step it blew up at, enclosed spans count as replay, not useful work.
    replayTarget_ = std::max(replayTarget_, from);
    replaySpan_.begin(telemetry::Phase::RollbackReplay);
    return;
  }
  throw Error(guard_->abortDump(cv, step_));
}

void WaveSolver::maybeRewiden() {
  if (!guard_ || !guard_->rewidenDue()) return;
  if (replaySpan_.active()) return;  // never widen mid-replay
  if (config_.dt >= dtBaseline_) return;  // nothing tightened to undo
  const double newDt =
      std::min(config_.dt * config_.health.dtRewiden, dtBaseline_);
  config_.dt = newDt;
  grid_->setDt(newDt);
  guard_->noteRewiden(step_, newDt);
}

void WaveSolver::emitTelemetry(double wallSeconds, bool endOfRun) {
  telemetry::Session* session = telemetry::activeSession();
  if (session == nullptr) return;
  // Under the scenario service the session outlives this solver and is
  // shared with concurrent jobs; aggregation (which reads the off-rank
  // slot) is deferred to the service. Uniform config: no rank divergence.
  if (!config_.telemetry.emitAggregates) return;
  // Collective: every rank contributes its summary; rank 0 gets the report.
  const telemetry::ClusterReport report =
      telemetry::aggregate(comm_, *session, step_, wallSeconds);
  if (endOfRun && !config_.telemetry.tracePathPrefix.empty())
    telemetry::writeTraceFile(config_.telemetry.tracePathPrefix + ".rank" +
                                  std::to_string(comm_.rank()) + ".jsonl",
                              session->slot(comm_.rank()));
  if (endOfRun && !config_.telemetry.chromeTracePath.empty()) {
    // Rank 0 reads every rank's ring: flank with barriers so no rank is
    // still writing spans (before) and none starts new ones until the
    // file is out (after).
    comm_.barrier();
    if (comm_.rank() == 0)
      telemetry::writeChromeTraceFile(config_.telemetry.chromeTracePath,
                                      *session);
    comm_.barrier();
  }
  if (comm_.rank() != 0) return;
  lastTelemetryReport_ = report;
  if (!config_.telemetry.reportPath.empty())
    telemetry::writeReportFile(config_.telemetry.reportPath, report);
}

void WaveSolver::run(std::size_t nSteps,
                     const std::function<void(std::size_t)>& onStep) {
  Stopwatch wall;
  if (guard_ && !preflightDone_) {
    guard_->preflight(comm_, buildPreflightContext(nSteps));
    preflightDone_ = true;
  }
  const std::size_t target = step_ + nSteps;
  const auto reportEvery =
      static_cast<std::size_t>(std::max(config_.telemetry.reportEverySteps,
                                        0));
  while (step_ < target) {
    step();
    // The replay window closes once the solver re-reaches the step it
    // rolled back from: everything after is new work.
    if (replaySpan_.active() && step_ >= replayTarget_) replaySpan_.end();
    if (onStep) onStep(step_);
    // Scan on the monitor cadence plus once at the end of the run, so a
    // run can never return an undetected non-finite field. A Fatal verdict
    // rolls step_ back below target and the loop re-runs the window.
    if (guard_ && (guard_->scanDue(step_) || step_ == target)) {
      const auto cv = guard_->evaluate(comm_, *grid_, step_);
      if (cv.verdict == health::Verdict::Fatal)
        handleBlowup(cv);
      else if (cv.verdict == health::Verdict::Healthy)
        maybeRewiden();
    }
    // Interval aggregation: collective, and consistent because every rank
    // holds the same step_ (the loop is lockstep).
    if (reportEvery > 0 && step_ % reportEvery == 0 && step_ < target)
      emitTelemetry(wallSeconds_ + wall.seconds(), /*endOfRun=*/false);
  }
  if (replaySpan_.active()) replaySpan_.end();
  if (surfaceWriter_) surfaceWriter_->flush();
  drainCheckpointWrite();  // run() returns with every checkpoint durable
  wallSeconds_ += wall.seconds();
  emitTelemetry(wallSeconds_, /*endOfRun=*/true);
}

void WaveSolver::restart() {
  AWP_CHECK_MSG(checkpoints_ != nullptr || buddies_ != nullptr,
                "no checkpoint or buddy store attached");
  // The agreement below must see this rank's in-flight generation.
  drainCheckpointWrite();
  // True collective (§III.F): ranks may disagree on their newest valid
  // generation (one rank's newest checkpoint can be torn while its
  // neighbors' are fine, or a replacement rank only has its buddy's
  // replica), so all ranks allreduce-agree on the newest step available on
  // *every* rank and restore that generation. The diskless buddy store
  // extends each rank's candidate set; per-rank restore prefers it and
  // falls back to the two-generation disk store.
  std::int64_t mine = -1;
  if (checkpoints_ != nullptr) {
    if (const auto newest = checkpoints_->newestValidStep(comm_.rank()))
      mine = static_cast<std::int64_t>(*newest);
  }
  if (buddies_ != nullptr) {
    if (const auto newest = buddies_->newestStep(comm_.rank()))
      mine = std::max(mine, static_cast<std::int64_t>(*newest));
  }
  const std::int64_t agreed =
      comm_.allreduce(mine, vcluster::ReduceOp::Min);
  AWP_CHECK_MSG(agreed >= 0,
                "restart: some rank has no valid checkpoint generation");
  const auto agreedStep = static_cast<std::uint64_t>(agreed);
  bool restoredFromBuddy = false;
  if (buddies_ != nullptr) {
    if (const auto blob = buddies_->restore(comm_.rank(), agreedStep)) {
      restoreState(*blob);
      restoredFromBuddy = true;
      telemetry::count(telemetry::Counter::BuddyRestores, 1);
    }
  }
  if (!restoredFromBuddy) {
    AWP_CHECK_MSG(checkpoints_ != nullptr,
                  "restart: agreed step not in the buddy store and no disk "
                  "store attached");
    const auto restored = checkpoints_->readStep(comm_.rank(), agreedStep);
    restoreState(restored.state);
  }
  step_ = agreedStep + 1;
  if (surfaceWriter_ && surfaceOutput_) {
    // Samples before the resume point are already on disk (written by this
    // writer or by a previous attempt sharing the output file): mark the
    // prefix persisted so the first post-resume flush cannot zero-fill it.
    const auto every =
        static_cast<std::uint64_t>(surfaceOutput_->sampleEverySteps);
    surfaceWriter_->resumeFrom((step_ + every - 1) / every);
  }
  comm_.barrier();
}

void WaveSolver::restoreState(std::span<const std::byte> blob) {
  // The grid checks its share's exact size; the fault owns the tail.
  const std::size_t gridBytes =
      fault_ ? std::min(grid_->stateBytes(), blob.size()) : blob.size();
  grid_->restoreState(blob.first(gridBytes));
  if (fault_) fault_->restoreState(blob.subspan(gridBytes));
}

double WaveSolver::flopsExecuted() const {
  return static_cast<double>(step_) *
         static_cast<double>(grid_->dims().count()) *
         flopsPerPointPerStep(config_.attenuation.enabled);
}

}  // namespace awp::core
