#pragma once
// AWM: the anelastic wave propagation solver — AWP-ODC's "wave mode"
// (Fig 6). One instance per rank; the time loop performs
//   velocity update -> velocity exchange -> free-surface velocity images ->
//   [fault: slip rates] -> stress update (+ sponge stress taper) ->
//   source injection -> [fault: traction bounding] ->
//   free-surface stress images -> sponge -> stress exchange ->
//   observation / output / checkpoint
// with each phase recorded as a telemetry span (telemetry/taxonomy.hpp maps
// the spans onto the Eq. (7) buckets). The bracketed steps run only when a
// FaultPlugin is attached: dynamic rupture ("SGSN mode") is this same loop
// with the fault as an interior boundary condition.
//
// The sponge's stress taper runs in the stress kernel's store when nothing
// writes a damped stress cell after it (no source in the damped zone, no
// FaultPlugin, undamped rows under the free-surface images); the sponge
// pass then tapers only u, v and w. Otherwise the pass tapers all nine
// fields. Either way it runs before the stress exchange, so every rank
// sends tapered stresses and the choice stays per rank: both paths give
// the same bits. A due checkpoint takes one snapshot of the rank state;
// the buddy store keeps it and a background CheckpointWriter writes it
// while the next steps run.
//
// Configuration covers every §IV optimization so that benches can toggle
// them independently: kernel variants, sync/async exchange, reduced
// communication, per-component computation/communication interleaving
// (overlap), sponge vs M-PML absorbing boundaries, aggregated surface
// output and checkpoint cadence.

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/free_surface.hpp"
#include "core/geometry.hpp"
#include "core/kernels.hpp"
#include "core/pml.hpp"
#include "core/receivers.hpp"
#include "core/source.hpp"
#include "core/sponge.hpp"
#include "core/surface_layout.hpp"
#include "grid/halo.hpp"
#include "grid/staggered_grid.hpp"
#include "health/guard.hpp"
#include "io/aggregated_writer.hpp"
#include "io/buddy.hpp"
#include "io/checkpoint.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/report.hpp"
#include "vcluster/cart.hpp"
#include "vcluster/comm.hpp"

namespace awp::core {

enum class AbsorbingType { None, Sponge, Pml };

// Where and how often the solver emits telemetry aggregates. Only
// consulted while a telemetry session is installed; spans and counters
// themselves are recorded by the hooks regardless of these knobs.
struct TelemetryOutputConfig {
  int reportEverySteps = 0;      // 0 = only at end of run()
  std::string reportPath;        // cluster JSON report (rank 0; "" = none)
  std::string tracePathPrefix;   // per-rank JSONL: <prefix>.rankN.jsonl
  std::string chromeTracePath;   // whole-session chrome://tracing array
                                 // written by rank 0 at end of run ("" = none)
  // Whether run() performs collective aggregation at all. The scenario
  // service shares one session across concurrent jobs and aggregates
  // itself after shutdown; a job solver aggregating mid-flight would read
  // the off-rank slot while the dispatcher is still writing spans to it.
  bool emitAggregates = true;
};

struct SolverConfig {
  grid::GridDims globalDims;
  double h = 100.0;
  double dt = 0.0;  // 0 = derive from CFL after material load

  grid::AttenuationConfig attenuation;
  KernelOptions kernels;

  grid::HaloExchanger::Mode commMode =
      grid::HaloExchanger::Mode::Asynchronous;
  bool reducedComm = true;
  bool overlap = false;  // per-component interleaving (§IV.C)
  // §IV.D hybrid MPI/OpenMP analogue: intra-rank threads sharing this
  // rank's subgrid (1 = pure message passing).
  int hybridThreads = 1;

  AbsorbingType absorbing = AbsorbingType::Sponge;
  int spongeWidth = 20;
  PmlConfig pml;
  bool freeSurface = true;

  // Runtime health guard (preflight + blow-up monitor + rollback budget).
  health::HealthConfig health;

  // Telemetry emission (see src/telemetry; no-op without a session).
  TelemetryOutputConfig telemetry;
};

// Optional aggregated surface-velocity output (§III.E).
struct SurfaceOutputConfig {
  io::SharedFile* file = nullptr;
  int sampleEverySteps = 10;   // temporal decimation (M8: every 20th step)
  int spatialDecimation = 1;   // write every Nth surface point
  int flushEverySamples = 10;  // aggregation depth (1 = unbuffered)
  // Optional durable-prefix observer (serving tier): fires on the rank
  // thread after each flush/resume that advances this rank's flushed
  // sample prefix. Only surface ranks own a writer, so only they call it.
  io::FlushObserver flushObserver;
};

// An interior boundary condition stepped inside the time loop: the
// dynamic-rupture fault (src/rupture). Its state is appended to the rank's
// checkpoint blob, so disk, buddy, rollback and respawn restores carry it.
class FaultPlugin {
 public:
  virtual ~FaultPlugin() = default;
  // After the free-surface velocity images: slip-rate bookkeeping.
  virtual void afterVelocity(const grid::StaggeredGrid& g,
                             std::size_t step) = 0;
  // After source injection, before the stress images: traction bounding.
  virtual void afterStress(grid::StaggeredGrid& g) = 0;
  // Append this rank's state to `blob` / restore it from the blob's tail.
  virtual void saveState(std::vector<std::byte>& blob) const = 0;
  virtual void restoreState(std::span<const std::byte> state) = 0;
};

class WaveSolver {
 public:
  // Collective: build the solver on every rank. The mesh block must match
  // the rank's subdomain under `topo`.
  WaveSolver(vcluster::Communicator& comm, const vcluster::CartTopology& topo,
             const SolverConfig& config, const mesh::MeshBlock& block);
  // Uniform-material convenience constructor.
  WaveSolver(vcluster::Communicator& comm, const vcluster::CartTopology& topo,
             const SolverConfig& config, const vmodel::Material& material);

  // Sources/receivers must be added before the first step.
  void addSource(MomentRateSource src);
  void addReceiver(std::string name, std::size_t gi, std::size_t gj);
  void attachSurfaceOutput(const SurfaceOutputConfig& out);
  // Non-owning: the store must outlive the solver, whose checkpoint
  // writer may commit to it until the solver is destroyed.
  void attachCheckpoints(io::CheckpointStore* store, int everySteps);
  // Diskless buddy checkpointing (recovery ladder rung 1): at the given
  // cadence each rank keeps its serialized state in `store` and replicates
  // it to its ring buddy over the cluster. restart() prefers these blobs
  // over the on-disk store. Collective once attached: every rank must
  // attach with the same cadence.
  void attachBuddies(io::BuddyStore* store, int everySteps);
  // Non-owning; attach before the first step or restart().
  void attachFault(FaultPlugin* fault);

  void step();
  void run(std::size_t nSteps,
           const std::function<void(std::size_t)>& onStep = nullptr);

  // Restart from the newest checkpoint in the attached store (collective).
  void restart();

  [[nodiscard]] std::size_t currentStep() const { return step_; }
  // The effective time step (CFL-derived when the config asked for dt = 0,
  // and tightened by health-guard rollbacks).
  [[nodiscard]] double dt() const { return config_.dt; }
  [[nodiscard]] bool dtDerived() const { return dtDerived_; }
  // Whether the stress kernel applies the sponge's stress taper at its
  // store (see the header comment); false without an active sponge.
  [[nodiscard]] bool spongeFused() const { return spongeFused_; }
  // The health guard, when config.health.enabled (nullptr otherwise) —
  // tests and harnesses read its event trail.
  [[nodiscard]] health::HealthGuard* healthGuard() { return guard_.get(); }
  [[nodiscard]] grid::StaggeredGrid& grid() { return *grid_; }
  [[nodiscard]] const DomainGeometry& geometry() const { return geom_; }
  [[nodiscard]] const SolverConfig& config() const { return config_; }
  [[nodiscard]] SurfaceMonitor& surface() { return *surface_; }
  [[nodiscard]] ReceiverSet& receivers() { return receivers_; }
  [[nodiscard]] vcluster::Communicator& comm() { return comm_; }

  // Useful flops executed so far (for sustained-performance accounting).
  [[nodiscard]] double flopsExecuted() const;

  // The newest cluster telemetry report (rank 0 only; !valid() elsewhere
  // or before the first emission).
  [[nodiscard]] const telemetry::ClusterReport& lastTelemetryReport() const {
    return lastTelemetryReport_;
  }

 private:
  void init(const mesh::MeshBlock& block);
  void velocityPhase();
  void stressPhase();
  void observationPhase();
  // Per-step fault/fence consult (out-of-line: keeps `throw` sites off the
  // AWP_HOT step body). Fences a zombie incarnation before it can beat the
  // heartbeat or write spans, and services the rank_death / solver.step
  // injection sites.
  void stepEntryChecks();
  // Decide whether the stress kernel applies the sponge's stress taper at
  // its store (spongeFused_). Re-run whenever a source or fault attaches.
  void planSponge();
  // Collective. Drain the previous disk write, agree on the checkpoint
  // veto (a non-finite field or a failed write on any rank), then persist
  // this rank's serialized state to disk and/or the buddy store (includes
  // the ring replica exchange when toBuddy). The disk write is handed to
  // checkpointWriter_. Not hot: runs on the checkpoint cadence only.
  void persistState(bool toDisk, bool toBuddy);
  // Wait for the in-flight checkpoint write, inside a Checkpoint span;
  // rethrows its error.
  void drainCheckpointWrite();
  // Restore a blob written by persistState: grid state, then fault state.
  void restoreState(std::span<const std::byte> blob);
  [[nodiscard]] health::PreflightContext buildPreflightContext(
      std::size_t plannedSteps) const;
  // Collective recovery from a Fatal cluster verdict: roll back to the
  // agreed checkpoint generation and tighten dt, or (budget exhausted /
  // nothing to restore) throw the structured diagnostic dump on every rank.
  void handleBlowup(const health::ClusterVerdict& cv);
  // After a Healthy streak on a tightened dt, walk dt back toward the
  // baseline (collective: every rank sees the same streak and factors).
  void maybeRewiden();
  // Collective telemetry aggregation + report/trace emission.
  void emitTelemetry(double wallSeconds, bool endOfRun);

  vcluster::Communicator& comm_;
  const vcluster::CartTopology& topo_;
  SolverConfig config_;
  DomainGeometry geom_;

  std::unique_ptr<ThreadPool> pool_;  // §IV.D hybrid mode
  std::unique_ptr<grid::StaggeredGrid> grid_;
  std::unique_ptr<grid::HaloExchanger> halo_;
  std::unique_ptr<FreeSurface> freeSurface_;
  std::unique_ptr<SpongeLayer> sponge_;
  bool spongeFused_ = false;  // stress taper applied by updateStress
  std::unique_ptr<PmlBoundary> pml_;
  std::unique_ptr<SurfaceMonitor> surface_;

  SourceSet sources_;
  ReceiverSet receivers_;

  std::optional<SurfaceOutputConfig> surfaceOutput_;
  std::unique_ptr<io::AggregatedWriter> surfaceWriter_;
  SurfaceBlock surfaceBlock_;  // this rank's block of the surface record
  // Preallocated (in attachSurfaceOutput) staging for one decimated surface
  // sample: observationPhase is on the hot path and must not allocate.
  std::vector<float> surfaceSample_;

  io::CheckpointStore* checkpoints_ = nullptr;
  int checkpointEvery_ = 0;
  // Its destructor waits for the in-flight write, so an unwinding solver
  // (rank death, respawn, cancel) never leaves a write running.
  io::CheckpointWriter checkpointWriter_;
  io::BuddyStore* buddies_ = nullptr;
  int buddyEvery_ = 0;
  FaultPlugin* fault_ = nullptr;

  std::unique_ptr<health::HealthGuard> guard_;
  bool preflightDone_ = false;
  bool dtDerived_ = false;
  double dtBaseline_ = 0.0;  // dt before any health-guard tightening

  std::size_t step_ = 0;

  // Rollback-replay window: opened on a successful rollback, closed when
  // the solver re-reaches the step it rolled back from.
  // awplint: manual-span(opens in handleBlowup and closes steps later in run; no lexical scope spans the replay window)
  telemetry::ManualSpan replaySpan_;
  std::size_t replayTarget_ = 0;
  double wallSeconds_ = 0.0;  // accumulated across run() calls
  telemetry::ClusterReport lastTelemetryReport_;
};

}  // namespace awp::core
