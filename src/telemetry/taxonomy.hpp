#pragma once
// The fixed phase taxonomy and counter set of the telemetry subsystem.
// Phases attribute wall-clock time to the solver's hot paths (the paper's
// Fig 12 compute/comm/I-O breakdown, at finer grain); counters record
// monotone work and event totals. Both are closed enums so per-rank
// storage is a flat array, aggregation is index-aligned across ranks, and
// the report schema is stable for the bench harness.

#include <array>
#include <cstddef>
#include <string_view>

namespace awp::telemetry {

// Span phases. Order is the report order; names are the JSON identifiers.
enum class Phase : std::size_t {
  VelocityKernel = 0,  // velocity FD update (incl. free-surface images)
  StressKernel,        // stress FD update + source injection
  HaloPack,            // packing exchange planes into send buffers
  HaloExchange,        // posting/completing the exchange (incl. waits)
  HaloUnpack,          // unpacking received planes into ghost cells
  Absorb,              // sponge taper / PML split-field updates
  Rupture,             // fault traction bounding + slip-rate bookkeeping
  Checkpoint,          // checkpoint write/read incl. the collective veto
  Output,              // observation recording + aggregated surface output
  HealthScan,          // preflight + in-loop monitor scans (collective)
  Transfer,            // wide-area transfer leg of the workflow
  RollbackReplay,      // re-execution window after a rollback
  SchedQueue,          // scenario-service admission-queue pop
  SchedDispatch,       // scenario-service lease dispatch + job launch
  RespawnQuiesce,      // surviving rank fenced at the respawn epoch fence
  FabricRoute,         // hazard-fabric owner lookup + local/forward split
  FabricHeartbeat,     // broker lease renewal + membership-view poll
  FabricForward,       // cross-broker submission forwarding (incl. retry)
  ServePublish,        // serving tier: tile fold + publish of a window
  ServeQuery,          // serving tier: exceedance/max query streaming
  ServeNotify,         // serving tier: subscription delta delivery
  CycleStep,           // cycle engine: one adaptive quasi-dynamic step
  CycleBridge,         // cycle engine: event -> scenario-spec submission
  kCount
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

inline constexpr std::array<std::string_view, kPhaseCount> kPhaseJsonNames = {
    "velocity_kernel", "stress_kernel", "halo_pack",   "halo_exchange",
    "halo_unpack",     "absorb",        "rupture",     "checkpoint",
    "output",          "health_scan",   "transfer",    "rollback_replay",
    "sched_queue",     "sched_dispatch", "respawn_quiesce",
    "fabric_route",    "fabric_heartbeat", "fabric_forward",
    "serve_publish",   "serve_query",   "serve_notify",
    "cycle_step",      "cycle_bridge"};

[[nodiscard]] inline std::string_view toString(Phase p) {
  return kPhaseJsonNames[static_cast<std::size_t>(p)];
}

// The paper's Eq. (7) decomposition Ttot = Tcomp + Tcomm + Tsync +
// γToutput + φTreini, and the bucket each span phase's time is charged to
// (Fig 12's breakdown is read off a telemetry report through this table).
enum class Eq7Bucket : std::size_t { Compute = 0, Comm, Sync, Output, Reinit,
                                     kCount };

inline constexpr std::size_t kEq7BucketCount =
    static_cast<std::size_t>(Eq7Bucket::kCount);

inline constexpr std::array<std::string_view, kEq7BucketCount>
    kEq7BucketNames = {"compute", "comm", "sync", "output", "reinit"};

// Indexed by Phase.
inline constexpr auto kPhaseEq7Buckets = std::to_array<Eq7Bucket>({
    Eq7Bucket::Compute,  // VelocityKernel
    Eq7Bucket::Compute,  // StressKernel
    Eq7Bucket::Comm,     // HaloPack
    Eq7Bucket::Comm,     // HaloExchange (incl. waits)
    Eq7Bucket::Comm,     // HaloUnpack
    Eq7Bucket::Compute,  // Absorb
    Eq7Bucket::Compute,  // Rupture
    Eq7Bucket::Output,   // Checkpoint
    Eq7Bucket::Output,   // Output
    Eq7Bucket::Sync,     // HealthScan (collective verdicts)
    Eq7Bucket::Output,   // Transfer
    Eq7Bucket::Reinit,   // RollbackReplay
    Eq7Bucket::Sync,     // SchedQueue
    Eq7Bucket::Sync,     // SchedDispatch
    Eq7Bucket::Reinit,   // RespawnQuiesce
    Eq7Bucket::Comm,     // FabricRoute
    Eq7Bucket::Comm,     // FabricHeartbeat
    Eq7Bucket::Comm,     // FabricForward
    Eq7Bucket::Output,   // ServePublish
    Eq7Bucket::Output,   // ServeQuery
    Eq7Bucket::Output,   // ServeNotify
    Eq7Bucket::Compute,  // CycleStep
    Eq7Bucket::Comm,     // CycleBridge
});
static_assert(kPhaseEq7Buckets.size() == kPhaseCount,
              "every Phase needs an Eq. (7) bucket");

// Monotone counters and event totals. Cheap relaxed-atomic increments.
enum class Counter : std::size_t {
  CellsUpdated = 0,      // grid cells advanced one full time step
  FlopsEstimated,        // flops implied by the kernel launches
  HaloBytesSent,
  HaloBytesReceived,
  HaloMessages,
  CheckpointWrites,
  CheckpointBytes,
  CheckpointVetoes,      // collective refusals to persist non-finite state
  OutputBytes,           // aggregated observation bytes written
  WriteRetries,          // retried output write attempts
  TransferBytes,
  TransferRetries,
  Rollbacks,
  DtTightenEvents,       // dt tightened after a rollback
  DtRewidenEvents,       // dt walked back toward the CFL-derived value
  ObservationsRewritten, // step-indexed records overwritten on replay
  SpansDropped,          // ring-buffer overflow (trace truncated)
  ScenariosSubmitted,    // scenario-service submissions accepted or merged
  ScenariosCompleted,    // scenarios settled with products
  ScenariosRejected,     // admission backpressure rejections
  ScenarioRetries,       // requeues after crash/stall/fatal verdicts
  ScenarioCacheHits,     // completed specs served from the artifact cache
  RankRespawns,          // in-place rank respawns (recovery ladder rung 2)
  RespawnEscalations,    // respawn ladder fell back to cancel-and-requeue
  BuddyBlobsReplicated,  // checkpoint blobs shipped to the ring buddy
  BuddyRestores,         // restarts served from the in-memory buddy store
  FabricForwards,        // submissions forwarded to a remote owner broker
  FabricReplays,         // submission-log records replayed after a handoff
  FabricHandoffs,        // checkpoint/surface tiers adopted from a lost owner
  FabricViewChanges,     // membership-view epoch bumps observed by brokers
  FabricDegradedHolds,   // submissions parked by a degraded (partitioned) broker
  FabricDedupHits,       // duplicate digests absorbed (forward/replay/at-least-once)
  ServeTilesPublished,   // tile versions made visible to the tile index
  ServeTileBytes,        // payload bytes behind published tile versions
  ServeChunkDedups,      // tile chunks already present in the cache tier
  ServePublishDrops,     // window publishes lost to injected drops
  ServeQueries,          // exceedance/max-over-catalog queries answered
  ServeTilesScanned,     // tiles streamed through the query path
  ServeNotifies,         // subscription deltas delivered to clients
  ServeReconciles,       // anti-entropy passes re-publishing lagging tiles
  CycleSteps,            // adaptive quasi-dynamic steps taken
  CycleEventsDetected,   // slip-rate windows opened (nucleations)
  CycleEventsSubmitted,  // cycle events bridged into scenario submissions
  CycleStatePerturbs,    // injected state perturbations absorbed
  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

inline constexpr std::array<std::string_view, kCounterCount>
    kCounterJsonNames = {
        "cells_updated",      "flops_estimated",    "halo_bytes_sent",
        "halo_bytes_received", "halo_messages",     "checkpoint_writes",
        "checkpoint_bytes",   "checkpoint_vetoes",  "output_bytes",
        "write_retries",      "transfer_bytes",     "transfer_retries",
        "rollbacks",          "dt_tighten_events",  "dt_rewiden_events",
        "observations_rewritten", "spans_dropped",
        "scenarios_submitted", "scenarios_completed", "scenarios_rejected",
        "scenario_retries",   "scenario_cache_hits",
        "rank_respawns",      "respawn_escalations",
        "buddy_blobs_replicated", "buddy_restores",
        "fabric_forwards",    "fabric_replays",      "fabric_handoffs",
        "fabric_view_changes", "fabric_degraded_holds",
        "fabric_dedup_hits",
        "serve_tiles_published", "serve_tile_bytes",
        "serve_chunk_dedups", "serve_publish_drops", "serve_queries",
        "serve_tiles_scanned", "serve_notifies", "serve_reconciles",
        "cycle_steps", "cycle_events_detected", "cycle_events_submitted",
        "cycle_state_perturbs"};

[[nodiscard]] inline std::string_view toString(Counter c) {
  return kCounterJsonNames[static_cast<std::size_t>(c)];
}

}  // namespace awp::telemetry
