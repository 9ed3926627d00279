#pragma once
// Run-time simulation configuration (§III.G): "A unique feature
// facilitates a run-time simulation configuration that is able to
// determine architecture-dependent handling to maximize our solver and/or
// I/O performance. ... Alternative options also include selection of cache
// blocking size, communication models (asynchronous, computing/
// communication overlap), the selection of spatial and temporal decimation
// of outputs, serial pre-partitioned or parallel on-demand I/O, the
// inclusion of parallel checksums, and collection of performance
// characteristics."
//
// Format: one `key = value` per line, '#' comments. Keys:
//   comm            = async | sync
//   reduced_comm    = on | off
//   overlap         = on | off
//   cache_block     = off | <kblock>x<jblock>       (e.g. 16x8)
//   unroll          = on | off
//   reciprocals     = on | off
//   hybrid_threads  = <n>
//   absorbing       = sponge | pml | none
//   sponge_width    = <cells>
//   pml_width       = <cells>
//   free_surface    = on | off
//   attenuation     = on | off
//   dt              = <seconds>          (0 = CFL-derived)
//   output_sample_steps / output_decimation / output_aggregate = <n>
//   mesh_io         = prepartitioned | ondemand | direct
//   checksums       = on | off
//   health          = on | off           (numerical health guard)
//   health_interval = <steps>            (monitor scan cadence)
//   health_max_rollbacks = <n>
//   health_dt_tighten    = <factor in (0,1)>
//   health_growth_limit  = <ratio > 1>
//   health_watchdog_miss_threshold = <n> (consecutive missed watchdog scans
//                                        before a stall episode opens;
//                                        debounce of the per-job watchdog)
//   health_dt_rewiden_window = <scans>   (0 = never re-widen dt)
//   health_dt_rewiden    = <factor > 1>  (walk-back step toward baseline)
//   telemetry            = on | off      (install a telemetry session)
//   telemetry_interval   = <steps>       (0 = report only at end of run)
//   telemetry_report     = <path>        (cluster JSON report, rank 0)
//   telemetry_trace      = <path prefix> (per-rank JSONL traces)
//   telemetry_chrome     = <path>        (chrome://tracing JSON array)
//   telemetry_ring       = <spans>       (per-rank trace ring capacity)
//   sched_workers        = <n>           (scenario-service core budget)
//   sched_memory_mb      = <mb>          (0 = unlimited admission memory)
//   sched_queue_capacity = <n>           (bounded admission queue depth)
//   sched_admission      = reject | block (backpressure policy when full)
//   sched_max_retries    = <n>           (requeues before a job is poison)
//   sched_stall_timeout  = <seconds>     (per-job watchdog timeout)
//   sched_cancel_check   = <steps>       (collective cancel-poll cadence)
//   sched_retry_dt_tighten = <factor in (0,1]> (dt scale on fatal-verdict
//                                        requeue; crash/stall retries keep dt)
//   sched_respawn_budget = <n>           (in-place rank respawns per attempt;
//                                        0 = immediate cancel-and-requeue)
//   sched_cache          = on | off      (memoize completed products)
//   sched_cache_dir      = <path>        ("" = in-memory cache only)
//   sched_work_dir       = <path>        (per-job checkpoints + surface files)
//   fabric_brokers       = <n>           (hazard-fabric broker count)
//   fabric_vnodes        = <n>           (consistent-hash vnodes per broker)
//   fabric_lease_seconds = <seconds>     (membership lease duration)
//   fabric_heartbeat_seconds = <seconds> (lease renewal cadence)
//   fabric_degraded_misses = <n>         (consecutive failed renewals before
//                                        a broker enters degraded mode)
//   fabric_pump_interval = <seconds>     (broker pump-loop tick)
//   fabric_forward_attempts = <n>        (util/retry attempts per forward)
//   fabric_root_dir      = <path>        (per-broker work dirs + the shared
//                                        cache tier; "" = <tmp>/awp-fabric)
//   serve_tile           = <points>      (square tile edge of the serving
//                                        tier's surface-product tiles)
//   serve_window         = <samples>     (min new surface samples between
//                                        partial-map tile publishes)
//   serve_partial        = on | off      (publish mid-run partial maps;
//                                        off = completion publishes only)
//   serve_reconcile_ticks = <n>          (broker pump ticks between serving
//                                        anti-entropy reconcile passes)
//   cycle_nx             = <nodes>       (cycle fault nodes along strike)
//   cycle_nz             = <nodes>       (cycle fault nodes down dip)
//   cycle_cell           = <meters>      (cycle-grid node spacing)
//   cycle_years          = <years>       (simulated interseismic span)
//   cycle_max_events     = <n>           (stop after n detected events;
//                                        0 = run the full span)
//   cycle_seed           = <n>           (heterogeneity seed; the whole
//                                        catalog is reproducible from it)
//   cycle_event_rate     = <m/s>         (peak slip rate opening an event
//                                        window)
//   cycle_lock_rate      = <m/s>         (peak slip rate closing/healing
//                                        the window)
//   cycle_priority       = <n>           (submission priority of bridged
//                                        rupture scenarios)

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/solver.hpp"

namespace awp::core {

enum class MeshIoMode { PrePartitioned, OnDemand, Direct };

// Scenario-service knobs (consumed by sched::ServiceConfig::fromRuntime;
// kept as a plain struct here so core does not depend on src/sched).
struct SchedKnobs {
  int workers = 4;                 // global core budget for leases
  std::size_t memoryMb = 0;        // admission memory budget (0 = unlimited)
  int queueCapacity = 16;          // bounded priority queue depth
  bool admitBlock = false;         // full queue: false = reject, true = block
  int maxRetries = 2;              // requeues before Failed (poison)
  double stallTimeoutSeconds = 30.0;  // per-job watchdog timeout
  int cancelCheckEverySteps = 2;   // collective cancel-poll cadence
  double retryDtTighten = 0.5;     // dt scale on fatal-verdict requeue
  int respawnBudget = 1;           // in-place respawns per attempt (0 = none)
  int watchdogMissThreshold = 1;   // missed scans before a stall episode
  bool cacheProducts = true;       // memoize completed scenario products
  std::string cacheDir;            // "" = in-memory artifact cache only
  std::string workDir;             // "" = std::filesystem::temp_directory_path
};

// Hazard-fabric knobs (consumed by fabric::FabricConfig::fromRuntime; a
// plain struct here so core does not depend on src/fabric).
struct FabricKnobs {
  int brokers = 3;                  // in-process broker instances
  int vnodes = 64;                  // consistent-hash vnodes per broker
  double leaseSeconds = 1.0;        // membership lease duration
  double heartbeatSeconds = 0.25;   // lease renewal cadence
  int degradedAfterMisses = 2;      // failed renewals before degraded mode
  double pumpIntervalSeconds = 0.01;  // broker pump-loop tick
  int forwardAttempts = 4;          // util/retry attempts per forward
  std::string rootDir;              // "" = <tmp>/awp-fabric
};

// Earthquake-cycle knobs (consumed by cycle::CycleConfig::fromRuntime; a
// plain struct here so core does not depend on src/cycle).
struct CycleKnobs {
  int nx = 96;                 // fault nodes along strike
  int nz = 32;                 // fault nodes down dip
  double cellMeters = 500.0;   // cycle-grid node spacing [m]
  double years = 600.0;        // simulated interseismic span
  int maxEvents = 0;           // stop after n detected events (0 = no cap)
  std::uint64_t seed = 1;      // heterogeneity seed
  double eventRate = 1.0e-3;   // slip rate opening an event window [m/s]
  double lockRate = 1.0e-5;    // slip rate closing (healing) the window
  int priority = 5;            // priority of bridged rupture scenarios
};

// Hazard-serving knobs (consumed by serve::ServeConfig::fromRuntime; a
// plain struct here so core does not depend on src/serve).
struct ServeKnobs {
  int tileEdge = 16;             // square tile size in surface points
  int windowSamples = 4;         // min samples between partial publishes
  bool partialPublish = true;    // mid-run folding + tile publishes
  int reconcileEveryTicks = 50;  // broker pump ticks between reconciles
};

struct RuntimeConfig {
  SolverConfig solver;
  SurfaceOutputConfig output;  // file left null; cadence fields populated
  MeshIoMode meshIo = MeshIoMode::PrePartitioned;
  bool checksums = true;
  // Telemetry session knobs (the report cadence and paths live in
  // solver.telemetry): whether the harness should install a session at
  // all, and the span ring capacity per rank.
  bool telemetryEnabled = false;
  std::size_t telemetryRingCapacity = std::size_t{1} << 16;
  // Scenario-service knobs (sched_* keys).
  SchedKnobs sched;
  // Hazard-fabric knobs (fabric_* keys).
  FabricKnobs fabric;
  // Hazard-serving knobs (serve_* keys).
  ServeKnobs serve;
  // Earthquake-cycle knobs (cycle_* keys).
  CycleKnobs cycle;
};

// Parse `key = value` text into a RuntimeConfig starting from defaults.
// Unknown keys or malformed values throw awp::Error with the line number.
RuntimeConfig parseRuntimeConfig(const std::string& text,
                                 const RuntimeConfig& defaults = {});

// Read and parse a configuration file.
RuntimeConfig loadRuntimeConfig(const std::string& path,
                                const RuntimeConfig& defaults = {});

// Architecture-dependent defaults for the Table 1 machines — the
// "determination of fundamental system attributes" of §III.G: NUMA
// machines get the asynchronous model; Lustre machines prefer
// pre-partitioned input; blocking tuned per cache hierarchy.
RuntimeConfig defaultsForMachine(const std::string& machineName);

}  // namespace awp::core
