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
//   output_sample_steps / output_decimation / output_aggregate = <n >= 1>
//   mesh_io         = prepartitioned | ondemand | direct
//   checksums       = on | off
//   health          = on | off           (numerical health guard)
//   health_interval = <steps>            (monitor scan cadence)
//   health_max_rollbacks = <n>
//   health_dt_tighten    = <factor in (0,1)>
//   health_growth_limit  = <ratio > 1>
//   health_dt_rewiden_window = <scans>   (0 = never re-widen dt)
//   health_dt_rewiden    = <factor > 1>  (walk-back step toward baseline)
//   telemetry_interval   = <steps>       (0 = report only at end of run)
//   telemetry_report     = <path>        (cluster JSON report, rank 0)
//   telemetry_trace      = <path prefix> (per-rank JSONL traces)
//   telemetry_chrome     = <path>        (chrome://tracing JSON array)
//
// The service layers (sched, fabric, serve, cycle) have no keys here:
// callers set ServiceConfig, FabricConfig, ServeConfig, CycleConfig and
// BridgeConfig directly.

#include <string>

#include "core/solver.hpp"

namespace awp::core {

enum class MeshIoMode { PrePartitioned, OnDemand, Direct };

struct RuntimeConfig {
  SolverConfig solver;
  SurfaceOutputConfig output;  // file left null; cadence fields populated
  MeshIoMode meshIo = MeshIoMode::PrePartitioned;
  bool checksums = true;
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
