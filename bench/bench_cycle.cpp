// Earthquake-cycle benchmark: stiffness-kernel apply throughput (the
// registered hot path of the interseismic loop), adaptive-stepping rate on
// a production-sized fault, and the end-to-end seeded sequence — detect a
// small event catalog and bridge it through a standalone ScenarioService
// into completed rupture scenarios. Records BENCH_cycle.json next to the
// working directory so CI keeps a trajectory of the cycle engine.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <unistd.h>
#include <vector>

#include "cycle/bridge.hpp"
#include "cycle/catalog.hpp"
#include "cycle/kernel.hpp"
#include "cycle/solver.hpp"
#include "sched/service.hpp"
#include "telemetry/json.hpp"
#include "util/table.hpp"

using namespace awp;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The catalog-producing sequence: cell-scale events on a small rough
// fault, same regime the cycle tests pin down (kc above the single-cell
// stiffness, heterogeneity staggering nucleation).
cycle::CycleConfig sequenceConfig() {
  cycle::CycleConfig config;
  config.nx = 24;
  config.nz = 8;
  config.cell = 500.0;
  config.friction.L = 0.005;
  config.interaction = 0.05;
  config.stencilRadius = 3;
  config.vpl = 1.0e-8;
  config.heterogeneity = 0.3;
  config.corrX = 4000.0;
  config.corrZ = 2000.0;
  config.seed = 11;
  config.years = 40.0;
  config.maxEvents = 3;
  return config;
}

}  // namespace

int main() {
  std::cout << "=== Earthquake-cycle engine ===\n\n";

  // --- stiffness-kernel apply throughput ----------------------------------
  // The per-step hot path: τ̇ = K·(V − Vpl) over a 96x32 fault with the
  // default radius-8 stencil (~200 taps plus the self term per node).
  const std::size_t knx = 96, knz = 32;
  cycle::StiffnessKernel kernel({knx, knz, 500.0, 30.0e9, 0.1, 0.25, 8});
  std::vector<double> v(knx * knz, 1.0e-9), tauRate(knx * knz, 0.0);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] += 1.0e-10 * static_cast<double>(i % 7);

  const int applies = 4000;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < applies; ++i) kernel.stressingRate(v, 1.0e-9, tauRate);
  const double applySeconds = secondsSince(t0);
  const double appliesPerSecond = applies / applySeconds;
  const double nodeUpdatesPerSecond =
      static_cast<double>(applies) * static_cast<double>(v.size()) /
      applySeconds;

  TextTable kt({"Kernel (96x32, radius 8)", "Rate"});
  kt.addRow({"stressing-rate applies",
             TextTable::num(appliesPerSecond, 0) + " /s"});
  kt.addRow({"node updates", TextTable::num(nodeUpdatesPerSecond / 1e6, 1) +
                                 " M/s"});
  kt.print(std::cout);
  std::cout << "\n";

  // --- adaptive stepping on a production-sized fault ----------------------
  // Fixed step count on the default 96x32 configuration: each step is two
  // kernel applies plus the per-node Newton strength solves.
  cycle::CycleConfig big;  // defaults: 96x32, VS rim, heterogeneity 0.3
  big.seed = 7;
  cycle::CycleSolver stepper(big);
  const std::uint64_t stepTarget = 3000;
  t0 = std::chrono::steady_clock::now();
  while (stepper.summary().steps < stepTarget) stepper.step();
  const double stepSeconds = secondsSince(t0);
  const double stepsPerSecond = static_cast<double>(stepTarget) / stepSeconds;
  const double simulatedYears =
      stepper.time() / (365.25 * 86400.0);

  TextTable st({"Stepping (96x32)", "Value"});
  st.addRow({"adaptive steps", TextTable::num(stepsPerSecond, 0) + " /s"});
  st.addRow({"simulated span", TextTable::num(simulatedYears, 1) + " yr"});
  st.addRow({"peak slip rate",
             TextTable::num(stepper.summary().peakSlipRate, 3) + " m/s"});
  st.print(std::cout);
  std::cout << "\n";

  // --- seeded sequence + catalog through a ScenarioService ----------------
  const cycle::CycleConfig seq = sequenceConfig();
  t0 = std::chrono::steady_clock::now();
  cycle::CycleSolver solver(seq);
  const cycle::CycleRunSummary summary = solver.run();
  const double sequenceSeconds = secondsSince(t0);

  const auto work = std::filesystem::temp_directory_path() /
                    ("awp_bench_cycle_" + std::to_string(::getpid()));
  std::filesystem::create_directories(work);
  sched::ServiceConfig cfg;
  cfg.coreBudget = 4;
  cfg.workDir = work.string();
  sched::ScenarioService service(cfg);

  cycle::BridgeConfig bridge;
  bridge.h = 600.0;
  bridge.steps = 12;
  bridge.nranks = 2;
  t0 = std::chrono::steady_clock::now();
  cycle::CycleCatalog catalog =
      cycle::submitCatalog(service, seq, summary, solver.events(), bridge);
  catalog.wallSeconds = secondsSince(t0);
  service.shutdown();

  int completed = 0;
  for (const cycle::CycleCatalogRow& row : catalog.rows)
    if (row.phase == "completed") ++completed;
  const bool ok = summary.eventsDetected >= 3 &&
                  completed == static_cast<int>(catalog.rows.size());

  TextTable ct({"Sequence -> catalog", "Value"});
  ct.addRow({"interseismic wall",
             TextTable::num(sequenceSeconds, 2) + " s"});
  ct.addRow({"solver steps", std::to_string(summary.steps)});
  ct.addRow({"events detected", std::to_string(summary.eventsDetected)});
  ct.addRow({"catalog wall", TextTable::num(catalog.wallSeconds, 2) + " s"});
  ct.addRow({"scenarios completed", std::to_string(completed) + "/" +
                                        std::to_string(catalog.rows.size())});
  ct.addRow({"catalog digest", catalog.digestHex()});
  ct.print(std::cout);

  // --- record the trajectory ----------------------------------------------
  telemetry::writeTextAtomically(
      "BENCH_cycle.json",
      telemetry::JsonWriter()
          .beginObject()
          .field("kernel_applies_per_second", appliesPerSecond)
          .field("kernel_node_updates_per_second", nodeUpdatesPerSecond)
          .field("solver_steps_per_second", stepsPerSecond)
          .field("solver_simulated_years", simulatedYears)
          .field("sequence_wall_seconds", sequenceSeconds)
          .field("sequence_steps", summary.steps)
          .field("sequence_events", summary.eventsDetected)
          .field("catalog_wall_seconds", catalog.wallSeconds)
          .field("catalog_scenarios_completed", completed)
          .endObject()
          .str());
  std::cout << "\nrecorded BENCH_cycle.json\n";

  std::filesystem::remove_all(work);
  if (!ok) {
    std::cerr << "cycle bench FAILED (events=" << summary.eventsDetected
              << ", completed=" << completed << "/" << catalog.rows.size()
              << ")\n";
    return 1;
  }
  return 0;
}
