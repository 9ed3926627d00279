// Hazard-fabric demonstration: an ensemble of wave scenarios runs across
// three sharded scenario brokers while a fault plan fail-stops one of
// them mid-flight. The dead broker's lease lapses, the membership epoch
// bumps, its hash range moves to the survivors, and its scenarios replay
// from the submission log (resuming from the shared checkpoint tier when
// one was mid-run) — every product still arrives, exactly once, and the
// fabric report records the whole episode: view epochs, replays,
// handoffs, per-site retry stats.
//
// Exits nonzero unless every scenario completes exactly once after the
// broker death and every broker's service report validates.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "fault/injector.hpp"
#include "sched/report.hpp"
#include "sched/spec.hpp"

using namespace awp;
namespace fs = std::filesystem;

namespace {

sched::ScenarioSpec member(std::uint64_t steps, double amplitude,
                           const std::string& name) {
  sched::ScenarioSpec spec;
  spec.kind = sched::ScenarioKind::Wave;
  spec.dims = {32, 24, 16};
  spec.h = 600.0;
  spec.steps = steps;
  spec.nranks = 2;
  spec.useCvm = true;
  spec.checkpointEverySteps = 8;
  spec.surfaceSampleEverySteps = 2;
  spec.healthEverySteps = 5;
  spec.sourceAmplitude = amplitude;
  spec.name = name;
  return spec;
}

bool expect(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "FAIL: %s\n", what);
  return ok;
}

}  // namespace

int main() {
  const fs::path root = fs::temp_directory_path() / "awp-fabric-ensemble";
  fs::remove_all(root);

  // Fail-stop broker 1 at its 4th pump tick with some of the ensemble's
  // scenarios in flight there.
  fault::FaultPlan plan;
  plan.brokerDeath(/*broker=*/1, /*occurrence=*/4);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  fabric::FabricConfig config;
  config.brokers = 3;
  config.rootDir = root.string();
  config.leaseSeconds = 0.4;       // quick detection for the demo
  config.heartbeatSeconds = 0.08;
  config.pumpIntervalSeconds = 0.005;
  config.service.coreBudget = 4;   // two 2-rank scenarios per broker
  config.service.queueCapacity = 16;
  fabric::HazardFabric fabric(config);

  std::vector<fabric::FabricJobHandle> jobs;
  jobs.push_back(fabric.submit(member(120, 1.0e15, "member-a")));
  jobs.push_back(fabric.submit(member(120, 2.0e15, "member-b")));
  jobs.push_back(fabric.submit(member(130, 1.0e15, "member-c")));
  jobs.push_back(fabric.submit(member(130, 3.0e15, "member-d")));
  jobs.push_back(fabric.submit(member(140, 2.0e15, "member-e")));
  jobs.push_back(fabric.submit(member(140, 4.0e15, "member-f")));
  fabric.drain();

  bool ok = true;
  for (const auto& job : jobs) {
    ok &= expect(job->wait() == sched::JobPhase::Completed,
                 "every ensemble member completes despite the death");
    std::lock_guard<std::mutex> lock(job->mu);
    ok &= expect(job->completions == 1, "each digest settled exactly once");
    ok &= expect(job->products.find("pgvh.bin") != nullptr,
                 "completed member has a PGV-H product");
  }
  ok &= expect(fabric.brokerState(1) == fabric::BrokerState::Dead,
               "the doomed broker fail-stopped");

  const fabric::FabricReport report = fabric.report();
  ok &= expect(report.completed == jobs.size(), "all members completed");
  ok &= expect(report.failed == 0, "zero lost products");
  ok &= expect(report.liveBrokers == 2, "two survivors hold the view");
  ok &= expect(report.viewEpoch >= 2, "the death bumped the epoch");
  for (const auto& broker : report.brokers) {
    const auto violations =
        sched::validateServiceReportJson(sched::toJson(broker));
    for (const auto& v : violations)
      std::fprintf(stderr, "broker report violation: %s\n", v.c_str());
    ok &= expect(violations.empty(), "broker service report validates");
  }

  std::printf(
      "fabric: %llu submitted, %llu completed, epoch %llu, %d live; "
      "%llu forwards, %llu replays, %llu handoffs, %llu deduped\n",
      static_cast<unsigned long long>(report.submitted),
      static_cast<unsigned long long>(report.completed),
      static_cast<unsigned long long>(report.viewEpoch),
      report.liveBrokers,
      static_cast<unsigned long long>(report.counters.forwards),
      static_cast<unsigned long long>(report.counters.replays),
      static_cast<unsigned long long>(report.counters.handoffs),
      static_cast<unsigned long long>(report.counters.dedupHits));
  for (const std::string& ev : fabric.events())
    std::printf("  event: %s\n", ev.c_str());
  fabric.shutdown();
  return ok ? 0 : 1;
}
