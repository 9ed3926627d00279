// Scenario-service demonstration (and the CI chaos-job driver): an
// ensemble of wave scenarios runs concurrently under the service's
// admission control while the fault injector exercises both rungs of the
// rank recovery ladder:
//
//  - a fail-stop rank death mid-ensemble is repaired IN PLACE — the
//    supervisor respawns the lost rank, the replacement restores from its
//    ring buddy's in-memory checkpoint replica, and the attempt completes
//    with zero job requeues;
//  - a transient rank wedge shorter than the watchdog's debounce window
//    (watchdogMissThreshold consecutive missed scans) never opens a stall
//    episode — the rank recovers on its own and nothing is cancelled.
//
// A resubmitted member is then served from the product cache without
// re-execution. Exits nonzero unless every scenario completes, the death
// was repaired without a requeue, the transient stall stayed below the
// debounce threshold, and the service report validates.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "sched/report.hpp"
#include "sched/service.hpp"
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
  const fs::path work = fs::temp_directory_path() / "awp-ensemble-service";
  fs::remove_all(work);

  fault::FaultPlan plan;
  // Transient wedge on rank 0, shorter than the debounce window: the
  // watchdog sees missed heartbeats but fewer than watchdogMissThreshold
  // consecutive missed scans, so no stall episode opens and the wedged
  // rank simply resumes.
  plan.stall("solver.step", /*rank=*/0, /*occurrence=*/30, /*seconds=*/1.2);
  // Fail-stop loss of rank 1 mid-ensemble: the op stream is shared by the
  // concurrent jobs, so the 40th per-step consult lands mid-run in one of
  // them. The supervisor respawns the rank in place and the replacement
  // restores from its ring buddy's replica — no job requeue.
  plan.rankDeath(/*rank=*/1, /*occurrence=*/40);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  sched::ServiceConfig cfg;
  cfg.coreBudget = 8;  // four 2-rank scenarios in flight concurrently
  cfg.queueCapacity = 8;
  cfg.maxRetries = 3;
  // One in-place respawn before escalation; the replacement restores from
  // its buddy's diskless replica (on whenever the job checkpoints).
  cfg.respawnBudget = 1;
  cfg.stallTimeoutSeconds = 0.75;
  cfg.watchdogPollSeconds = 0.05;
  // Debounce: require 3 s of CONSECUTIVE missed scans before opening a
  // stall episode, so the 1.2 s transient wedge above stays sub-threshold.
  cfg.watchdogMissThreshold = 60;
  cfg.workDir = work.string();
  sched::ScenarioService service(cfg);

  // Four distinct members (different source amplitudes and lengths), all
  // admitted together so they run concurrently under the core budget.
  std::vector<sched::JobHandle> jobs;
  jobs.push_back(service.submit(member(32, 1.0e15, "member-a")));
  jobs.push_back(service.submit(member(32, 2.0e15, "member-b")));
  jobs.push_back(service.submit(member(40, 1.0e15, "member-c")));
  jobs.push_back(service.submit(member(40, 3.0e15, "member-d")));
  service.drain();

  bool ok = true;
  for (const auto& job : jobs) {
    ok &= expect(job->wait() == sched::JobPhase::Completed,
                 "every ensemble member completes");
    ok &= expect(job->products.find("surface.bin") != nullptr,
                 "completed member has a surface product");
    ok &= expect(job->products.find("pgvh.bin") != nullptr,
                 "completed member has a PGV-H product");
  }

  ok &= expect(injector.faultsInjected() >= 2,
               "both the transient stall and the rank death fired");
  // The rank loss was repaired in place: exactly one respawn, no
  // escalation, and ZERO job requeues anywhere in the ensemble.
  ok &= expect(service.stallEpisodes().empty(),
               "debounce suppressed the transient stall");

  // Resubmitting an unchanged member is a cache hit, not a re-run.
  auto resubmitted = service.submit(member(32, 1.0e15, "member-a-again"));
  ok &= expect(resubmitted->wait() == sched::JobPhase::Completed,
               "resubmission completes");
  ok &= expect(resubmitted->cacheHit, "resubmission served from cache");

  const auto report = service.report();
  ok &= expect(report.retries == 0, "zero job requeues across the ensemble");
  ok &= expect(report.respawns == 1, "exactly one in-place respawn");
  ok &= expect(report.respawnEscalations == 0, "the ladder never escalated");
  ok &= expect(report.cacheHits >= 1, "report shows the cache hit");
  ok &= expect(report.completed == 4, "report counts 4 executed completions");
  const auto violations = sched::validateServiceReportJson(toJson(report));
  for (const auto& v : violations)
    std::fprintf(stderr, "report violation: %s\n", v.c_str());
  ok &= expect(violations.empty(), "service report validates");

  const std::string reportPath = (work / "service_report.json").string();
  sched::writeServiceReportFile(reportPath, report);
  std::printf(
      "ensemble: %llu submitted, %llu completed, %llu respawns, %llu "
      "retries, %llu cache hits, %zu stall episode(s); report at %s\n",
      static_cast<unsigned long long>(report.submitted),
      static_cast<unsigned long long>(report.completed),
      static_cast<unsigned long long>(report.respawns),
      static_cast<unsigned long long>(report.retries),
      static_cast<unsigned long long>(report.cacheHits),
      service.stallEpisodes().size(), reportPath.c_str());
  return ok ? 0 : 1;
}
