// Hazard-server chaos driver: a scenario ensemble runs across three
// sharded brokers while a subscribed client watches tile-version deltas
// for its extent and issues exceedance queries mid-run. The fault plan
// fail-stops one broker AND drops the first window publishes of every
// origin — the serving tier must still converge every subscribed tile to
// its final complete version, partial maps must be queryable before
// completion with honest staleness, and the exceedance answer over the
// settled catalog must match a brute-force fold of the partial maps.
//
// Exits nonzero on any violated expectation. CI runs this under
// ASan/UBSan and (via the chaos job) alongside the fault suites.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fabric/fabric.hpp"
#include "fault/injector.hpp"
#include "sched/report.hpp"
#include "sched/spec.hpp"
#include "serve/server.hpp"
#include "serve/tile.hpp"

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
  const fs::path root = fs::temp_directory_path() / "awp-hazard-server";
  fs::remove_all(root);

  // Broker 1 dies at its 4th pump tick with scenarios in flight there;
  // every origin loses its first two window publishes outright.
  fault::FaultPlan plan;
  plan.brokerDeath(/*broker=*/1, /*occurrence=*/4);
  for (int origin = 0; origin < 3; ++origin)
    plan.servePublishDrop(origin, /*occurrence=*/1, /*count=*/2);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  fabric::FabricConfig config;
  config.brokers = 3;
  config.rootDir = root.string();
  config.leaseSeconds = 0.4;
  config.heartbeatSeconds = 0.08;
  config.pumpIntervalSeconds = 0.005;
  config.service.coreBudget = 4;
  config.service.queueCapacity = 16;
  config.serve.tileEdge = 8;
  config.serve.windowSamples = 2;
  config.serve.reconcileEveryTicks = 20;  // anti-entropy on the pump
  fabric::HazardFabric fabric(config);

  // The subscribed client: full-extent watch, per-tile version fences.
  std::mutex mu;
  std::map<std::tuple<std::string, int, int>, std::uint64_t> latest;
  bool ordered = true;
  std::uint64_t partialDeltas = 0;
  fabric.subscribeTiles(
      serve::Field::PgvH, serve::Extent{0, 0, 32, 24},
      [&](const std::vector<serve::TileDelta>& batch) {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& d : batch) {
          auto& last = latest[std::make_tuple(d.digest, d.tx, d.ty)];
          if (d.version <= last) ordered = false;
          last = d.version;
          if (!d.complete) ++partialDeltas;
        }
      });

  std::vector<fabric::FabricJobHandle> jobs;
  jobs.push_back(fabric.submit(member(120, 1.0e15, "hazard-a")));
  jobs.push_back(fabric.submit(member(120, 2.0e15, "hazard-b")));
  jobs.push_back(fabric.submit(member(130, 1.0e15, "hazard-c")));
  jobs.push_back(fabric.submit(member(130, 3.0e15, "hazard-d")));
  jobs.push_back(fabric.submit(member(140, 2.0e15, "hazard-e")));
  jobs.push_back(fabric.submit(member(140, 4.0e15, "hazard-f")));

  // Mid-run probe: at least one scenario should serve a partial map with
  // honest staleness (present, incomplete) before the ensemble settles.
  bool sawPartialQuery = false;
  for (int probe = 0; probe < 2000 && !sawPartialQuery; ++probe) {
    for (const auto& job : jobs) {
      const auto map = fabric.productServer().partialMap(job->digest);
      if (map.has_value() && !map->complete && map->version > 0)
        sawPartialQuery = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  fabric.drain();
  fabric.productServer().reconcile();  // deterministic final anti-entropy

  bool ok = true;
  ok &= expect(fabric.brokerState(1) == fabric::BrokerState::Dead,
               "the doomed broker fail-stopped");
  ok &= expect(sawPartialQuery,
               "a partial map was queryable before completion");

  std::vector<std::string> digests;
  for (const auto& job : jobs) {
    ok &= expect(job->wait() == sched::JobPhase::Completed,
                 "every member completes despite death + drops");
    digests.push_back(job->digest);
  }

  // Exceedance over the settled catalog vs a brute-force fold of the
  // (now canonical) partial maps.
  serve::ExceedanceQuery query;
  query.extent = serve::Extent{4, 2, 28, 22};
  query.digests = digests;
  query.threshold = 1.0e-9f;
  const serve::ExceedanceResult res = fabric.exceedance(query);
  ok &= expect(res.scenarios.size() == digests.size(),
               "staleness metadata covers the catalog");
  std::vector<serve::PartialMap> maps;
  for (const auto& st : res.scenarios) {
    ok &= expect(st.present && st.complete,
                 "every settled scenario serves complete");
    ok &= expect(st.version == st.totalSamples && st.totalSamples > 0,
                 "final version equals the scenario's total samples");
    const auto map = fabric.productServer().partialMap(st.digest);
    ok &= expect(map.has_value(), "settled scenario has a served map");
    if (map.has_value()) maps.push_back(*map);
  }
  if (maps.size() == digests.size()) {
    bool match = true;
    for (std::size_t y = query.extent.y0; y < query.extent.y1 && match; ++y)
      for (std::size_t x = query.extent.x0; x < query.extent.x1; ++x) {
        const std::size_t at =
            (x - query.extent.x0) + res.width * (y - query.extent.y0);
        float wantMax = 0.0f;
        std::uint32_t wantCount = 0;
        for (const auto& map : maps) {
          const float v = map.values[x + map.nx * y];
          if (v > wantMax) wantMax = v;
          if (v > query.threshold) ++wantCount;
        }
        if (std::memcmp(&res.maxOver[at], &wantMax, sizeof(float)) != 0 ||
            res.exceedCount[at] != wantCount) {
          match = false;
          break;
        }
      }
    ok &= expect(match, "exceedance matches the brute-force reference");
  }

  // Subscription convergence: every tile of every scenario fenced at its
  // final version, in order, with at least one pre-completion delta.
  {
    std::lock_guard<std::mutex> lock(mu);
    ok &= expect(ordered, "delta versions never regressed or re-notified");
    ok &= expect(partialDeltas > 0, "mid-run windows reached subscribers");
    for (const auto& st : res.scenarios)
      for (int ty = 0; ty * 8 < 24; ++ty)
        for (int tx = 0; tx * 8 < 32; ++tx) {
          const auto it = latest.find(std::make_tuple(st.digest, tx, ty));
          ok &= expect(it != latest.end() && it->second == st.totalSamples,
                       "every subscribed tile fenced at the final version");
        }
  }

  const fabric::FabricReport report = fabric.report();
  ok &= expect(report.completed == jobs.size(), "all members completed");
  ok &= expect(report.failed == 0, "zero lost products");
  for (const auto& broker : report.brokers) {
    const auto violations =
        sched::validateServiceReportJson(sched::toJson(broker));
    for (const auto& v : violations)
      std::fprintf(stderr, "broker report violation: %s\n", v.c_str());
    ok &= expect(violations.empty(), "broker service report validates");
  }

  const serve::ServerStats stats = fabric.productServer().stats();
  std::printf(
      "serving: %llu window publishes, %llu completion publishes, "
      "%llu drops injected, %llu delta batches, %llu reconciles, "
      "%llu queries\n",
      static_cast<unsigned long long>(stats.windowPublishes),
      static_cast<unsigned long long>(stats.completionPublishes),
      static_cast<unsigned long long>(stats.publishDrops),
      static_cast<unsigned long long>(stats.notifies),
      static_cast<unsigned long long>(stats.reconciles),
      static_cast<unsigned long long>(stats.queries));
  fabric.shutdown();
  return ok ? 0 : 1;
}
