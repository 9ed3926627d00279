// Serving-tier benchmark: tile publish latency (fresh content, duplicate
// absorption, dedup-absorbed content), end-to-end incremental publishing
// overhead while a scenario ensemble runs, and exceedance-query
// throughput over the resulting catalog. Records BENCH_serving.json next
// to the working directory so CI keeps a trajectory of the serving hot
// paths.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <unistd.h>
#include <vector>

#include "sched/service.hpp"
#include "sched/spec.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "serve/tile.hpp"
#include "telemetry/json.hpp"
#include "util/table.hpp"

using namespace awp;
using namespace awp::serve;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

sched::ScenarioSpec benchSpec(std::uint64_t steps) {
  sched::ScenarioSpec spec;
  spec.kind = sched::ScenarioKind::Wave;
  spec.dims = {48, 36, 16};
  spec.h = 600.0;
  spec.steps = steps;
  spec.nranks = 2;
  spec.useCvm = true;
  spec.spongeWidth = 4;
  spec.checkpointEverySteps = 10;
  spec.surfaceSampleEverySteps = 2;
  spec.name = "bench-serving";
  return spec;
}

}  // namespace

int main() {
  std::cout << "=== Hazard-product serving tier ===\n\n";

  // --- raw tile publish latency -------------------------------------------
  // One 16x16 tile republished across versions: fresh content every time
  // (index update + chunk store), exact duplicates (version lattice
  // absorbs), and alternating content (the chunk map dedups).
  TileStore rawStore(16);
  TileKey key;
  key.digest = digestFromHex("00112233445566778899aabbccddeeff");
  std::vector<float> payload(256, 0.0f);

  const int publishes = 20000;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < publishes; ++i) {
    payload[i % 256] += 1.0f;  // fresh content each version
    rawStore.publish(key, static_cast<std::uint64_t>(i + 1), payload.data(),
                     payload.size());
  }
  const double freshUs = secondsSince(t0) * 1e6 / publishes;

  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < publishes; ++i)  // same version: absorbed duplicates
    rawStore.publish(key, publishes, payload.data(), payload.size());
  const double dupUs = secondsSince(t0) * 1e6 / publishes;

  const std::vector<float> contentA(256, 1.0f), contentB(256, 2.0f);
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < publishes; ++i) {  // alternating known content: dedup
    const auto& c = (i & 1) ? contentA : contentB;
    rawStore.publish(key, static_cast<std::uint64_t>(publishes + i + 1),
                     c.data(), c.size());
  }
  const double dedupUs = secondsSince(t0) * 1e6 / publishes;

  TextTable pub({"Publish path", "us/publish"});
  pub.addRow({"fresh content", TextTable::num(freshUs, 2)});
  pub.addRow({"absorbed duplicate", TextTable::num(dupUs, 3)});
  pub.addRow({"dedup-absorbed chunk", TextTable::num(dedupUs, 2)});
  pub.print(std::cout);
  std::cout << "\n";

  // --- end-to-end incremental publishing over a live ensemble -------------
  const auto work = std::filesystem::temp_directory_path() /
                    ("awp_bench_serving_" + std::to_string(::getpid()));
  std::filesystem::create_directories(work);

  ServeConfig scfg;
  scfg.tileEdge = 16;
  scfg.windowSamples = 1;
  ProductServer server(scfg);

  std::vector<TileDelta> seen;
  server.subscribe(Field::PgvH, Extent{0, 0, 48, 36},
                   [&seen](const std::vector<TileDelta>& batch) {
                     seen.insert(seen.end(), batch.begin(), batch.end());
                   });

  sched::ServiceConfig cfg;
  cfg.coreBudget = 4;
  cfg.workDir = work.string();
  cfg.publisher = &server;
  sched::ScenarioService service(cfg);

  std::vector<std::string> digests;
  t0 = std::chrono::steady_clock::now();
  std::vector<sched::JobHandle> jobs;
  for (std::uint64_t steps : {40, 44, 48, 52})
    jobs.push_back(service.submit(benchSpec(steps)));
  bool allCompleted = true;
  for (const auto& job : jobs) {
    allCompleted =
        (job->wait() == sched::JobPhase::Completed) && allCompleted;
    digests.push_back(job->hash);
  }
  const double ensembleSeconds = secondsSince(t0);
  service.shutdown();

  const ServerStats stats = server.stats();
  // Live chunks at the end of the run: logical = bytes the tiles
  // reference, stored = bytes the deduplicated chunks hold.
  const ChunkStats chunks = server.store().chunkStats();
  TextTable run({"Metric", "Value"});
  run.addRow({"ensemble wall (4 scenarios)",
              TextTable::num(ensembleSeconds, 2) + " s"});
  run.addRow({"window publishes", std::to_string(stats.windowPublishes)});
  run.addRow({"completion publishes",
              std::to_string(stats.completionPublishes)});
  run.addRow({"delta batches delivered", std::to_string(stats.notifies)});
  run.addRow({"tile deltas seen", std::to_string(seen.size())});
  run.addRow({"chunk dedup hits", std::to_string(chunks.dedupHits)});
  run.addRow({"logical MB", TextTable::num(chunks.tileBytes / 1e6, 2)});
  run.addRow({"stored MB", TextTable::num(chunks.chunkBytes / 1e6, 2)});
  run.print(std::cout);
  std::cout << "\n";

  // --- exceedance query throughput ----------------------------------------
  // Deterministic extent sweep over the 4-scenario catalog: small window
  // probes and full-map aggregations, streamed tile-by-tile.
  const int queries = 2000;
  std::uint64_t tilesScanned = 0;
  std::uint32_t lcg = 12345;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < queries; ++i) {
    lcg = lcg * 1664525u + 1013904223u;
    ExceedanceQuery query;
    query.digests = digests;
    query.threshold = 1.0e-9f;
    if (i % 4 == 0) {
      query.extent = Extent{0, 0, 48, 36};  // full map
    } else {
      const std::size_t x0 = lcg % 32, y0 = (lcg >> 8) % 24;
      query.extent = Extent{x0, y0, x0 + 16, y0 + 12};
    }
    tilesScanned += server.exceedance(query).tilesScanned;
  }
  const double querySeconds = secondsSince(t0);
  const double qps = queries / querySeconds;
  const double tilesPerSecond = tilesScanned / querySeconds;

  TextTable qt({"Query path", "Rate"});
  qt.addRow({"exceedance queries", TextTable::num(qps, 0) + " /s"});
  qt.addRow({"tiles streamed", TextTable::num(tilesPerSecond / 1e3, 1) +
                                   " k/s"});
  qt.print(std::cout);

  // --- record the trajectory ----------------------------------------------
  telemetry::writeTextAtomically(
      "BENCH_serving.json",
      telemetry::JsonWriter()
          .beginObject()
          .field("publish_fresh_us", freshUs)
          .field("publish_duplicate_us", dupUs)
          .field("publish_dedup_us", dedupUs)
          .field("ensemble_wall_seconds", ensembleSeconds)
          .field("window_publishes", stats.windowPublishes)
          .field("completion_publishes", stats.completionPublishes)
          .field("delta_batches", stats.notifies)
          .field("chunk_dedup_hits", chunks.dedupHits)
          .field("cache_logical_bytes", chunks.tileBytes)
          .field("cache_stored_bytes", chunks.chunkBytes)
          .field("exceedance_queries_per_second", qps)
          .field("tiles_scanned_per_second", tilesPerSecond)
          .endObject()
          .str());
  std::cout << "\nrecorded BENCH_serving.json\n";

  std::filesystem::remove_all(work);
  if (!allCompleted) {
    std::cerr << "ensemble run FAILED\n";
    return 1;
  }
  return 0;
}
