// Hazard-product serving tier tests: tile-key determinism, the version
// lattice and chunk dedup of the TileStore, incremental window folding
// vs post-hoc product derivation (bit-identity), ensemble exceedance
// queries vs brute force, subscription delta ordering under retries and
// publish drops, degraded-broker read-only serving, and the 3-broker
// chaos acceptance run (broker death + publish drops; every subscribed
// extent converges to final tile versions bit-identical to an
// uninterrupted run).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
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
#include "sched/service.hpp"
#include "sched/spec.hpp"
#include "serve/layout.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "serve/tile.hpp"
#include "util/error.hpp"
#include "util/retry.hpp"

namespace awp::serve {
namespace {

namespace fs = std::filesystem;

fs::path tempDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("awp-serve-test-" + tag + "-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Small, fast wave scenario (mirrors test_sched's): ~5k cells, a
// checkpoint every 6 steps, surface samples every 2.
sched::ScenarioSpec smallWaveSpec(std::uint64_t steps = 24) {
  sched::ScenarioSpec spec;
  spec.kind = sched::ScenarioKind::Wave;
  spec.dims = {24, 18, 12};
  spec.h = 600.0;
  spec.steps = steps;
  spec.nranks = 2;
  spec.useCvm = true;
  spec.spongeWidth = 4;
  spec.checkpointEverySteps = 6;
  spec.surfaceSampleEverySteps = 2;
  spec.healthEverySteps = 4;
  spec.name = "serve-wave";
  return spec;
}

sched::ServiceConfig smallServiceConfig(const fs::path& work,
                                        ProductServer* server) {
  sched::ServiceConfig cfg;
  cfg.coreBudget = 4;
  cfg.workDir = work.string();
  cfg.publisher = server;
  return cfg;
}

// Reassemble a full nx*ny map from the store's published tiles; fails the
// test if any covering tile is missing.
std::vector<float> assembleFromTiles(ProductServer& server,
                                     const std::string& digestHex,
                                     std::size_t nx, std::size_t ny) {
  const int edge = server.store().tileEdge();
  std::vector<float> map(nx * ny, -1.0f);
  const auto digest = digestFromHex(digestHex);
  for (int ty = 0; static_cast<std::size_t>(ty) * edge < ny; ++ty)
    for (int tx = 0; static_cast<std::size_t>(tx) * edge < nx; ++tx) {
      TileKey key;
      key.digest = digest;
      key.field = static_cast<std::uint16_t>(Field::PgvH);
      key.tx = static_cast<std::uint16_t>(tx);
      key.ty = static_cast<std::uint16_t>(ty);
      const Extent ext = tileExtent(key, edge, nx, ny);
      const auto payload = server.store().load(key);
      if (!payload.has_value() ||
          payload->size() != ext.width() * ext.height()) {
        ADD_FAILURE() << "missing/short tile " << tileVersionKey(key, 0);
        continue;
      }
      for (std::size_t y = ext.y0; y < ext.y1; ++y)
        std::memcpy(map.data() + ext.x0 + nx * y,
                    payload->data() + (y - ext.y0) * ext.width(),
                    ext.width() * sizeof(float));
    }
  return map;
}

// The canonical row-major PGV-H map from a completed job's product bytes.
std::vector<float> canonicalMap(const sched::ScenarioProducts& products,
                                const sched::ScenarioSpec& spec) {
  const sched::ArtifactBlob* pgvh = products.find("pgvh.bin");
  EXPECT_NE(pgvh, nullptr);
  const SurfaceLayout layout(spec.dims.nx, spec.dims.ny, spec.dims.nz,
                             spec.nranks);
  std::vector<float> map(layout.nx() * layout.ny(), 0.0f);
  EXPECT_EQ(pgvh->bytes.size(), map.size() * sizeof(float));
  layout.recordToRowMajor(
      reinterpret_cast<const float*>(pgvh->bytes.data()), map.data());
  return map;
}

// Thread-safe subscription recorder with the ordering invariants the
// subscription API guarantees: per (digest, tile) strictly increasing
// versions, never a duplicate, never a regression.
struct DeltaRecorder {
  std::mutex mu;
  std::vector<TileDelta> all;
  std::map<std::tuple<std::string, int, int>, std::uint64_t> latest;
  bool ordered = true;

  SubscriptionCallback callback() {
    return [this](const std::vector<TileDelta>& batch) {
      std::lock_guard<std::mutex> lock(mu);
      for (const TileDelta& d : batch) {
        auto& last = latest[std::make_tuple(d.digest, d.tx, d.ty)];
        if (d.version <= last) ordered = false;
        last = d.version;
        all.push_back(d);
      }
    };
  }
};

// ---------------------------------------------------------------------------
// Tile identity

TEST(TileKeys, DeterministicNamingOrderingAndClamping) {
  const std::string hex = "00112233445566778899aabbccddeeff";
  const auto digest = digestFromHex(hex);
  EXPECT_EQ(digestToHex(digest), hex);
  EXPECT_THROW(digestFromHex("short"), Error);
  EXPECT_THROW(digestFromHex("zz112233445566778899aabbccddeeff"), Error);

  TileKey key;
  key.digest = digest;
  key.field = 0;
  key.tx = 1;
  key.ty = 2;
  // The canonical versioned identity is a pure function of its inputs —
  // two processes naming the same publish agree byte-for-byte.
  EXPECT_EQ(tileVersionKey(key, 13),
            "tile:" + hex + ":pgvh:1x2:v13");
  EXPECT_EQ(tileVersionKey(key, 13), tileVersionKey(key, 13));

  // Total order: digest first, then field, then ty, then tx.
  TileKey other = key;
  other.tx = 2;
  EXPECT_TRUE(tileKeyLess(key, other));
  other = key;
  other.ty = 3;
  EXPECT_TRUE(tileKeyLess(key, other));
  other = key;
  other.digest[0] = 0x01;
  EXPECT_TRUE(tileKeyLess(key, other));
  EXPECT_FALSE(tileKeyLess(key, key));
  EXPECT_TRUE(key == key);

  // Edge tiles clamp to the surface dims.
  const Extent ext = tileExtent(key, /*tileEdge=*/16, /*nx=*/24, /*ny=*/36);
  EXPECT_EQ(ext.x0, 16u);
  EXPECT_EQ(ext.x1, 24u);  // clamped from 32
  EXPECT_EQ(ext.y0, 32u);
  EXPECT_EQ(ext.y1, 36u);  // clamped from 48
}

// ---------------------------------------------------------------------------
// TileStore: version lattice + content-addressed chunk dedup

TEST(TileStore, VersionLatticeAbsorbsDuplicatesAndDedupsChunks) {
  TileStore store(/*tileEdge=*/4);

  const std::vector<float> a(16, 1.5f);
  const std::vector<float> b(16, 2.5f);
  TileKey key;
  key.digest = digestFromHex("00112233445566778899aabbccddeeff");

  // First publish advances and stores a new chunk.
  PublishOutcome out = store.publish(key, 3, a.data(), a.size());
  EXPECT_TRUE(out.advanced);
  EXPECT_TRUE(out.chunkStored);
  EXPECT_EQ(store.latestVersion(key), 3u);

  // A retried (duplicate) publish and a stale one are absorbed.
  out = store.publish(key, 3, a.data(), a.size());
  EXPECT_FALSE(out.advanced);
  out = store.publish(key, 2, b.data(), b.size());
  EXPECT_FALSE(out.advanced);
  EXPECT_EQ(store.latestVersion(key), 3u);

  // A strictly newer version advances; the payload loads back exactly.
  out = store.publish(key, 5, b.data(), b.size());
  EXPECT_TRUE(out.advanced);
  const auto loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(0, std::memcmp(loaded->data(), b.data(), 16 * sizeof(float)));

  // An identical payload under a DIFFERENT tile key shares the stored
  // chunk: the store reports a dedup and charges no new chunk bytes.
  TileKey overlap = key;
  overlap.tx = 7;
  out = store.publish(overlap, 5, b.data(), b.size());
  EXPECT_TRUE(out.advanced);
  EXPECT_FALSE(out.chunkStored);  // content-addressed: already present

  const ChunkStats stats = store.chunkStats();
  EXPECT_GE(stats.dedupHits, 1u);
  EXPECT_LT(stats.chunkBytes, stats.tileBytes);
  EXPECT_EQ(store.tileCount(), 2u);
}

// Chunks are bounded by the live tiles: a superseded version's chunk is
// released once no tile references it, while a reader's loaded payload
// stays readable.
TEST(TileStore, SupersededChunksAreReleased) {
  TileStore store(/*tileEdge=*/4);
  TileKey key;
  key.digest = digestFromHex("00112233445566778899aabbccddeeff");
  TileKey other = key;
  other.tx = 1;

  // One tile at N versions, each with distinct content: only the current
  // version's chunk stays live.
  constexpr int kVersions = 8;
  std::vector<float> current(16, 0.0f);
  for (int v = 1; v <= kVersions; ++v) {
    current[0] = static_cast<float>(v);
    ASSERT_TRUE(store.publish(key, v, current.data(), current.size()).advanced);
    EXPECT_EQ(store.chunkStats().chunks, 1u) << "after version " << v;
  }
  EXPECT_EQ(store.chunkStats().chunkBytes, current.size() * sizeof(float));

  // A second key with the same content shares the one chunk.
  ASSERT_TRUE(store.publish(other, 1, current.data(), current.size()).advanced);
  EXPECT_EQ(store.chunkStats().chunks, 1u);

  // A reader loads the shared payload before either tile moves on.
  const ChunkRef held = store.load(key);
  ASSERT_TRUE(held.has_value());

  // `key` moves on; `other` still references the old chunk, so it lives.
  const std::vector<float> next(16, -1.0f);
  ASSERT_TRUE(
      store.publish(key, kVersions + 1, next.data(), next.size()).advanced);
  EXPECT_EQ(store.chunkStats().chunks, 2u);
  const ChunkRef stillShared = store.load(other);
  ASSERT_TRUE(stillShared.has_value());
  EXPECT_EQ(0, std::memcmp(stillShared->data(), current.data(),
                           current.size() * sizeof(float)));

  // `other` moves on too: no tile references the old chunk any more, so
  // it leaves the store — but the reader's payload is still intact.
  ASSERT_TRUE(store.publish(other, 2, next.data(), next.size()).advanced);
  const ChunkStats stats = store.chunkStats();
  EXPECT_EQ(stats.chunks, 1u);
  EXPECT_EQ(stats.chunkBytes, next.size() * sizeof(float));
  EXPECT_EQ(stats.tileBytes, 2 * next.size() * sizeof(float));
  ASSERT_EQ(held->size(), current.size());
  EXPECT_EQ(0, std::memcmp(held->data(), current.data(),
                           current.size() * sizeof(float)));
  const ChunkRef loaded = store.load(other);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(0, std::memcmp(loaded->data(), next.data(),
                           next.size() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// Incremental folding == post-hoc derivation, bit for bit

TEST(Serving, IncrementalFoldMatchesPostHocBitIdentically) {
  const fs::path work = tempDir("incremental");
  ServeConfig scfg;
  scfg.tileEdge = 8;
  scfg.windowSamples = 1;  // publish every new durable sample window
  ProductServer server(scfg);

  const sched::ScenarioSpec spec = smallWaveSpec();
  const std::size_t nx = spec.dims.nx;
  const std::size_t ny = spec.dims.ny;

  DeltaRecorder rec;
  Extent all{0, 0, nx, ny};
  const std::uint64_t sub =
      server.subscribe(Field::PgvH, all, rec.callback());

  sched::ScenarioService service(smallServiceConfig(work, &server));
  const sched::JobHandle job = service.submit(spec);
  ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
  sched::ScenarioProducts products;
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    products = job->products;
  }
  service.shutdown();

  // Mid-run windows were published (a consumer saw a partial map before
  // the scenario finished), and the final state is complete.
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.windowPublishes, 1u);
  EXPECT_GE(stats.completionPublishes, 1u);

  // The tile-assembled map equals the canonical post-hoc product
  // bit-for-bit: the incremental max-fold loses nothing.
  const std::vector<float> expected = canonicalMap(products, spec);
  const std::vector<float> assembled =
      assembleFromTiles(server, job->hash, nx, ny);
  ASSERT_EQ(assembled.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(assembled.data(), expected.data(),
                           expected.size() * sizeof(float)));

  // The in-memory partial map converged to the same canonical state.
  const auto partial = server.partialMap(job->hash);
  ASSERT_TRUE(partial.has_value());
  EXPECT_TRUE(partial->complete);
  EXPECT_FALSE(partial->tainted);
  EXPECT_GT(partial->version, 0u);
  EXPECT_EQ(0, std::memcmp(partial->values.data(), expected.data(),
                           expected.size() * sizeof(float)));

  // Subscription ordering: strictly increasing per tile, at least one
  // PARTIAL delta (version < final), and every tile fenced at the final
  // complete version. rec.mu must drop before unsubscribe() below — the
  // delivery path locks deliverMu_ then rec.mu, so holding rec.mu into a
  // server call is the lock-order inversion TSan (and awplint) flag.
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    EXPECT_TRUE(rec.ordered);
    const std::uint64_t total = partial->version;
    bool sawPartial = false;
    for (const TileDelta& d : rec.all)
      if (!d.complete && d.version < total) sawPartial = true;
    EXPECT_TRUE(sawPartial);
    const int tilesX = static_cast<int>((nx + 7) / 8);
    const int tilesY = static_cast<int>((ny + 7) / 8);
    EXPECT_EQ(rec.latest.size(),
              static_cast<std::size_t>(tilesX * tilesY));
    for (const auto& [tile, version] : rec.latest)
      EXPECT_EQ(version, total)
          << std::get<1>(tile) << "," << std::get<2>(tile);
  }

  // Completion re-publishes content already stored by the last window:
  // the content-addressed chunk tier absorbed those as dedups.
  EXPECT_GE(server.store().chunkStats().dedupHits, 1u);
  server.unsubscribe(sub);
}

// ---------------------------------------------------------------------------
// Exceedance queries vs brute force, with staleness metadata

TEST(Serving, ExceedanceMatchesBruteForceWithStaleness) {
  const fs::path work = tempDir("exceedance");
  ServeConfig scfg;
  scfg.tileEdge = 8;
  ProductServer server(scfg);

  const sched::ScenarioSpec specA = smallWaveSpec(24);
  const sched::ScenarioSpec specB = smallWaveSpec(26);
  const std::size_t nx = specA.dims.nx;

  sched::ScenarioService service(smallServiceConfig(work, &server));
  const sched::JobHandle jobA = service.submit(specA);
  const sched::JobHandle jobB = service.submit(specB);
  ASSERT_EQ(jobA->wait(), sched::JobPhase::Completed) << jobA->error;
  ASSERT_EQ(jobB->wait(), sched::JobPhase::Completed) << jobB->error;
  service.shutdown();

  // An extent that crosses tile boundaries and clips the domain edge.
  ExceedanceQuery query;
  query.extent = Extent{5, 3, 21, 17};
  query.digests = {jobA->hash, jobB->hash, std::string(32, '0')};
  query.threshold = 1.0e-9f;
  const ExceedanceResult res = server.exceedance(query);
  ASSERT_EQ(res.width, 16u);
  ASSERT_EQ(res.height, 14u);
  EXPECT_GT(res.tilesScanned, 0u);

  // Brute force from the converged in-memory maps.
  const auto mapA = server.partialMap(jobA->hash);
  const auto mapB = server.partialMap(jobB->hash);
  ASSERT_TRUE(mapA.has_value() && mapB.has_value());
  for (std::size_t y = query.extent.y0; y < query.extent.y1; ++y)
    for (std::size_t x = query.extent.x0; x < query.extent.x1; ++x) {
      const std::size_t at =
          (x - query.extent.x0) + res.width * (y - query.extent.y0);
      const float a = mapA->values[x + nx * y];
      const float b = mapB->values[x + nx * y];
      const float wantMax = a > b ? a : b;
      std::uint32_t wantCount = 0;
      if (a > query.threshold) ++wantCount;
      if (b > query.threshold) ++wantCount;
      ASSERT_EQ(res.maxOver[at], wantMax) << "(" << x << "," << y << ")";
      ASSERT_EQ(res.exceedCount[at], wantCount) << "(" << x << "," << y << ")";
    }

  // Staleness: both known scenarios are complete at their final window;
  // the unknown digest reads as absent, not as an error.
  ASSERT_EQ(res.scenarios.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(res.scenarios[i].present);
    EXPECT_TRUE(res.scenarios[i].complete);
    EXPECT_GT(res.scenarios[i].totalSamples, 0u);
    EXPECT_EQ(res.scenarios[i].version, res.scenarios[i].totalSamples);
  }
  EXPECT_FALSE(res.scenarios[2].present);
  EXPECT_EQ(res.scenarios[2].version, 0u);
}

// ---------------------------------------------------------------------------
// Publish drops: later windows + the retried completion publish converge

TEST(Serving, PublishDropsConvergeWithoutReconcile) {
  const fs::path work = tempDir("drop-converge");
  ServeConfig scfg;
  scfg.tileEdge = 8;
  scfg.windowSamples = 1;
  ProductServer server(scfg);

  const sched::ScenarioSpec spec = smallWaveSpec();
  DeltaRecorder rec;
  server.subscribe(Field::PgvH, Extent{0, 0, spec.dims.nx, spec.dims.ny},
                   rec.callback());

  // Lose the first two window publishes outright (origin 0: a standalone
  // service). Later cumulative windows carry the same folded content
  // forward, so nothing is permanently lost.
  fault::FaultPlan plan;
  plan.servePublishDrop(/*origin=*/0, /*occurrence=*/1, /*count=*/2);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  sched::ScenarioService service(smallServiceConfig(work, &server));
  const sched::JobHandle job = service.submit(spec);
  ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
  sched::ScenarioProducts products;
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    products = job->products;
  }
  service.shutdown();

  EXPECT_GE(server.stats().publishDrops, 2u);

  // Every subscribed tile still converged to the canonical final state.
  const std::vector<float> expected = canonicalMap(products, spec);
  const std::vector<float> assembled =
      assembleFromTiles(server, job->hash, spec.dims.nx, spec.dims.ny);
  EXPECT_EQ(0, std::memcmp(assembled.data(), expected.data(),
                           expected.size() * sizeof(float)));
  const auto partial = server.partialMap(job->hash);
  ASSERT_TRUE(partial.has_value());
  std::lock_guard<std::mutex> lock(rec.mu);
  EXPECT_TRUE(rec.ordered);
  for (const auto& [tile, version] : rec.latest)
    EXPECT_EQ(version, partial->version);
}

// A stalled notify fan-out (serve_notify_delay) slows delivery without
// losing anything: the run completes and subscribers still converge.

TEST(Serving, NotifyDelayStallsDeliveryButConverges) {
  const fs::path work = tempDir("notify-delay");
  ServeConfig scfg;
  scfg.tileEdge = 8;
  scfg.windowSamples = 1;
  ProductServer server(scfg);

  const sched::ScenarioSpec spec = smallWaveSpec();
  DeltaRecorder rec;
  server.subscribe(Field::PgvH, Extent{0, 0, spec.dims.nx, spec.dims.ny},
                   rec.callback());

  fault::FaultPlan plan;
  plan.serveNotifyDelay(/*origin=*/0, /*occurrence=*/1, /*seconds=*/0.05);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  sched::ScenarioService service(smallServiceConfig(work, &server));
  const sched::JobHandle job = service.submit(spec);
  ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
  service.shutdown();

  EXPECT_GE(injector.faultsInjected(), 1u);
  const auto partial = server.partialMap(job->hash);
  ASSERT_TRUE(partial.has_value());
  std::lock_guard<std::mutex> lock(rec.mu);
  EXPECT_TRUE(rec.ordered);
  for (const auto& [tile, version] : rec.latest)
    EXPECT_EQ(version, partial->version);
}

// A sustained drop burst that swallows every publish — including all
// completion retries — is converged by the reconcile anti-entropy pass.

TEST(Serving, ReconcileConvergesAfterTotalPublishLoss) {
  const fs::path work = tempDir("drop-reconcile");
  ServeConfig scfg;
  scfg.tileEdge = 8;
  scfg.windowSamples = 1;
  ProductServer server(scfg);

  const sched::ScenarioSpec spec = smallWaveSpec();
  DeltaRecorder rec;
  server.subscribe(Field::PgvH, Extent{0, 0, spec.dims.nx, spec.dims.ny},
                   rec.callback());

  sched::ScenarioProducts products;
  std::string hash;
  {
    fault::FaultPlan plan;
    plan.servePublishDrop(/*origin=*/0, /*occurrence=*/1,
                          /*count=*/1000000);
    fault::FaultInjector injector(std::move(plan));
    fault::ScopedInjection scoped(injector);

    sched::ScenarioService service(smallServiceConfig(work, &server));
    const sched::JobHandle job = service.submit(spec);
    ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
    std::lock_guard<std::mutex> lock(job->mutex);
    products = job->products;
    hash = job->hash;
    service.shutdown();
  }

  // Nothing reached the store or the subscriber while the burst lasted.
  EXPECT_EQ(server.store().tileCount(), 0u);
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    EXPECT_TRUE(rec.all.empty());
  }
  // The run state is canonical (completion replaced the accumulator), so
  // one anti-entropy pass converges store and subscribers in one step.
  server.reconcile();
  const std::vector<float> expected = canonicalMap(products, spec);
  const std::vector<float> assembled =
      assembleFromTiles(server, hash, spec.dims.nx, spec.dims.ny);
  EXPECT_EQ(0, std::memcmp(assembled.data(), expected.data(),
                           expected.size() * sizeof(float)));
  std::lock_guard<std::mutex> lock(rec.mu);
  EXPECT_TRUE(rec.ordered);
  EXPECT_FALSE(rec.latest.empty());
  for (const TileDelta& d : rec.all) EXPECT_TRUE(d.complete);
}

// ---------------------------------------------------------------------------
// Subscription ordering under a crash-retry (requeue + checkpoint resume)

TEST(Serving, CrashRetryKeepsDeltasOrderedAndConverges) {
  const fs::path work = tempDir("crash-retry");
  ServeConfig scfg;
  scfg.tileEdge = 8;
  scfg.windowSamples = 1;
  ProductServer server(scfg);

  const sched::ScenarioSpec spec = smallWaveSpec();
  DeltaRecorder rec;
  server.subscribe(Field::PgvH, Extent{0, 0, spec.dims.nx, spec.dims.ny},
                   rec.callback());

  // Rank 0's 14th step consult injects a worker crash — past the step-12
  // checkpoint, so the retry resumes and REWRITES its replay window in
  // place. The serving tier must never regress or re-notify a version,
  // whatever the rewrite does to its folded prefix.
  fault::FaultPlan plan;
  plan.transientIoError("sched.job.step", /*rank=*/0, /*occurrence=*/14);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  sched::ServiceConfig cfg = smallServiceConfig(work, &server);
  cfg.respawnBudget = 0;  // force the cancel-and-requeue path
  sched::ScenarioService service(cfg);
  const sched::JobHandle job = service.submit(spec);
  ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
  sched::ScenarioProducts products;
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    EXPECT_GE(job->attempts, 2);  // the crash really requeued it
    products = job->products;
  }
  service.shutdown();

  const std::vector<float> expected = canonicalMap(products, spec);
  const std::vector<float> assembled =
      assembleFromTiles(server, job->hash, spec.dims.nx, spec.dims.ny);
  EXPECT_EQ(0, std::memcmp(assembled.data(), expected.data(),
                           expected.size() * sizeof(float)));

  const auto partial = server.partialMap(job->hash);
  ASSERT_TRUE(partial.has_value());
  EXPECT_TRUE(partial->complete);
  std::lock_guard<std::mutex> lock(rec.mu);
  EXPECT_TRUE(rec.ordered);  // retries never re-notified or regressed
  EXPECT_FALSE(rec.latest.empty());
  for (const auto& [tile, version] : rec.latest)
    EXPECT_EQ(version, partial->version);
}

// ---------------------------------------------------------------------------
// Cache accounting surfaces in the validated service report

TEST(Serving, CacheTierAccountingValidatesInServiceReport) {
  const fs::path work = tempDir("report");
  sched::ServiceConfig cfg;
  cfg.coreBudget = 4;
  cfg.workDir = work.string();
  sched::ScenarioService service(cfg);

  const sched::ScenarioSpec spec = smallWaveSpec(12);
  ASSERT_EQ(service.submit(spec)->wait(), sched::JobPhase::Completed);
  // Resubmission is a hit in the in-memory store.
  const sched::JobHandle hit = service.submit(spec);
  ASSERT_EQ(hit->wait(), sched::JobPhase::Completed);
  EXPECT_TRUE(hit->cacheHit);

  const sched::CacheStats stats = service.cacheStats();
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.hits, 1u);

  const auto problems =
      sched::validateServiceReportJson(sched::toJson(service.report()));
  EXPECT_TRUE(problems.empty()) << problems.front();
  service.shutdown();
}

// ---------------------------------------------------------------------------
// Degraded broker: read-only serving still feeds the serving tier

TEST(ServingFabric, DegradedBrokerServesCachedProductsReadOnly) {
  const fs::path root = tempDir("degraded-serve");
  util::resetRetryRegistry();
  const sched::ScenarioSpec spec = smallWaveSpec(12);

  // Phase A: a healthy single-broker fabric completes the scenario into
  // the shared on-disk cache tier, then shuts down.
  {
    fabric::FabricConfig config;
    config.brokers = 1;
    config.rootDir = root.string();
    config.service.coreBudget = 4;
    fabric::HazardFabric fabric(config);
    const fabric::FabricJobHandle job = fabric.submit(spec);
    fabric.drain();
    ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
    fabric.shutdown();
  }

  // Phase B: a new fabric over the same root, with its only broker
  // partitioned from the start (every lease RPC lost). It degrades, but
  // the cached digest is still served — and the serving tier converges
  // from the canonical products without any run.
  fault::FaultPlan plan;
  plan.fabricDrop(/*broker=*/0, /*occurrence=*/1, /*count=*/1000000);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  fabric::FabricConfig config;
  config.brokers = 1;
  config.rootDir = root.string();
  config.leaseSeconds = 0.3;
  config.heartbeatSeconds = 0.05;
  config.degradedAfterMisses = 2;
  config.service.coreBudget = 4;
  fabric::HazardFabric fabric(config);
  for (int i = 0;
       i < 2000 && fabric.brokerState(0) != fabric::BrokerState::Degraded;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(fabric.brokerState(0), fabric::BrokerState::Degraded);

  const fabric::FabricJobHandle job = fabric.submit(spec);
  ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
  sched::ScenarioProducts products;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    products = job->products;
  }

  // The degraded broker's read-only settle published the full product:
  // queries over the fabric's serving tier see a complete scenario.
  ExceedanceQuery query;
  query.extent = Extent{0, 0, spec.dims.nx, spec.dims.ny};
  query.digests = {job->digest};
  const ExceedanceResult res = fabric.exceedance(query);
  ASSERT_EQ(res.scenarios.size(), 1u);
  EXPECT_TRUE(res.scenarios[0].present);
  EXPECT_TRUE(res.scenarios[0].complete);

  const std::vector<float> expected = canonicalMap(products, spec);
  const std::vector<float> assembled = assembleFromTiles(
      fabric.productServer(), job->digest, spec.dims.nx, spec.dims.ny);
  EXPECT_EQ(0, std::memcmp(assembled.data(), expected.data(),
                           expected.size() * sizeof(float)));
  fabric.shutdown();
}

// ---------------------------------------------------------------------------
// Tile chunks live in the fabric server's memory tier: the shared on-disk
// cache holds only the memoized product and the mesh.

TEST(HazardFabric, WaveTilesStayInMemory) {
  const fs::path root = tempDir("tiles-in-memory");
  util::resetRetryRegistry();
  const sched::ScenarioSpec spec = smallWaveSpec(12);
  const std::size_t nx = spec.dims.nx;
  const std::size_t ny = spec.dims.ny;

  fabric::FabricConfig config;
  config.brokers = 1;
  config.rootDir = root.string();
  config.service.coreBudget = 4;
  fabric::HazardFabric fabric(config);
  DeltaRecorder rec;
  fabric.subscribeTiles(Field::PgvH, Extent{0, 0, nx, ny}, rec.callback());
  const fabric::FabricJobHandle job = fabric.submit(spec);
  fabric.drain();
  ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
  sched::ScenarioProducts products;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    products = job->products;
  }

  // Every subscribed tile reached its complete version, and the tiles
  // assemble bit-identically to the canonical pgvh.bin.
  const int edge = fabric.productServer().store().tileEdge();
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    EXPECT_TRUE(rec.ordered);
    for (int ty = 0; static_cast<std::size_t>(ty) * edge < ny; ++ty)
      for (int tx = 0; static_cast<std::size_t>(tx) * edge < nx; ++tx) {
        const bool complete = std::any_of(
            rec.all.begin(), rec.all.end(), [&](const TileDelta& d) {
              return d.digest == job->digest && d.tx == tx && d.ty == ty &&
                     d.complete;
            });
        EXPECT_TRUE(complete) << "tile " << tx << "," << ty;
      }
  }
  const std::vector<float> expected = canonicalMap(products, spec);
  const std::vector<float> assembled =
      assembleFromTiles(fabric.productServer(), job->digest, nx, ny);
  ASSERT_EQ(assembled.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(assembled.data(), expected.data(),
                           expected.size() * sizeof(float)));

  // The chunks were stored (and deduplicated) in the server's store...
  const ChunkStats chunks = fabric.productServer().store().chunkStats();
  EXPECT_GT(chunks.publishes, 0u);
  EXPECT_GT(chunks.chunkBytes, 0u);
  EXPECT_GT(chunks.chunks, 0u);
  fabric.shutdown();

  // ...and never reached the shared disk tier, which holds exactly one
  // entry: the memoized product.
  std::vector<std::string> onDisk;
  for (const auto& entry : fs::directory_iterator(root / "cache"))
    onDisk.push_back(entry.path().filename().string());
  EXPECT_EQ(onDisk.size(), 1u);
  for (const std::string& name : onDisk)
    EXPECT_TRUE(name.size() > 5 && name.substr(name.size() - 5) == ".blob")
        << name;
}

// ---------------------------------------------------------------------------
// Chaos acceptance: 3 brokers, one dies mid-ensemble, window publishes
// drop — every subscribed extent still converges to final tile versions
// bit-identical to an uninterrupted run.

TEST(ServingChaos, BrokerDeathAndPublishDropsConvergeBitIdentically) {
  // Three scenarios, at least one owned by the broker that will die, so
  // the death forces a handoff of in-flight serving state.
  const fabric::HashRing ring(3, 64);
  std::vector<sched::ScenarioSpec> specs = {smallWaveSpec(24),
                                           smallWaveSpec(26)};
  bool found = false;
  for (std::uint64_t steps = 28; steps < 28 + 200 && !found; steps += 2) {
    sched::ScenarioSpec spec = smallWaveSpec(steps);
    if (ring.ownerOf(fabric::HashRing::pointFor(spec.hashHex()), 0x7u) == 1) {
      specs.push_back(spec);
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no spec variant owned by broker 1";
  const std::size_t nx = specs[0].dims.nx;
  const std::size_t ny = specs[0].dims.ny;

  // Baseline: an undisturbed single-broker fabric records the canonical
  // tile-assembled maps.
  std::map<std::string, std::vector<float>> baseline;
  {
    const fs::path root = tempDir("serve-chaos-baseline");
    util::resetRetryRegistry();
    fabric::FabricConfig config;
    config.brokers = 1;
    config.rootDir = root.string();
    config.service.coreBudget = 4;
    fabric::HazardFabric fabric(config);
    std::vector<fabric::FabricJobHandle> jobs;
    for (const auto& s : specs) jobs.push_back(fabric.submit(s));
    fabric.drain();
    for (const auto& job : jobs) {
      ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
      baseline[job->digest] =
          assembleFromTiles(fabric.productServer(), job->digest, nx, ny);
    }
    fabric.shutdown();
  }

  // Chaos run: 3 brokers; broker 1 fail-stops at its 2nd pump tick with
  // its scenario in flight, and each broker loses a couple of its first
  // window publishes.
  const fs::path root = tempDir("serve-chaos-run");
  util::resetRetryRegistry();
  fabric::FabricConfig config;
  config.brokers = 3;
  config.rootDir = root.string();
  config.leaseSeconds = 0.3;
  config.heartbeatSeconds = 0.06;
  config.pumpIntervalSeconds = 0.004;
  config.service.coreBudget = 4;
  config.serve.windowSamples = 1;

  fault::FaultPlan plan;
  plan.brokerDeath(/*broker=*/1, /*occurrence=*/2);
  for (int origin = 0; origin < 3; ++origin)
    plan.servePublishDrop(origin, /*occurrence=*/1, /*count=*/2);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  fabric::HazardFabric fabric(config);
  DeltaRecorder rec;
  fabric.subscribeTiles(Field::PgvH, Extent{0, 0, nx, ny}, rec.callback());

  std::vector<fabric::FabricJobHandle> jobs;
  for (const auto& s : specs) jobs.push_back(fabric.submit(s));
  fabric.drain();
  EXPECT_EQ(fabric.brokerState(1), fabric::BrokerState::Dead);

  // One explicit anti-entropy pass stands in for the pump cadence, so the
  // assertions below never race a scheduled reconcile.
  fabric.productServer().reconcile();

  for (const auto& job : jobs) {
    ASSERT_EQ(job->wait(), sched::JobPhase::Completed) << job->error;
    {
      std::lock_guard<std::mutex> lock(job->mu);
      EXPECT_EQ(job->completions, 1) << job->digest;  // exactly once
    }
    const std::vector<float> assembled =
        assembleFromTiles(fabric.productServer(), job->digest, nx, ny);
    ASSERT_EQ(assembled.size(), baseline[job->digest].size());
    EXPECT_EQ(0, std::memcmp(assembled.data(), baseline[job->digest].data(),
                             assembled.size() * sizeof(float)))
        << "tiles not bit-identical for " << job->digest;

    // Every subscribed tile of every scenario was fenced at its final
    // complete version, exactly once.
    const auto partial = fabric.productServer().partialMap(job->digest);
    ASSERT_TRUE(partial.has_value());
    EXPECT_TRUE(partial->complete);
    std::lock_guard<std::mutex> lock(rec.mu);
    const int edge = fabric.productServer().store().tileEdge();
    for (int ty = 0; static_cast<std::size_t>(ty) * edge < ny; ++ty)
      for (int tx = 0; static_cast<std::size_t>(tx) * edge < nx; ++tx) {
        const auto it =
            rec.latest.find(std::make_tuple(job->digest, tx, ty));
        ASSERT_NE(it, rec.latest.end())
            << job->digest << " tile " << tx << "," << ty;
        EXPECT_EQ(it->second, partial->version);
      }
  }
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    EXPECT_TRUE(rec.ordered);
  }
  EXPECT_GE(fabric.productServer().stats().publishDrops, 1u);

  const fabric::FabricReport report = fabric.report();
  EXPECT_EQ(report.completed, specs.size());
  EXPECT_EQ(report.failed, 0u);
  for (const auto& br : report.brokers) {
    const auto problems =
        sched::validateServiceReportJson(sched::toJson(br));
    EXPECT_TRUE(problems.empty())
        << "broker report invalid: " << problems.front();
  }
  fabric.shutdown();
}

}  // namespace
}  // namespace awp::serve
