// The three workloads of the repository benchmark.
//
//   wave_large     one large CVM wave scenario per repetition through a
//                  one-broker fabric (FD kernels, halo exchange, checkpoint
//                  and surface I/O do nearly all the work).
//   ensemble_serve an open-loop stream of small wave scenarios through a
//                  3-broker fabric, with exceedance queries issued at a fixed
//                  rate while the scenarios publish, one full-extent
//                  subscription, then a closed-loop read-only query phase.
//   cycle_catalog  a seeded rate-and-state sequence whose events are bridged
//                  into rupture scenarios through a 3-broker fabric.

#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "cycle/bridge.hpp"
#include "cycle/catalog.hpp"
#include "cycle/solver.hpp"
#include "fabric/fabric.hpp"
#include "reference.hpp"
#include "sched/spec.hpp"
#include "serve/layout.hpp"
#include "serve/server.hpp"
#include "telemetry/registry.hpp"
#include "workload_defs.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace awp;

// --- the subscribed client ---------------------------------------------------

// Full-extent subscriber: remembers when the first delta of each digest
// arrived and the newest version delivered for every tile.
class TileClient {
 public:
  explicit TileClient(Tracer& tracer) : tracer_(tracer) {}

  void onDeltas(const std::vector<serve::TileDelta>& batch) {
    Tracer::Scope span(tracer_, "serve.subscription_callback");
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    for (const serve::TileDelta& d : batch) {
      firstTile_.emplace(d.digest, now);
      auto& version = tiles_[std::make_tuple(d.digest, d.tx, d.ty)];
      version = std::max(version, d.version);
    }
  }

  std::optional<Clock::time_point> firstTile(const std::string& digest) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = firstTile_.find(digest);
    if (it == firstTile_.end()) return std::nullopt;
    return it->second;
  }

  // True when every tile of the nx-by-ny map was delivered at `version`,
  // the scenario's final one.
  bool allAt(const std::string& digest, std::uint64_t version, std::size_t nx,
             std::size_t ny, int tileEdge) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto edge = static_cast<std::size_t>(tileEdge);
    for (std::size_t ty = 0; ty * edge < ny; ++ty)
      for (std::size_t tx = 0; tx * edge < nx; ++tx) {
        const auto it = tiles_.find(std::make_tuple(
            digest, static_cast<int>(tx), static_cast<int>(ty)));
        if (it == tiles_.end() || it->second != version) return false;
      }
    return true;
  }

 private:
  Tracer& tracer_;
  mutable std::mutex mu_;
  std::map<std::string, Clock::time_point> firstTile_;
  // Newest delivered version per (digest, tx, ty).
  std::map<std::tuple<std::string, int, int>, std::uint64_t> tiles_;
};

// --- settle watching -------------------------------------------------------

// One blocked waiter thread per handle, so every settle is timed when it
// happens whatever the completion order. Waiters only block; they never
// compete with rank threads for a core.
class SettleWatch {
 public:
  struct Settled {
    fabric::FabricJobHandle handle;
    Clock::time_point due;
    Clock::time_point settled;
    sched::JobPhase phase = sched::JobPhase::Queued;
  };

  explicit SettleWatch(Tracer& tracer) : tracer_(tracer) {}
  SettleWatch(const SettleWatch&) = delete;
  SettleWatch& operator=(const SettleWatch&) = delete;
  ~SettleWatch() { join(); }

  // `traceId` ties the settle span to the request's submit span.
  void watch(fabric::FabricJobHandle handle, Clock::time_point due,
             std::uint64_t traceId) {
    const std::size_t slot = results_.size();
    results_.push_back(Settled{handle, due, due});
    threads_.emplace_back([this, handle, due, slot, traceId] {
      const std::uint64_t span =
          tracer_.beginAt("fabric.settle", due, 0, traceId);
      const sched::JobPhase phase = handle->wait();
      const Clock::time_point now = Clock::now();
      tracer_.end(span);
      std::lock_guard<std::mutex> lock(mu_);
      done_.push_back({slot, now, phase});
    });
  }

  // Join every waiter; afterwards results() holds each settle time.
  void join() {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    for (const auto& [slot, at, phase] : done_) {
      results_[slot].settled = at;
      results_[slot].phase = phase;
    }
    done_.clear();
  }

  [[nodiscard]] const std::vector<Settled>& results() const {
    return results_;
  }

 private:
  Tracer& tracer_;
  std::vector<Settled> results_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::vector<std::tuple<std::size_t, Clock::time_point, sched::JobPhase>>
      done_;
};

// --- fabric rig ----------------------------------------------------------------

// One fabric plus its subscribed client; the timed unit of set-up.
struct Rig {
  fs::path root;
  bool removeRoot = true;
  std::unique_ptr<TileClient> client;
  std::unique_ptr<fabric::HazardFabric> fabric;
  telemetry::Session* session = nullptr;  // owned by the fabric
  double setupSeconds = 0.0;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    if (fabric) fabric->shutdown();
    fabric.reset();
    std::error_code ec;
    if (removeRoot) fs::remove_all(root, ec);
  }
};

// A fabric over a fresh root directory, removed again at teardown; or,
// given `reuseRoot`, over that directory, which is kept.
std::unique_ptr<Rig> makeRig(fabric::FabricConfig config,
                             const RunOptions& options, Tracer& tracer,
                             const serve::Extent& extent,
                             const fs::path& reuseRoot = {}) {
  static int counter = 0;
  auto rig = std::make_unique<Rig>();
  if (reuseRoot.empty()) {
    rig->root =
        fs::path(options.workDir) / ("fabric-" + std::to_string(++counter));
    fs::remove_all(rig->root);
  } else {
    rig->root = reuseRoot;
    rig->removeRoot = false;
  }
  config.rootDir = rig->root.string();
  config.telemetry = tracer.enabled();
  rig->client = std::make_unique<TileClient>(tracer);

  Tracer::Scope span(tracer, "bench.setup");
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope ctor(tracer, "fabric.construct", span.id());
    rig->fabric = std::make_unique<fabric::HazardFabric>(config);
  }
  {
    Tracer::Scope sub(tracer, "fabric.subscribeTiles", span.id());
    TileClient* client = rig->client.get();
    rig->fabric->subscribeTiles(
        serve::Field::PgvH, extent,
        [client](const std::vector<serve::TileDelta>& batch) {
          client->onDeltas(batch);
        });
  }
  rig->setupSeconds = secondsSince(t0);
  if (config.telemetry) {
    rig->session = telemetry::activeSession();
    // Claim the session's off-rank lane for this (the generator) thread, so
    // the fabric's spans on the caller side (routing, queries) are kept.
    telemetry::resetThreadSpans();
  }
  return rig;
}

// Fold the fabric's reports into the running totals. Call after every
// handle settled; shuts the fabric down (which joins its threads) before
// reading the telemetry session.
void collectLayers(Rig& rig, LayerTotals& totals) {
  const fabric::FabricReport report = rig.fabric->report();
  totals.submitted += report.submitted;
  totals.forwards += report.counters.forwards;
  totals.dedupHits += report.counters.dedupHits;
  for (const sched::ServiceReport& broker : report.brokers) {
    totals.cacheHits += broker.cache.hits;
    totals.cacheLookups += broker.cache.hits + broker.cache.misses;
    for (const sched::JobRow& row : broker.jobs) {
      if (row.cacheHit || row.coalesced) continue;
      ++totals.jobs;
      totals.attempts += static_cast<std::uint64_t>(row.attempts);
      totals.queueWaitSeconds.push_back(row.queueSeconds);
      totals.runSeconds.push_back(row.runSeconds);
    }
  }
  const serve::ServerStats serve = rig.fabric->productServer().stats();
  totals.windowPublishes += serve.windowPublishes;
  totals.notifyBatches += serve.notifies;

  rig.fabric->shutdown();
  if (rig.session == nullptr) return;
  const int slots = rig.session->nranks();
  for (int s = 0; s <= slots; ++s) {
    const telemetry::RankSummary sum =
        s < slots ? rig.session->slot(s).summary()
                  : rig.session->offRankSlot().summary();
    for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p)
      totals.phaseMs[std::string(telemetry::kPhaseJsonNames[p])] +=
          static_cast<double>(sum.phaseNs[p] + sum.replayNs[p]) * 1e-6;
    for (std::size_t c = 0; c < telemetry::kCounterCount; ++c)
      totals.counters[std::string(telemetry::kCounterJsonNames[c])] +=
          static_cast<double>(sum.counters[c]);
  }
}

// The subscription check: the server holds the scenario's complete map and
// the client saw every tile at that map's final version.
bool subscriptionConverged(Rig& rig, const std::string& digest,
                           const sched::ScenarioSpec& spec, int tileEdge) {
  const auto map = rig.fabric->productServer().partialMap(digest);
  return map.has_value() && map->complete &&
         rig.client->allAt(digest, map->version, spec.dims.nx, spec.dims.ny,
                           tileEdge);
}

// PGV-H map of a settled wave scenario, row-major nx*ny.
std::vector<float> pgvhRowMajor(const sched::ScenarioProducts& products,
                                const sched::ScenarioSpec& spec) {
  const sched::ArtifactBlob* blob = products.find("pgvh.bin");
  if (blob == nullptr) throw std::runtime_error("no pgvh.bin product");
  const std::size_t points = spec.dims.nx * spec.dims.ny;
  if (blob->bytes.size() != points * sizeof(float))
    throw std::runtime_error("pgvh.bin has the wrong size");
  std::vector<float> record(points);
  std::memcpy(record.data(), blob->bytes.data(), blob->bytes.size());
  const serve::SurfaceLayout layout(spec.dims.nx, spec.dims.ny, spec.dims.nz,
                                    spec.nranks);
  std::vector<float> map(points);
  layout.recordToRowMajor(record.data(), map.data());
  return map;
}

sched::ScenarioProducts productsOf(const fabric::FabricJobHandle& handle) {
  std::lock_guard<std::mutex> lock(handle->mu);
  return handle->products;
}

// Serve answer against a brute-force fold of the products.
bool exceedanceMatches(const serve::ExceedanceQuery& query,
                       const serve::ExceedanceResult& result,
                       const std::vector<const std::vector<float>*>& maps,
                       std::size_t nx) {
  const serve::Extent& e = query.extent;
  if (result.width != e.width() || result.height != e.height()) return false;
  for (std::size_t y = e.y0; y < e.y1; ++y)
    for (std::size_t x = e.x0; x < e.x1; ++x) {
      float wantMax = 0.0f;
      std::uint32_t wantCount = 0;
      for (const std::vector<float>* map : maps) {
        const float v = (*map)[x + nx * y];
        if (v > wantMax) wantMax = v;
        if (v > query.threshold) ++wantCount;
      }
      const std::size_t at = (x - e.x0) + result.width * (y - e.y0);
      if (std::memcmp(&result.maxOver[at], &wantMax, sizeof(float)) != 0 ||
          result.exceedCount[at] != wantCount)
        return false;
    }
  return true;
}

// setup_s samples: kSetupSamples set-ups (fabric built and subscribed,
// plus the cycle solver for cycle_catalog), each torn down again, all at
// the start of the pass so every sample sees the same process state.
//
// Every sample builds its fabric over the same root, whose directory tree
// an untimed first set-up created: the fabric restarts over an existing,
// empty root, as a service does. Creating a directory on the reference
// host's shared disk took 7 us at one minute and 300 us at another, for
// tens of seconds at a time, so timing it would measure the host's disk
// queue rather than the set-up code (see README.md, "setup_s").
void measureSetups(const fabric::FabricConfig& config,
                   const RunOptions& options, Tracer& tracer,
                   const serve::Extent& extent, PassResult& out,
                   const cycle::CycleConfig* cycleConfig = nullptr) {
  const fs::path root = fs::path(options.workDir) / "setup";
  makeRig(config, options, tracer, extent, root);  // creates the tree
  for (int i = 0; i < kSetupSamples; ++i) {
    auto rig = makeRig(config, options, tracer, extent, root);
    double seconds = rig->setupSeconds;
    if (cycleConfig != nullptr) {
      const Clock::time_point t0 = Clock::now();
      cycle::CycleSolver solver(*cycleConfig);
      seconds += secondsSince(t0);
    }
    out.setupSeconds.push_back(seconds);
  }
  fs::remove_all(root);
}

// --- wave_large ------------------------------------------------------------------

PassResult runWaveLarge(const RunOptions& options, Tracer& tracer,
                        Outcome& outcome) {
  PassResult out;
  const fabric::FabricConfig config = waveLargeFabricConfig();
  const serve::Extent extent{0, 0, kWaveLargeDims.nx, kWaveLargeDims.ny};
  measureSetups(config, options, tracer, extent, out);

  const Clock::time_point passStart = Clock::now();
  for (int rep = 0;; ++rep) {
    const int variant = static_cast<int>((options.seed + rep) % kWaveVariants);
    const sched::ScenarioSpec spec = waveLargeSpec(variant);
    ::sync();  // this repetition's checkpoint fsyncs wait on no older writeback
    auto rig = makeRig(config, options, tracer, extent);

    const Clock::time_point due = Clock::now();
    fabric::FabricJobHandle handle;
    const auto traceId = static_cast<std::uint64_t>(rep) + 1;
    {
      Tracer::Scope span(tracer, "fabric.submit", 0, traceId);
      handle = rig->fabric->submit(spec);
    }
    const std::uint64_t settleSpan =
        tracer.beginAt("fabric.settle", due, 0, traceId);
    const sched::JobPhase phase = handle->wait();
    const double solution = secondsSince(due);
    tracer.end(settleSpan);
    outcome.operations(1, phase == sched::JobPhase::Completed ? 0 : 1);

    out.solutionSeconds.push_back(solution);
    out.scenarioLatency.push_back(solution);
    out.cellUpdatesPerSecond.push_back(
        static_cast<double>(spec.dims.count() * spec.steps) / solution);
    if (const auto first = rig->client->firstTile(handle->digest))
      out.firstTileLatency.push_back(secondsBetween(due, *first));

    if (phase == sched::JobPhase::Completed) {
      rig->fabric->productServer().reconcile();
      outcome.check(subscriptionConverged(*rig, handle->digest, spec,
                                          config.serve.tileEdge),
                    "wave_large: every subscribed tile reached complete");
      const sched::ScenarioProducts products = productsOf(handle);
      const std::vector<float> map = pgvhRowMajor(products, spec);
      const sched::ArtifactBlob* blob = products.find("pgvh.bin");
      const ReferenceVerdict verdict =
          checkWaveReference(variant, blob->md5Hex, map);
      outcome.check(verdict != ReferenceVerdict::Mismatch,
                    "wave_large: PGV-H map matches the stored reference "
                    "(variant " + std::to_string(variant) + ", md5 " +
                        blob->md5Hex + ")");
      if (verdict == ReferenceVerdict::WithinTolerance)
        std::fprintf(stderr,
                     "note: wave_large variant %d PGV-H differs in bits from "
                     "the reference but is within tolerance\n",
                     variant);
    } else {
      outcome.check(false, "wave_large: scenario completed");
    }
    collectLayers(*rig, out.layers);

    const double elapsed = secondsSince(passStart);
    if (elapsed + solution > options.seconds) break;
  }
  return out;
}

// --- ensemble_serve ---------------------------------------------------------------

PassResult runEnsembleServe(const RunOptions& options, Tracer& tracer,
                            Outcome& outcome) {
  PassResult out;
  const fabric::FabricConfig config = ensembleFabricConfig();
  const serve::Extent extent{0, 0, kEnsembleDims.nx, kEnsembleDims.ny};
  measureSetups(config, options, tracer, extent, out);

  // The generated inputs: specs, query parameters and the merged schedule.
  const EnsembleInputs inputs = makeEnsembleInputs(options.seed, options.seconds);
  auto rig = makeRig(config, options, tracer, extent);
  fabric::HazardFabric& fab = *rig->fabric;

  SettleWatch watch(tracer);
  std::vector<fabric::FabricJobHandle> handles;
  handles.reserve(inputs.specs.size());
  std::uint64_t queryFailures = 0;

  // The open loop: one generator thread (this one) walks the schedule and
  // times every operation from its due time.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  for (const ScheduledOp& op : inputs.schedule) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(op.dueSeconds));
    std::this_thread::sleep_until(due);
    out.generatorLag.push_back(secondsSince(due));
    if (op.kind == ScheduledOp::Kind::Submit) {
      const std::uint64_t traceId = op.index + 1;
      fabric::FabricJobHandle handle;
      {
        Tracer::Scope span(tracer, "fabric.submit", 0, traceId);
        handle = fab.submit(inputs.specs[op.index]);
      }
      handles.push_back(handle);
      watch.watch(handle, due, traceId);
      continue;
    }
    serve::ExceedanceQuery query =
        inputs.queries[op.index].recent(handles, kOpenLoopCatalog);
    try {
      Tracer::Scope span(tracer, "serve.exceedance");
      const serve::ExceedanceResult result = fab.exceedance(query);
      out.tilesPerQuery.push_back(static_cast<double>(result.tilesScanned));
    } catch (const std::exception& e) {
      ++queryFailures;
      std::fprintf(stderr, "ensemble_serve: query failed: %s\n", e.what());
    }
    out.queryLatency.push_back(secondsSince(due));
  }
  watch.join();

  Clock::time_point last = t0;
  std::uint64_t failedScenarios = 0;
  for (const SettleWatch::Settled& s : watch.results()) {
    last = std::max(last, s.settled);
    out.scenarioLatency.push_back(secondsBetween(s.due, s.settled));
    if (s.phase != sched::JobPhase::Completed) ++failedScenarios;
    if (const auto first = rig->client->firstTile(s.handle->digest))
      out.firstTileLatency.push_back(secondsBetween(s.due, *first));
  }
  const double solution = secondsBetween(t0, last);
  out.solutionSeconds.push_back(solution);
  std::uint64_t cells = 0;
  for (const sched::ScenarioSpec& spec : inputs.specs)
    cells += spec.dims.count() * spec.steps;
  out.cellUpdatesPerSecond.push_back(static_cast<double>(cells) / solution);
  outcome.operations(handles.size(), failedScenarios);
  outcome.operations(out.queryLatency.size(), queryFailures);

  // Output checks: every tile complete, and a seeded sample of exceedance
  // answers equal to brute force over the settled pgvh.bin products.
  fab.productServer().reconcile();
  std::map<std::string, std::vector<float>> maps;
  std::vector<std::string> settled;
  bool tilesComplete = true;
  for (const auto& handle : handles) {
    if (handle->wait() != sched::JobPhase::Completed) continue;
    tilesComplete &= subscriptionConverged(*rig, handle->digest, handle->spec,
                                           config.serve.tileEdge);
    maps[handle->digest] = pgvhRowMajor(productsOf(handle), handle->spec);
    settled.push_back(handle->digest);
  }
  outcome.check(tilesComplete,
                "ensemble_serve: every subscribed tile reached complete");
  for (const QueryParams& params : inputs.checks) {
    const serve::ExceedanceQuery query = params.subset(settled, kCheckCatalog);
    std::vector<const std::vector<float>*> refs;
    for (const std::string& d : query.digests) refs.push_back(&maps[d]);
    const serve::ExceedanceResult result = fab.exceedance(query);
    outcome.check(exceedanceMatches(query, result, refs, kEnsembleDims.nx),
                  "ensemble_serve: exceedance equals brute force");
  }

  // Closed-loop read-only phase over the settled catalog, after the
  // brokers stop: every query is a full-map exceedance over one seeded
  // 96-digest catalog, so each does the same work whatever the seed (see
  // README.md, "queries_per_s steadiness").
  collectLayers(*rig, out.layers);
  const std::vector<std::string> catalog =
      sampleCatalog(settled, kClosedLoopCatalog, options.seed);
  const double roundSeconds =
      kClosedLoopShare * options.seconds / kClosedLoopRounds;
  for (int round = 0; round < kClosedLoopRounds; ++round) {
    std::uint64_t n = 0;
    const Clock::time_point c0 = Clock::now();
    while (secondsSince(c0) < roundSeconds) {
      serve::ExceedanceQuery query;
      query.extent = extent;
      query.digests = catalog;
      query.threshold =
          inputs.closedLoopThresholds[n % inputs.closedLoopThresholds.size()];
      Tracer::Scope span(tracer, "serve.exceedance.closed_loop");
      (void)fab.exceedance(query);
      ++n;
    }
    out.closedLoopRounds.push_back(static_cast<double>(n) / secondsSince(c0));
    out.closedLoopQueries += n;
  }
  out.closedLoopQueriesPerSecond = median(out.closedLoopRounds);
  outcome.operations(out.closedLoopQueries, 0);
  return out;
}

// --- cycle_catalog ----------------------------------------------------------------

PassResult runCycleCatalog(const RunOptions& options, Tracer& tracer,
                           Outcome& outcome) {
  PassResult out;
  const fabric::FabricConfig config = cycleFabricConfig();
  const cycle::CycleConfig cycleConfig = catalogCycleConfig();
  const cycle::BridgeConfig bridge = catalogBridgeConfig();
  // Rupture scenarios publish no tiles; the subscription is still part of
  // the set-up a client pays, as on the other workloads.
  const serve::Extent extent{0, 0, 64, 64};
  measureSetups(config, options, tracer, extent, out, &cycleConfig);

  const Clock::time_point passStart = Clock::now();
  for (int rep = 0;; ++rep) {
    ::sync();  // as in wave_large: no older writeback under this repetition
    auto rig = makeRig(config, options, tracer, extent);
    std::unique_ptr<cycle::CycleSolver> solver;
    {
      Tracer::Scope span(tracer, "cycle.CycleSolver");
      solver = std::make_unique<cycle::CycleSolver>(cycleConfig);
    }

    const Clock::time_point start = Clock::now();
    cycle::CycleRunSummary summary;
    {
      Tracer::Scope span(tracer, "cycle.run");
      summary = solver->run();
    }
    // Submit each bridged event up front so its settle can be timed; the
    // catalog submission below coalesces onto these handles.
    SettleWatch watch(tracer);
    std::uint64_t cells = 0;
    const Clock::time_point due = Clock::now();
    for (const cycle::CycleEvent& event : solver->events()) {
      sched::ScenarioSpec spec = cycle::eventSpec(event, bridge);
      cells += ruptureCells(spec) * spec.steps;
      const auto traceId = static_cast<std::uint64_t>(event.index) + 1;
      Tracer::Scope span(tracer, "fabric.submit", 0, traceId);
      watch.watch(rig->fabric->submit(std::move(spec)), due, traceId);
    }
    cycle::CycleCatalog catalog;
    {
      Tracer::Scope span(tracer, "cycle.submitCatalog");
      catalog = cycle::submitCatalog(*rig->fabric, cycleConfig, summary,
                                     solver->events(), bridge);
    }
    const double solution = secondsSince(start);
    watch.join();

    out.solutionSeconds.push_back(solution);
    out.cellUpdatesPerSecond.push_back(static_cast<double>(cells) / solution);
    std::uint64_t failed = 0;
    std::vector<double> magnitudes;
    for (const SettleWatch::Settled& s : watch.results()) {
      out.scenarioLatency.push_back(secondsBetween(s.due, s.settled));
      if (s.phase != sched::JobPhase::Completed) {
        ++failed;
        continue;
      }
      const sched::ScenarioProducts products = productsOf(s.handle);
      const sched::ArtifactBlob* blob = products.find("fault_history");
      magnitudes.push_back(
          blob == nullptr
              ? 0.0
              : sched::deserializeFaultHistory(blob->bytes).momentMagnitude());
    }
    outcome.operations(watch.results().size(), failed);

    bool rowsOk = true;
    for (const cycle::CycleCatalogRow& row : catalog.rows)
      rowsOk &= row.phase == "completed" && row.completions == 1;
    outcome.check(rowsOk, "cycle_catalog: every event completed exactly once");
    outcome.check(
        cycle::validateCycleCatalogJson(cycle::toJson(catalog)).empty(),
        "cycle_catalog: catalog JSON validates");
    const ReferenceVerdict verdict =
        checkCycleReference(catalog, solver->events(), magnitudes);
    outcome.check(verdict != ReferenceVerdict::Mismatch,
                  "cycle_catalog: catalog digest " + catalog.digestHex() +
                      " and " + std::to_string(catalog.rows.size()) +
                      " events match the stored reference");
    if (verdict == ReferenceVerdict::WithinTolerance)
      std::fprintf(stderr,
                   "note: cycle_catalog digest differs from the reference; "
                   "events equal and magnitudes within tolerance\n");
    collectLayers(*rig, out.layers);

    const double elapsed = secondsSince(passStart);
    if (elapsed + solution > options.seconds) break;
  }
  return out;
}

}  // namespace

int printReference(const RunOptions& options) {
  fs::create_directories(options.workDir);
  Tracer off(false);
  std::printf(
      "#pragma once\n"
      "// Reference outputs for the benchmark's output checks. Generated by\n"
      "// `awp_perfbench --print-reference`; regenerate only when a change is "
      "meant\n// to alter the physics.\n\n"
      "namespace perfbench::reference {\n\n"
      "struct WaveVariant {\n  const char* md5;\n  float samples[300];\n};\n\n"
      "inline constexpr WaveVariant kWave[%d] = {\n",
      kWaveVariants);
  const fabric::FabricConfig waveConfig = waveLargeFabricConfig();
  const serve::Extent waveExtent{0, 0, kWaveLargeDims.nx, kWaveLargeDims.ny};
  for (int variant = 0; variant < kWaveVariants; ++variant) {
    const sched::ScenarioSpec spec = waveLargeSpec(variant);
    auto rig = makeRig(waveConfig, options, off, waveExtent);
    const fabric::FabricJobHandle handle = rig->fabric->submit(spec);
    if (handle->wait() != sched::JobPhase::Completed) return 1;
    const sched::ScenarioProducts products = productsOf(handle);
    const std::vector<float> samples =
        sampleWaveMap(pgvhRowMajor(products, spec));
    std::printf("    {\"%s\",\n     {", products.find("pgvh.bin")->md5Hex.c_str());
    for (std::size_t i = 0; i < samples.size(); ++i)
      std::printf("%s%.8ef", i == 0 ? "" : (i % 6 == 0 ? ",\n      " : ", "),
                  static_cast<double>(samples[i]));
    std::printf("}},\n");
  }
  std::printf("};\n\n");

  const cycle::CycleConfig cycleConfig = catalogCycleConfig();
  const cycle::BridgeConfig bridge = catalogBridgeConfig();
  auto rig = makeRig(cycleFabricConfig(), options, off, {0, 0, 64, 64});
  cycle::CycleSolver solver(cycleConfig);
  const cycle::CycleRunSummary summary = solver.run();
  std::vector<fabric::FabricJobHandle> handles;
  for (const cycle::CycleEvent& event : solver.events())
    handles.push_back(rig->fabric->submit(cycle::eventSpec(event, bridge)));
  const cycle::CycleCatalog catalog = cycle::submitCatalog(
      *rig->fabric, cycleConfig, summary, solver.events(), bridge);
  const std::size_t n = solver.events().size();
  std::printf("inline constexpr const char* kCatalogDigest = \"%s\";\n",
              catalog.digestHex().c_str());
  std::printf("inline constexpr const char* kEventDigests[%zu] = {\n", n);
  for (const cycle::CycleEvent& event : solver.events())
    std::printf("    \"%s\",\n", event.digest.c_str());
  std::printf("};\ninline constexpr double kRuptureMagnitudes[%zu] = {\n", n);
  for (const auto& handle : handles) {
    handle->wait();
    const sched::ScenarioProducts products = productsOf(handle);
    std::printf("    %.17g,\n",
                sched::deserializeFaultHistory(
                    products.find("fault_history")->bytes)
                    .momentMagnitude());
  }
  std::printf("};\n\n}  // namespace perfbench::reference\n");
  return 0;
}

PassResult runWorkload(const RunOptions& options, Tracer& tracer,
                       Outcome& outcome) {
  fs::create_directories(options.workDir);
  Tracer::Scope span(tracer, "bench.workload");
  if (options.workload == "wave_large")
    return runWaveLarge(options, tracer, outcome);
  if (options.workload == "ensemble_serve")
    return runEnsembleServe(options, tracer, outcome);
  if (options.workload == "cycle_catalog")
    return runCycleCatalog(options, tracer, outcome);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
