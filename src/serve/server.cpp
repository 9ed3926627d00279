#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>

#include "fault/injector.hpp"
#include "io/aggregated_writer.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/taxonomy.hpp"
#include "util/error.hpp"
#include "util/retry.hpp"

namespace awp::serve {

namespace {

// Completion publishes retry on injected drops: a settle must leave the
// store canonical whenever the drop burst is shorter than the attempts.
constexpr util::RetryPolicy kPublishRetry{
    /*maxAttempts=*/4, /*baseDelaySeconds=*/0.0, /*backoffFactor=*/2.0,
    /*maxDelaySeconds=*/0.01, /*jitterFraction=*/0.25, /*seed=*/0x5e27eULL};

// Tiles covering `extent` for an nx*ny field, in (ty, tx) row order.
template <typename Fn>
void forEachTile(const Extent& extent, std::size_t nx, std::size_t ny,
                 int edge, Fn&& fn) {
  if (extent.empty()) return;
  const std::size_t x1 = std::min<std::size_t>(extent.x1, nx);
  const std::size_t y1 = std::min<std::size_t>(extent.y1, ny);
  if (extent.x0 >= x1 || extent.y0 >= y1) return;
  const int tx0 = static_cast<int>(extent.x0) / edge;
  const int ty0 = static_cast<int>(extent.y0) / edge;
  const int tx1 = static_cast<int>(x1 - 1) / edge;
  const int ty1 = static_cast<int>(y1 - 1) / edge;
  for (int ty = ty0; ty <= ty1; ++ty)
    for (int tx = tx0; tx <= tx1; ++tx) fn(tx, ty);
}

// Does a tile's (unclamped) rect overlap a subscription extent?
bool tileTouches(int tx, int ty, int edge, const Extent& extent) {
  Extent tile;
  tile.x0 = static_cast<std::size_t>(tx) * edge;
  tile.y0 = static_cast<std::size_t>(ty) * edge;
  tile.x1 = tile.x0 + edge;
  tile.y1 = tile.y0 + edge;
  return tile.overlaps(extent);
}

}  // namespace

ProductServer::ProductServer(ServeConfig config)
    : config_(config), store_(config.tileEdge) {
  AWP_CHECK_MSG(config_.windowSamples >= 1,
                "serve: window must be >= 1 sample");
}

ProductServer::RunState& ProductServer::stateForLocked(
    const sched::SurfaceRunInfo& info) {
  auto it = runs_.find(info.specHash);
  if (it == runs_.end()) {
    auto state = std::make_unique<RunState>();
    state->spec = info.spec;
    state->digestHex = info.specHash;
    state->digestRaw = digestFromHex(info.specHash);
    state->layout = std::make_unique<SurfaceLayout>(
        info.spec.dims.nx, info.spec.dims.ny, info.spec.dims.nz,
        info.spec.nranks);
    state->accum.assign(state->layout->stepFloats() / 3, 0.0f);
    it = runs_.emplace(info.specHash, std::move(state)).first;
  }
  if (!info.surfacePath.empty()) it->second->surfacePath = info.surfacePath;
  return *it->second;
}

bool ProductServer::foldRangeLocked(RunState& state, std::uint64_t upTo) {
  if (upTo <= state.folded) return true;
  const std::uint64_t stepFloats = state.layout->stepFloats();
  const std::uint64_t stepBytes = stepFloats * sizeof(float);
  // Plain ifstream on purpose: the serving tier must not consume
  // sharedfile.read fault-injection occurrences, or chaos plans aimed at
  // the solver's I/O would shift under it.
  std::ifstream in(state.surfacePath, std::ios::binary);
  if (!in) return false;
  in.seekg(static_cast<std::streamoff>(state.folded * stepBytes));
  std::vector<float> record(stepFloats);
  for (std::uint64_t s = state.folded; s < upTo; ++s) {
    in.read(reinterpret_cast<char*>(record.data()),
            static_cast<std::streamsize>(stepBytes));
    if (in.gcount() != static_cast<std::streamsize>(stepBytes))
      return false;  // durable range not visible yet; retry on next flush
    state.layout->foldPgvh(record.data(), state.accum.data());
    state.folded = s + 1;
  }
  return true;
}

std::vector<TileDelta> ProductServer::publishTilesLocked(
    RunState& state, std::uint64_t version, bool forceAll, bool complete) {
  std::vector<TileDelta> deltas;
  const std::size_t nx = state.layout->nx();
  const std::size_t ny = state.layout->ny();
  const int edge = store_.tileEdge();
  Extent all;
  all.x0 = 0;
  all.y0 = 0;
  all.x1 = nx;
  all.y1 = ny;
  std::vector<float> field(nx * ny);
  state.layout->recordToRowMajor(state.accum.data(), field.data());
  std::vector<float> payload;
  forEachTile(all, nx, ny, edge, [&](int tx, int ty) {
    TileKey key;
    key.digest = state.digestRaw;
    key.field = static_cast<std::uint16_t>(Field::PgvH);
    key.tx = static_cast<std::uint16_t>(tx);
    key.ty = static_cast<std::uint16_t>(ty);
    const Extent ext = tileExtent(key, edge, nx, ny);
    payload.resize(ext.width() * ext.height());
    for (std::size_t y = ext.y0; y < ext.y1; ++y)
      std::memcpy(payload.data() + (y - ext.y0) * ext.width(),
                  field.data() + ext.x0 + nx * y,
                  ext.width() * sizeof(float));
    // Unless forced, tiles whose stored content already matches are
    // skipped: a window that changed nothing in this extent publishes
    // nothing, and a window whose publish was dropped converges as soon as
    // content diverges.
    const PublishOutcome out = store_.publish(
        key, version, payload.data(), payload.size(), !forceAll);
    if (out.advanced)
      deltas.push_back(TileDelta{state.digestHex, Field::PgvH, tx, ty,
                                 version, complete});
  });
  return deltas;
}

void ProductServer::onWindowFlush(const sched::SurfaceRunInfo& info,
                                  int origin, int rank,
                                  std::uint64_t durableSamples,
                                  std::uint64_t lowestRewritten) {
  // Runs on a solver rank thread, which owns a telemetry slot — the one
  // serve path where spans are safe.
  telemetry::ScopedSpan span(telemetry::Phase::ServePublish);
  std::vector<TileDelta> deltas;
  {
    std::lock_guard<std::mutex> lock(stateMu_);
    RunState& state = stateForLocked(info);
    if (state.complete) return;
    if (lowestRewritten != io::kNoRewrite &&
        lowestRewritten < state.folded && !state.tainted) {
      // History below the folded prefix changed (dt-tightened retry): a
      // max-fold cannot unfold, so suspend partials until completion.
      state.tainted = true;
      std::lock_guard<std::mutex> slock(statsMu_);
      ++stats_.taintedRuns;
    }
    auto& durable = state.durableByRank[rank];
    if (durableSamples > durable) durable = durableSamples;
    if (state.tainted) return;
    // The partial map is only correct up to the slowest surface rank's
    // durable prefix.
    std::uint64_t v = std::numeric_limits<std::uint64_t>::max();
    for (const core::SurfaceBlock& block : state.layout->blocks()) {
      const auto it = state.durableByRank.find(block.rank);
      v = std::min(v, it == state.durableByRank.end() ? 0 : it->second);
    }
    if (v == std::numeric_limits<std::uint64_t>::max() ||
        v < state.windowMark + static_cast<std::uint64_t>(config_.windowSamples))
      return;
    if (!foldRangeLocked(state, v)) return;
    state.windowMark = v;
    if (fault::injectionEnabled()) {
      if (const auto act =
              fault::activeInjector()->check("serve_publish_drop", origin);
          act.has_value() && act->kind == fault::FaultKind::MessageDrop) {
        telemetry::count(telemetry::Counter::ServePublishDrops);
        std::lock_guard<std::mutex> slock(statsMu_);
        ++stats_.publishDrops;
        return;  // window lost; content comparison converges it later
      }
    }
    deltas = publishTilesLocked(state, v, /*forceAll=*/false,
                                /*complete=*/false);
    {
      std::lock_guard<std::mutex> slock(statsMu_);
      ++stats_.windowPublishes;
    }
  }
  if (!deltas.empty()) deliver(origin, deltas);
}

void ProductServer::onScenarioComplete(const sched::SurfaceRunInfo& info,
                                       int origin,
                                       const sched::ScenarioProducts& products) {
  const sched::ArtifactBlob* pgvh = products.find("pgvh.bin");
  if (pgvh == nullptr) return;  // rupture kinds carry no surface product
  std::vector<TileDelta> deltas;
  {
    std::lock_guard<std::mutex> lock(stateMu_);
    RunState& state = stateForLocked(info);
    if (pgvh->bytes.size() != state.accum.size() * sizeof(float)) return;
    if (!state.complete) {
      // The canonical product replaces whatever was folded: handles taint,
      // dropped windows, and handoff re-runs in one deterministic step.
      std::memcpy(state.accum.data(), pgvh->bytes.data(),
                  pgvh->bytes.size());
      const sched::ArtifactBlob* surface = products.find("surface.bin");
      const std::uint64_t stepBytes =
          state.layout->stepFloats() * sizeof(float);
      state.totalSamples =
          surface != nullptr && stepBytes > 0
              ? surface->bytes.size() / stepBytes
              : state.folded;
      if (state.totalSamples == 0) state.totalSamples = 1;
      state.folded = state.totalSamples;
      state.complete = true;
      state.tainted = false;
    }
    try {
      util::retryCall(kPublishRetry, "serve.publish", [&] {
        if (fault::injectionEnabled()) {
          if (const auto act = fault::activeInjector()->check(
                  "serve_publish_drop", origin);
              act.has_value() &&
              act->kind == fault::FaultKind::MessageDrop) {
            telemetry::count(telemetry::Counter::ServePublishDrops);
            std::lock_guard<std::mutex> slock(statsMu_);
            ++stats_.publishDrops;
            throw TransientError("serve: completion publish dropped");
          }
        }
        deltas = publishTilesLocked(state, state.totalSamples,
                                    /*forceAll=*/true, /*complete=*/true);
      });
      state.canonicalPublished = true;
    } catch (const TransientError&) {
      // Retries exhausted under a sustained drop burst: the run state is
      // canonical, so the next reconcile() republishes and converges.
      deltas.clear();
    }
    std::lock_guard<std::mutex> slock(statsMu_);
    ++stats_.completionPublishes;
  }
  if (!deltas.empty()) deliver(origin, deltas);
}

ExceedanceResult ProductServer::exceedance(const ExceedanceQuery& query) {
  telemetry::count(telemetry::Counter::ServeQueries);
  {
    std::lock_guard<std::mutex> slock(statsMu_);
    ++stats_.queries;
  }
  ExceedanceResult res;
  res.width = query.extent.width();
  res.height = query.extent.height();
  res.exceedCount.assign(res.width * res.height, 0);
  res.maxOver.assign(res.width * res.height, 0.0f);
  if (res.width == 0 || res.height == 0) return res;

  struct RunSnap {
    bool known = false;
    std::array<std::uint8_t, 16> digestRaw{};
    std::size_t nx = 0, ny = 0;
    bool complete = false;
    std::uint64_t totalSamples = 0;
  };
  std::vector<RunSnap> snaps(query.digests.size());
  {
    std::lock_guard<std::mutex> lock(stateMu_);
    for (std::size_t i = 0; i < query.digests.size(); ++i) {
      const auto it = runs_.find(query.digests[i]);
      if (it == runs_.end()) continue;
      snaps[i].known = true;
      snaps[i].digestRaw = it->second->digestRaw;
      snaps[i].nx = it->second->layout->nx();
      snaps[i].ny = it->second->layout->ny();
      snaps[i].complete = it->second->complete;
      snaps[i].totalSamples = it->second->totalSamples;
    }
  }

  const int edge = store_.tileEdge();
  for (std::size_t i = 0; i < query.digests.size(); ++i) {
    ScenarioStaleness st;
    st.digest = query.digests[i];
    const RunSnap& snap = snaps[i];
    if (!snap.known) {
      res.scenarios.push_back(st);
      continue;
    }
    st.complete = snap.complete;
    st.totalSamples = snap.totalSamples;
    std::uint64_t minVersion = std::numeric_limits<std::uint64_t>::max();
    bool anyMissing = false;
    // Stream tile-by-tile over the covered extent; a whole map is never
    // materialized, so a catalog query costs O(extent), not O(nx*ny).
    forEachTile(query.extent, snap.nx, snap.ny, edge, [&](int tx, int ty) {
      TileKey key;
      key.digest = snap.digestRaw;
      key.field = static_cast<std::uint16_t>(query.field);
      key.tx = static_cast<std::uint16_t>(tx);
      key.ty = static_cast<std::uint16_t>(ty);
      TileRecord rec;
      const ChunkRef payload = store_.load(key, &rec);
      if (!payload.has_value()) {
        anyMissing = true;
        return;
      }
      ++res.tilesScanned;
      telemetry::count(telemetry::Counter::ServeTilesScanned);
      st.present = true;
      minVersion = std::min(minVersion, rec.version);
      const Extent ext = tileExtent(key, edge, snap.nx, snap.ny);
      const std::size_t y0 = std::max(ext.y0, query.extent.y0);
      const std::size_t y1 = std::min(ext.y1, query.extent.y1);
      const std::size_t x0 = std::max(ext.x0, query.extent.x0);
      const std::size_t x1 = std::min(ext.x1, query.extent.x1);
      for (std::size_t y = y0; y < y1; ++y)
        for (std::size_t x = x0; x < x1; ++x) {
          const float value =
              (*payload)[(x - ext.x0) + ext.width() * (y - ext.y0)];
          const std::size_t at =
              (x - query.extent.x0) + res.width * (y - query.extent.y0);
          if (value > res.maxOver[at]) res.maxOver[at] = value;
          if (value > query.threshold) ++res.exceedCount[at];
        }
    });
    st.version = (st.present && !anyMissing &&
                  minVersion != std::numeric_limits<std::uint64_t>::max())
                     ? minVersion
                     : 0;
    res.scenarios.push_back(st);
  }
  return res;
}

std::optional<PartialMap> ProductServer::partialMap(
    const std::string& digest) const {
  std::lock_guard<std::mutex> lock(stateMu_);
  const auto it = runs_.find(digest);
  if (it == runs_.end()) return std::nullopt;
  const RunState& state = *it->second;
  PartialMap map;
  map.nx = state.layout->nx();
  map.ny = state.layout->ny();
  map.version = state.folded;
  map.complete = state.complete;
  map.tainted = state.tainted;
  map.values.resize(map.nx * map.ny);
  state.layout->recordToRowMajor(state.accum.data(), map.values.data());
  return map;
}

std::uint64_t ProductServer::subscribe(Field field, Extent extent,
                                       SubscriptionCallback callback) {
  std::lock_guard<std::mutex> lock(deliverMu_);
  const std::uint64_t id = nextSubId_++;
  Subscription& sub = subs_[id];
  sub.field = field;
  sub.extent = extent;
  sub.callback = std::move(callback);
  return id;
}

void ProductServer::unsubscribe(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(deliverMu_);
  subs_.erase(id);
}

void ProductServer::deliver(int origin,
                            const std::vector<TileDelta>& deltas) {
  if (fault::injectionEnabled()) {
    if (const auto act =
            fault::activeInjector()->check("serve_notify_delay", origin);
        act.has_value() && act->kind == fault::FaultKind::RankStall &&
        act->stallSeconds > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(act->stallSeconds));
  }
  std::lock_guard<std::mutex> lock(deliverMu_);
  deliverLocked(deltas);
}

void ProductServer::deliverLocked(const std::vector<TileDelta>& deltas) {
  const int edge = store_.tileEdge();
  std::vector<TileDelta> batch;
  for (auto& [id, sub] : subs_) {
    batch.clear();
    for (const TileDelta& delta : deltas) {
      if (delta.field != sub.field) continue;
      if (!tileTouches(delta.tx, delta.ty, edge, sub.extent)) continue;
      auto& last =
          sub.delivered[std::make_tuple(delta.digest, delta.tx, delta.ty)];
      if (delta.version <= last) continue;  // the idempotence fence
      last = delta.version;
      batch.push_back(delta);
    }
    if (!batch.empty()) {
      sub.callback(batch);
      telemetry::count(telemetry::Counter::ServeNotifies);
      std::lock_guard<std::mutex> slock(statsMu_);
      ++stats_.notifies;
    }
  }
}

void ProductServer::reconcile() {
  telemetry::count(telemetry::Counter::ServeReconciles);
  {
    std::lock_guard<std::mutex> slock(statsMu_);
    ++stats_.reconciles;
  }
  // Pass 1 — store anti-entropy: a completed run whose completion publish
  // exhausted its retries under a drop burst is republished from the
  // canonical accumulator. No drop consult here: the reconcile path is the
  // convergence backstop.
  std::vector<TileDelta> repub;
  {
    std::lock_guard<std::mutex> lock(stateMu_);
    for (auto& [hex, state] : runs_) {
      if (!state->complete || state->canonicalPublished) continue;
      auto deltas = publishTilesLocked(*state, state->totalSamples,
                                       /*forceAll=*/true, /*complete=*/true);
      state->canonicalPublished = true;
      repub.insert(repub.end(), deltas.begin(), deltas.end());
    }
  }
  // Pass 2 — subscriber anti-entropy: re-derive any delta a subscriber has
  // not seen from the store index (covers a notify that raced a subscribe,
  // and deltas to lagging subscribers after a broker handoff).
  struct RunGeom {
    std::string hex;
    std::array<std::uint8_t, 16> digestRaw{};
    std::size_t nx = 0, ny = 0;
    bool complete = false;
    std::uint64_t totalSamples = 0;
  };
  std::vector<RunGeom> geoms;
  {
    std::lock_guard<std::mutex> lock(stateMu_);
    geoms.reserve(runs_.size());
    for (const auto& [hex, state] : runs_) {
      RunGeom g;
      g.hex = hex;
      g.digestRaw = state->digestRaw;
      g.nx = state->layout->nx();
      g.ny = state->layout->ny();
      g.complete = state->complete;
      g.totalSamples = state->totalSamples;
      geoms.push_back(std::move(g));
    }
  }
  const int edge = store_.tileEdge();
  std::lock_guard<std::mutex> lock(deliverMu_);
  deliverLocked(repub);
  for (auto& [id, sub] : subs_) {
    std::vector<TileDelta> batch;
    for (const RunGeom& g : geoms) {
      forEachTile(sub.extent, g.nx, g.ny, edge, [&](int tx, int ty) {
        TileKey key;
        key.digest = g.digestRaw;
        key.field = static_cast<std::uint16_t>(sub.field);
        key.tx = static_cast<std::uint16_t>(tx);
        key.ty = static_cast<std::uint16_t>(ty);
        const std::uint64_t version = store_.latestVersion(key);
        if (version == 0) return;
        auto& last = sub.delivered[std::make_tuple(g.hex, tx, ty)];
        if (version <= last) return;
        last = version;
        batch.push_back(TileDelta{
            g.hex, sub.field, tx, ty, version,
            g.complete && version >= g.totalSamples});
      });
    }
    if (!batch.empty()) {
      sub.callback(batch);
      telemetry::count(telemetry::Counter::ServeNotifies);
      std::lock_guard<std::mutex> slock(statsMu_);
      ++stats_.notifies;
    }
  }
}

ServerStats ProductServer::stats() const {
  std::lock_guard<std::mutex> lock(statsMu_);
  return stats_;
}

}  // namespace awp::serve
