#pragma once
// ProductServer: the hazard-product serving tier. Sits between the
// scenario service (which reports surface window flushes and scenario
// completions through sched::ProductPublisher) and read-side clients
// (exceedance/max-over-catalog queries, extent subscriptions).
//
// Incremental model: each wave scenario's PGV-H map is folded sample
// window by sample window from the step-indexed surface file as ranks
// flush, and published as fixed-size content-addressed tiles at
// step-derived versions (version == number of surface samples folded).
// The accumulator stays in pgvh.bin record order and each window runs the
// same SurfaceLayout::foldPgvh as the post-hoc product; it is scattered
// to row-major only to cut tiles or answer partialMap.
// A mid-run scenario therefore already serves a partial map; queries
// carry per-scenario staleness metadata saying exactly which window each
// answer includes.
//
// Version lattice / idempotence: versions only grow, a publish at an
// already-reached version is absorbed (TileStore), and subscribers track
// a per-tile delivered version so a retried attempt, fabric replay, or
// reconcile pass can never re-notify or regress what a client saw.
//
// Rollback taint: a flush report that rewrote samples below the folded
// prefix (dt-tightened retry replaying history with different values)
// taints the run — a max-fold cannot unfold — so partial publishing
// suspends until completion, when the canonical product bytes
// (derivePgvh over the final surface file) replace the accumulator and
// every tile is published at the final version. Within-attempt health
// rollbacks replay bit-identical windows, so taint is a safe
// overapproximation: the completion publish converges every case.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sched/publish.hpp"
#include "serve/layout.hpp"
#include "serve/store.hpp"
#include "serve/tile.hpp"
#include "util/guarded.hpp"

namespace awp::serve {

struct ServeConfig {
  int tileEdge = 16;        // tile size in surface points (square)
  int windowSamples = 4;    // min new samples between partial publishes
  int reconcileEveryTicks = 50;  // broker pump ticks between reconciles
};

// One tile-version advance, as delivered to subscribers.
struct TileDelta {
  std::string digest;        // scenario spec hash (hex)
  Field field = Field::PgvH;
  int tx = 0, ty = 0;
  std::uint64_t version = 0;  // samples folded into this tile content
  bool complete = false;      // version is the scenario's final one
};

// Invoked under the server's delivery lock, in publish order, with
// strictly increasing versions per (digest, tile). The callback may issue
// queries and read partial maps, but must not subscribe/unsubscribe.
using SubscriptionCallback =
    std::function<void(const std::vector<TileDelta>&)>;

// Which window of a scenario a query answer includes.
struct ScenarioStaleness {
  std::string digest;
  bool present = false;   // at least one covered tile is published
  bool complete = false;  // scenario settled; tiles are canonical
  // Min published version over the covered tiles (0 when any covered
  // tile is still unpublished): every covered point reflects at least
  // this many folded samples.
  std::uint64_t version = 0;
  std::uint64_t totalSamples = 0;  // 0 until completion
};

struct ExceedanceQuery {
  Field field = Field::PgvH;
  Extent extent;                     // half-open surface-point rect
  std::vector<std::string> digests;  // the scenario catalog to aggregate
  float threshold = 0.0f;            // exceedance level [m/s]
};

struct ExceedanceResult {
  std::size_t width = 0, height = 0;  // extent dims (row-major arrays)
  // Per point: how many catalog scenarios exceed the threshold, and the
  // max value over the catalog. Streamed tile-by-tile from the index —
  // whole maps are never materialized.
  std::vector<std::uint32_t> exceedCount;
  std::vector<float> maxOver;
  std::uint64_t tilesScanned = 0;
  std::vector<ScenarioStaleness> scenarios;
};

// Snapshot of one scenario's folded (or canonical) row-major map.
struct PartialMap {
  std::size_t nx = 0, ny = 0;
  std::uint64_t version = 0;  // samples folded
  bool complete = false;
  bool tainted = false;       // partial publishing suspended until completion
  std::vector<float> values;  // nx*ny row-major
};

struct ServerStats {
  std::uint64_t windowPublishes = 0;      // partial windows published
  std::uint64_t completionPublishes = 0;  // completion publish passes
  std::uint64_t publishDrops = 0;         // injected serve_publish_drop hits
  std::uint64_t notifies = 0;             // delta batches delivered
  std::uint64_t queries = 0;
  std::uint64_t reconciles = 0;
  std::uint64_t taintedRuns = 0;
};

class ProductServer final : public sched::ProductPublisher {
 public:
  // Tile chunks live in the server's TileStore, so overlapping extents
  // dedupe across every service that publishes into it.
  explicit ProductServer(ServeConfig config);

  // --- sched::ProductPublisher (called by scenario services) -----------
  void onWindowFlush(const sched::SurfaceRunInfo& info, int origin,
                     int rank, std::uint64_t durableSamples,
                     std::uint64_t lowestRewritten) override;
  void onScenarioComplete(const sched::SurfaceRunInfo& info, int origin,
                          const sched::ScenarioProducts& products) override;

  // --- read path --------------------------------------------------------
  ExceedanceResult exceedance(const ExceedanceQuery& query);
  [[nodiscard]] std::optional<PartialMap> partialMap(
      const std::string& digest) const;

  // --- subscriptions ----------------------------------------------------
  std::uint64_t subscribe(Field field, Extent extent,
                          SubscriptionCallback callback);
  void unsubscribe(std::uint64_t id);

  // Anti-entropy: re-publish any completed run whose completion publish
  // was dropped past its retries, and re-deliver any store version a
  // subscriber has not seen (a dropped notify). Broker pumps call this on
  // a tick cadence; it is cheap when nothing lags.
  void reconcile();

  [[nodiscard]] TileStore& store() { return store_; }
  [[nodiscard]] const ServeConfig& config() const { return config_; }
  [[nodiscard]] ServerStats stats() const;

 private:
  struct RunState {
    sched::ScenarioSpec spec;
    std::array<std::uint8_t, 16> digestRaw{};
    std::string digestHex;
    std::string surfacePath;  // active owner's surface file (handoffs switch it)
    std::unique_ptr<SurfaceLayout> layout;
    std::map<int, std::uint64_t> durableByRank;
    std::uint64_t folded = 0;      // samples folded into accum
    std::uint64_t windowMark = 0;  // folded count at last publish attempt
    std::vector<float> accum;      // partial PGV-H, pgvh.bin record order
    bool tainted = false;
    bool complete = false;
    // The canonical completion publish landed; reconcile() republishes
    // only completed runs where it did not.
    bool canonicalPublished = false;
    std::uint64_t totalSamples = 0;
  };

  struct Subscription {
    Field field = Field::PgvH;
    Extent extent;
    SubscriptionCallback callback;
    // Last delivered version per (digest, tx, ty): the idempotence fence.
    std::map<std::tuple<std::string, int, int>, std::uint64_t> delivered;
  };

  RunState& stateForLocked(const sched::SurfaceRunInfo& info)
      AWP_REQUIRES(stateMu_);
  // Read and fold samples [state.folded, upTo) from the surface file.
  // Returns false (without advancing) when the file cannot provide the
  // range yet — the next flush retries.
  bool foldRangeLocked(RunState& state, std::uint64_t upTo)
      AWP_REQUIRES(stateMu_);
  // Publish tiles whose content differs from their stored chunk, at
  // `version`; returns the advanced deltas. forceAll publishes every tile
  // (the completion/reconcile canonical pass).
  std::vector<TileDelta> publishTilesLocked(RunState& state,
                                            std::uint64_t version,
                                            bool forceAll, bool complete)
      AWP_REQUIRES(stateMu_);
  // Deliver deltas to matching subscribers (call WITHOUT stateMu_ held).
  void deliver(int origin, const std::vector<TileDelta>& deltas);
  void deliverLocked(const std::vector<TileDelta>& deltas)
      AWP_REQUIRES(deliverMu_);

  ServeConfig config_;
  TileStore store_;

  mutable std::mutex stateMu_;
  // by digest hex
  std::map<std::string, std::unique_ptr<RunState>> runs_
      AWP_GUARDED_BY(stateMu_);

  mutable std::mutex deliverMu_;
  std::map<std::uint64_t, Subscription> subs_ AWP_GUARDED_BY(deliverMu_);
  std::uint64_t nextSubId_ AWP_GUARDED_BY(deliverMu_) = 1;

  mutable std::mutex statsMu_;
  ServerStats stats_ AWP_GUARDED_BY(statsMu_);
};

}  // namespace awp::serve
