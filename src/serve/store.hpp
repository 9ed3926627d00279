#pragma once
// TileStore: the versioned tile index of the serving tier and the owner
// of its payload chunks. The index maps TileKey -> (version, payload
// digest, chunk); chunks are immutable float arrays held in a
// content-addressed map keyed by the payload MD5, so identical tiles —
// across scenarios, or across versions of one scenario whose extent
// stopped changing — are stored once. Every index record shares
// ownership of its current chunk: a chunk no tile references any more
// leaves the map, and its memory goes with the last reader holding it.
//
// Version discipline: a publish only lands when it strictly advances the
// tile's version. Retried attempts and at-least-once fabric replays
// publish bit-identical payloads at the same step-derived versions, so a
// duplicate publish is absorbed here (no index churn, no re-notify) and
// a version can never regress.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "serve/tile.hpp"
#include "util/guarded.hpp"
#include "util/hot.hpp"

namespace awp::serve {

struct TileRecord {
  std::uint64_t version = 0;               // samples folded into the tile
  std::array<std::uint8_t, 16> chunkMd5{};  // content key of the payload
  std::uint32_t payloadFloats = 0;
};

struct PublishOutcome {
  bool advanced = false;     // version moved forward (subscribers notified)
  bool chunkStored = false;  // payload was new to the chunk map
};

// A loaded tile payload. It shares the store's immutable chunk, so it
// stays readable after its tile moves on; like an optional, it is empty
// when the tile was never published.
class ChunkRef {
 public:
  ChunkRef() = default;
  explicit ChunkRef(std::shared_ptr<const std::vector<float>> chunk)
      : chunk_(std::move(chunk)) {}
  [[nodiscard]] bool has_value() const { return chunk_ != nullptr; }
  const std::vector<float>* operator->() const { return chunk_.get(); }
  const std::vector<float>& operator*() const { return *chunk_; }

 private:
  std::shared_ptr<const std::vector<float>> chunk_;
};

// The chunk map's accounting at chunkStats() time.
struct ChunkStats {
  std::uint64_t chunks = 0;      // live chunks (referenced by a tile)
  std::uint64_t chunkBytes = 0;  // bytes the live chunks hold
  // Payload bytes the tiles reference, a shared chunk counted once per
  // tile: tileBytes - chunkBytes is what dedup saves right now.
  std::uint64_t tileBytes = 0;
  std::uint64_t publishes = 0;  // publishes that advanced a tile
  std::uint64_t dedupHits = 0;  // of those, payloads already live
};

class TileStore {
 public:
  // `tileEdge` is the square tile size in surface points.
  explicit TileStore(int tileEdge);

  [[nodiscard]] int tileEdge() const { return tileEdge_; }

  // Publish `payload` as the tile's content at `version`. No-op (absorbed
  // duplicate) unless version strictly advances the tile's current one;
  // with `skipUnchanged`, also a no-op when the payload matches the
  // tile's current content (a window that changed nothing in the tile).
  PublishOutcome publish(const TileKey& key, std::uint64_t version,
                         const float* payload, std::size_t count,
                         bool skipUnchanged = false);

  // Current version of a tile (0 = never published). Alloc-free/
  // throw-free: the notify path probes it per candidate tile.
  AWP_HOT std::uint64_t latestVersion(const TileKey& key) const;

  // The tile's current payload, shared without a copy, and (when `rec` is
  // given) the record it belongs to. Alloc-free/throw-free: queries load
  // every covered tile through it.
  AWP_HOT ChunkRef load(const TileKey& key, TileRecord* rec = nullptr) const;

  [[nodiscard]] std::size_t tileCount() const;
  [[nodiscard]] ChunkStats chunkStats() const;

 private:
  using Md5Digest = std::array<std::uint8_t, 16>;
  struct Tile {
    TileRecord rec;
    std::shared_ptr<const std::vector<float>> chunk;
  };
  struct Chunk {
    std::shared_ptr<const std::vector<float>> data;
    std::uint64_t tiles = 0;  // index records referencing it
  };

  int tileEdge_;
  mutable std::mutex mu_;
  std::map<TileKey, Tile, TileKeyLess> index_ AWP_GUARDED_BY(mu_);
  std::map<Md5Digest, Chunk> chunks_ AWP_GUARDED_BY(mu_);
  std::uint64_t publishes_ AWP_GUARDED_BY(mu_) = 0;
  std::uint64_t dedupHits_ AWP_GUARDED_BY(mu_) = 0;
};

}  // namespace awp::serve
