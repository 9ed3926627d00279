#include "serve/store.hpp"

#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"

namespace awp::serve {

TileStore::TileStore(int tileEdge) : tileEdge_(tileEdge) {
  AWP_CHECK_MSG(tileEdge_ >= 1, "serve: tile edge must be >= 1");
}

PublishOutcome TileStore::publish(const TileKey& key, std::uint64_t version,
                                  const float* payload, std::size_t count,
                                  bool skipUnchanged) {
  PublishOutcome out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    const bool superseding = it != index_.end();
    if (superseding && version <= it->second.rec.version)
      return out;  // duplicate or stale publish: absorbed, never regress
    const Md5Digest md5 = Md5::hash(payload, count * sizeof(float));
    if (skipUnchanged && superseding && md5 == it->second.rec.chunkMd5 &&
        it->second.rec.payloadFloats == count)
      return out;
    auto slot = chunks_.find(md5);
    const bool fresh = slot == chunks_.end();
    if (fresh)
      slot = chunks_
                 .emplace(md5, Chunk{std::make_shared<const std::vector<float>>(
                                   payload, payload + count)})
                 .first;
    if (!superseding) it = index_.try_emplace(key).first;
    ++slot->second.tiles;
    if (superseding) {
      // Drop the superseded chunk's reference (after taking the new one,
      // so unchanged content keeps its chunk); readers holding it keep it.
      auto old = chunks_.find(it->second.rec.chunkMd5);
      if (--old->second.tiles == 0) chunks_.erase(old);
    }
    it->second.rec.version = version;
    it->second.rec.chunkMd5 = md5;
    it->second.rec.payloadFloats = static_cast<std::uint32_t>(count);
    it->second.chunk = slot->second.data;
    ++publishes_;
    if (!fresh) ++dedupHits_;
    out.chunkStored = fresh;
  }
  out.advanced = true;
  if (!out.chunkStored) telemetry::count(telemetry::Counter::ServeChunkDedups);
  telemetry::count(telemetry::Counter::ServeTilesPublished);
  telemetry::count(telemetry::Counter::ServeTileBytes,
                   count * sizeof(float));
  return out;
}

AWP_HOT std::uint64_t TileStore::latestVersion(const TileKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.rec.version;
}

AWP_HOT ChunkRef TileStore::load(const TileKey& key, TileRecord* rec) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return ChunkRef();
  if (rec != nullptr) *rec = it->second.rec;
  return ChunkRef(it->second.chunk);
}

std::size_t TileStore::tileCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

ChunkStats TileStore::chunkStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ChunkStats s;
  s.publishes = publishes_;
  s.dedupHits = dedupHits_;
  s.chunks = chunks_.size();
  for (const auto& [md5, chunk] : chunks_)
    s.chunkBytes += chunk.data->size() * sizeof(float);
  for (const auto& [key, tile] : index_)
    s.tileBytes += tile.rec.payloadFloats * sizeof(float);
  return s;
}

}  // namespace awp::serve
