#include "sched/artifact_cache.hpp"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/error.hpp"
#include "util/md5.hpp"

namespace awp::sched {

namespace fs = std::filesystem;

ArtifactCache::ArtifactCache(std::string directory)
    : directory_(std::move(directory)) {
  if (!directory_.empty()) fs::create_directories(directory_);
}

std::string ArtifactCache::entryPath(const std::string& key) const {
  return (fs::path(directory_) /
          (Md5::hexDigest(key.data(), key.size()) + ".blob"))
      .string();
}

std::optional<std::vector<std::byte>> readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const auto size = static_cast<std::streamsize>(in.tellg());
  if (size < 0) return std::nullopt;
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (in.gcount() != size) return std::nullopt;
  return bytes;
}

std::optional<std::vector<std::byte>> ArtifactCache::loadEntry(
    const std::string& key) const {
  auto entry = readFileBytes(entryPath(key));
  constexpr std::size_t kDigestBytes = 16;
  if (!entry.has_value() || entry->size() < kDigestBytes) return std::nullopt;
  // Digest-gate the load: torn or corrupted entries are misses.
  const auto actual =
      Md5::hash(entry->data() + kDigestBytes, entry->size() - kDigestBytes);
  if (std::memcmp(actual.data(), entry->data(), kDigestBytes) != 0)
    return std::nullopt;
  entry->erase(entry->begin(), entry->begin() + kDigestBytes);
  return entry;
}

void ArtifactCache::storeEntry(const std::string& key,
                               const std::vector<std::byte>& value) const {
  const std::string target = entryPath(key);
  // Unique tmp name: several caches may share one directory (the hazard
  // fabric points every broker at the same one), and two brokers
  // finishing the same digest concurrently must not interleave bytes in
  // one tmp file. The rename stays atomic; last writer wins.
  static std::atomic<std::uint64_t> tmpSeq{0};
  const std::string tmp =
      target + ".tmp." +
      std::to_string(tmpSeq.fetch_add(1, std::memory_order_relaxed));
  const auto digest = Md5::hash(value.data(), value.size());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("sched: cache cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(digest.data()),
              static_cast<std::streamsize>(digest.size()));
    out.write(reinterpret_cast<const char*>(value.data()),
              static_cast<std::streamsize>(value.size()));
    out.flush();
    if (!out) throw Error("sched: cache short write to " + tmp);
  }
  fs::rename(tmp, target);
}

std::optional<std::vector<std::byte>> ArtifactCache::get(
    const std::string& key) {
  std::optional<std::vector<std::byte>> value;
  // File I/O runs outside the lock.
  if (!directory_.empty()) value = loadEntry(key);
  std::lock_guard<std::mutex> lock(mutex_);
  if (directory_.empty()) {
    auto it = memory_.find(key);
    if (it != memory_.end()) value = it->second;
  }
  if (value.has_value())
    ++stats_.hits;
  else
    ++stats_.misses;
  return value;
}

void ArtifactCache::put(const std::string& key, std::vector<std::byte> value) {
  if (!directory_.empty()) storeEntry(key, value);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.puts;
  if (directory_.empty()) memory_[key] = std::move(value);
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace awp::sched
