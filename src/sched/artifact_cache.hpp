#pragma once
// Content-addressed artifact cache. Keys are arbitrary strings (the
// service uses scenario spec hashes); values are byte blobs stored with
// their MD5 so every load is verified — a corrupt or torn entry reads as a
// miss, never as wrong data (§III.H's checksum discipline applied to the
// cache).
//
// Two tiers: an in-memory map (always), and an optional disk directory
// where each entry lives in a file named by the MD5 of its key, written
// atomically (tmp + rename) with a 16-byte digest header. The disk tier
// makes memoized scenario products survive the process.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/guarded.hpp"

namespace awp::sched {

struct CacheStats {
  std::uint64_t hits = 0;       // served from memory or disk
  std::uint64_t misses = 0;     // not present anywhere
  std::uint64_t computes = 0;   // always 0; the service report keeps the key
  std::uint64_t diskLoads = 0;  // hits satisfied from the disk tier
  // Per-tier breakdown: every lookup probes memory first, disk second, so
  // hits == memoryHits + diskHits and misses == diskMisses.
  std::uint64_t memoryHits = 0;
  std::uint64_t memoryMisses = 0;
  std::uint64_t diskHits = 0;
  std::uint64_t diskMisses = 0;
  // Put accounting: logicalBytes is what callers presented for storage;
  // storedBytes is what the cache kept. Every put stores, so the two are
  // equal and dedupHits stays 0; the service report keeps all three keys.
  std::uint64_t puts = 0;
  std::uint64_t dedupHits = 0;
  std::uint64_t logicalBytes = 0;
  std::uint64_t storedBytes = 0;
  std::uint64_t entries = 0;    // live memory-tier entries at stats() time
};

class ArtifactCache {
 public:
  // `directory` empty = in-memory only.
  explicit ArtifactCache(std::string directory = {});

  // Lookup without computing. Verifies the digest on a disk load (and
  // promotes the entry to memory); a failed verification is a miss.
  [[nodiscard]] std::optional<std::vector<std::byte>> get(
      const std::string& key);

  // Insert/overwrite. Persists to the disk tier when one is configured.
  void put(const std::string& key, std::vector<std::byte> value);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] const std::string& directory() const { return directory_; }

 private:
  [[nodiscard]] std::string entryPath(const std::string& key) const;
  std::optional<std::vector<std::byte>> loadDisk(const std::string& key);
  void storeDisk(const std::string& key,
                 const std::vector<std::byte>& value) const;

  std::string directory_;
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<std::byte>> memory_
      AWP_GUARDED_BY(mutex_);
  CacheStats stats_ AWP_GUARDED_BY(mutex_);
};

// The whole file in one sized read; nullopt when it cannot be opened or
// read in full.
[[nodiscard]] std::optional<std::vector<std::byte>> readFileBytes(
    const std::string& path);

}  // namespace awp::sched
