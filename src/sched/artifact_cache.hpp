#pragma once
// Content-addressed artifact cache. Keys are arbitrary strings (the
// service uses scenario spec hashes); values are byte blobs.
//
// One tier per instance, chosen by the constructor:
//   * with a directory, each entry lives in a file named by the MD5 of its
//     key, written atomically (tmp + rename) with a 16-byte digest header.
//     Every get reads and verifies the file, so a corrupt or torn entry
//     reads as a miss, never as wrong data (§III.H's checksum discipline
//     applied to the cache). Nothing is kept in memory: the file is the
//     only copy, and entries survive the process;
//   * without one, an in-memory map is the store.

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
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  // absent, or failed its digest check
  std::uint64_t puts = 0;
};

class ArtifactCache {
 public:
  // `directory` empty = in-memory store.
  explicit ArtifactCache(std::string directory = {});

  // Lookup without computing. A directory entry that fails its digest
  // check is a miss.
  [[nodiscard]] std::optional<std::vector<std::byte>> get(
      const std::string& key);

  // Insert/overwrite.
  void put(const std::string& key, std::vector<std::byte> value);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] const std::string& directory() const { return directory_; }

 private:
  [[nodiscard]] std::string entryPath(const std::string& key) const;
  [[nodiscard]] std::optional<std::vector<std::byte>> loadEntry(
      const std::string& key) const;
  void storeEntry(const std::string& key,
                  const std::vector<std::byte>& value) const;

  std::string directory_;
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<std::byte>> memory_
      AWP_GUARDED_BY(mutex_);  // the store when directory_ is empty
  CacheStats stats_ AWP_GUARDED_BY(mutex_);
};

// The whole file in one sized read; nullopt when it cannot be opened or
// read in full.
[[nodiscard]] std::optional<std::vector<std::byte>> readFileBytes(
    const std::string& path);

}  // namespace awp::sched
