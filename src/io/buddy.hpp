#pragma once
// BuddyStore: diskless in-memory checkpoint replication (recovery ladder
// rung 1). At each checkpoint cadence every rank keeps its own serialized
// state blob ("self") and ships a copy to its ring-buddy partner, which
// retains it as a "replica" for the owner. After a rank loss the
// replacement restores the lost rank's state from its buddy's replica
// without touching disk; survivors restore from their self blobs. The
// two-generation on-disk CheckpointStore remains the fallback when the
// in-memory copy is missing (buddy_drop fault, or loss before the first
// buddy exchange).
//
// Only the newest generation is kept per slot: the restore point is agreed
// collectively (allreduce-Min over newest steps), and a rank whose blob is
// newer than the agreed step simply falls back to disk.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "io/checkpoint.hpp"
#include "util/guarded.hpp"

namespace awp::io {

class BuddyStore {
 public:
  struct Stats {
    std::uint64_t selfStores = 0;
    std::uint64_t replicaStores = 0;
    std::uint64_t restoresFromSelf = 0;
    std::uint64_t restoresFromReplica = 0;
    std::uint64_t drops = 0;  // replicas lost in flight (buddy_drop site)
  };

  explicit BuddyStore(int nranks);

  // Rank `rank` stores its own blob for `step` (replaces older self blob).
  // The snapshot is shared, not copied: the solver's checkpoint writer
  // and replica send read the same bytes.
  void storeSelf(int rank, std::uint64_t step, StateSnapshot blob);
  // The ring buddy of `owner` stores owner's replica for `step`. Taken by
  // value: callers move the received buffer in.
  void storeReplica(int owner, std::uint64_t step,
                    std::vector<std::byte> blob);
  // A replica was lost in flight (buddy_drop): count it, and invalidate any
  // older replica so a stale generation cannot masquerade as current.
  void noteDrop(int owner);
  // The rank's thread died: its self blob is modelled as lost with it, so
  // a replacement must restore from the ring buddy's replica (or disk).
  // Called by the respawn supervisor's onRespawn hook BEFORE the
  // replacement thread exists.
  void noteDeath(int rank);

  // Newest step with a blob available for `rank` (self or replica);
  // nullopt when the store holds nothing for it.
  [[nodiscard]] std::optional<std::uint64_t> newestStep(int rank) const;

  // Restore rank's state at exactly `step`: self blob preferred (survivor
  // path), buddy replica otherwise (replacement path). nullopt when neither
  // matches — caller falls back to the on-disk store.
  [[nodiscard]] std::optional<std::vector<std::byte>> restore(
      int rank, std::uint64_t step);

  // Forget everything (a requeued attempt must not resurrect blobs from a
  // previous attempt's timeline).
  void clear();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] int size() const {
    // awplint: guard-ok(slots_ is sized once in the ctor, never resized)
    return static_cast<int>(slots_.size());
  }

 private:
  struct Blob {
    std::uint64_t step = 0;
    StateSnapshot bytes;
  };
  struct Slot {
    std::optional<Blob> self;     // this rank's own newest blob
    std::optional<Blob> replica;  // newest blob replicated FOR this owner
  };

  mutable std::mutex mu_;
  std::vector<Slot> slots_ AWP_GUARDED_BY(mu_);  // indexed by owner rank
  Stats stats_ AWP_GUARDED_BY(mu_);
};

}  // namespace awp::io
