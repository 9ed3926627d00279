#pragma once
// Application-level checkpoint/restart (§III.F): "All simulation states
// consisting of all the internal state variables on each processor are
// periodically saved into reliable storage where each processor is
// responsible for writing and updating its own checkpoint data."
//
// Resilient layout: two generations per rank, <dir>/ckpt_rank<r>_g<0|1>.bin,
// each holding a header (magic, step, payload size, MD5 of payload) followed
// by the raw state blob. Writes go to "<final>.tmp" and are renamed into
// the older generation slot only after an fsync, so a crash mid-write can
// never destroy the previous good checkpoint. Reads verify the digest and
// fall back from a torn/corrupt newest generation to the previous one.
//
// A solver hands each checkpoint to its CheckpointWriter, which runs the
// MD5, write, fsync and rename off the rank thread with at most one write
// in flight. The tmp + rename protocol hides an unfinished write, so a
// reader (the collective restart agreement included) only ever sees
// durable generations.

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/throttle.hpp"

namespace awp::io {

// One checkpoint's serialized rank state, immutable once taken: the
// checkpoint writer, the buddy self slot and the replica send share it
// instead of copying it.
using StateSnapshot = std::shared_ptr<const std::vector<std::byte>>;

class CheckpointStore {
 public:
  static constexpr int kGenerations = 2;

  // `throttle` may be null (no concurrent-open limiting); when set, writes
  // and reads take a throttle ticket, matching the §IV.E scheme that was
  // "also applied to the checkpointing scheme".
  CheckpointStore(std::string directory, OpenThrottle* throttle = nullptr);

  // Atomic generational write (tmp + fsync + rename onto the older slot)
  // on the calling thread, recorded as a Checkpoint span and counted
  // (countWrite) against it.
  void write(int rank, std::uint64_t step, std::span<const std::byte> state);
  // The write itself — MD5, tmp write, fsync, rename — recording no
  // telemetry, so a writer thread can run it for a rank. Fault-injection
  // site "ckpt.payload" can bit-flip the payload as written, producing a
  // checkpoint whose stored digest will not verify.
  void commit(int rank, std::uint64_t step, std::span<const std::byte> state);
  // Count one checkpoint write of a `stateBytes` payload (CheckpointWrites,
  // CheckpointBytes) against the calling thread's rank.
  static void countWrite(std::size_t stateBytes);

  struct Restored {
    std::uint64_t step = 0;
    std::vector<std::byte> state;
  };
  // Newest generation whose payload digest verifies; falls back to the
  // previous generation on a torn header or digest mismatch. Throws
  // awp::Error when no generation is valid.
  Restored read(int rank) const;
  // Exact-step read, used by the collective restart agreement: every rank
  // loads the newest step that is valid on *all* ranks.
  Restored readStep(int rank, std::uint64_t step) const;
  // Step of the newest digest-valid generation; nullopt when none is.
  [[nodiscard]] std::optional<std::uint64_t> newestValidStep(int rank) const;
  // Steps of ALL digest-valid generations, newest first — the health
  // guard's rollback diagnostics list what a retry could restore.
  [[nodiscard]] std::vector<std::uint64_t> validSteps(int rank) const;

  // Cache-tier handoff (hazard fabric): copy every digest-valid generation
  // of `other` for `rank` into this store via verified reads and atomic
  // generational writes — a torn or corrupt source generation is skipped,
  // never propagated, and the full candidate set moves so the collective
  // restart agreement (allreduce-Min of the ranks' newest steps) can still
  // be satisfied by a rank whose newest generation is ahead of the agreed
  // step. Returns the newest adopted step, or nullopt when `other` holds
  // no valid generation for the rank. Used when a scenario's ownership
  // moves brokers: the new owner seeds its private checkpoint dir from the
  // lost owner's tier, then resumes bit-identically.
  std::optional<std::uint64_t> adoptNewestFrom(const CheckpointStore& other,
                                               int rank);

  // Any generation file present (valid or not).
  [[nodiscard]] bool exists(int rank) const;
  // Path of the most recently written generation (by header step).
  [[nodiscard]] std::string pathFor(int rank) const;
  [[nodiscard]] std::string pathFor(int rank, int generation) const;

 private:
  Restored loadSlot(int rank, int slot) const;

  std::string directory_;
  OpenThrottle* throttle_;
};

// A rank's background checkpoint writer (§III.F: "each processor is
// responsible for writing and updating its own checkpoint data"): one
// commit() in flight at a time, on its own thread, which takes the rank's
// fault-injection attribution so "ckpt.payload" and "sharedfile.write"
// still fire for that rank. It records no telemetry span; the rank's
// waits for it (drain) fall in the caller's Checkpoint span.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  // Waits for the in-flight write. Its error, if any, goes to stderr
  // only: the owner is unwinding or done, and the tmp + rename protocol
  // left the previous generation intact.
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  // Drain the previous write, count this one against the calling thread,
  // then start committing `state` as `rank`'s generation `step`. The store
  // must outlive the write.
  void submit(CheckpointStore& store, int rank, std::uint64_t step,
              StateSnapshot state);
  // Wait for the in-flight write, if any, and rethrow its error here.
  void drain();

 private:
  std::future<void> inFlight_;
};

}  // namespace awp::io
