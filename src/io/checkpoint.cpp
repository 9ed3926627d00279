#include "io/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "fault/injector.hpp"
#include "io/shared_file.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"

namespace awp::io {

namespace {
constexpr std::uint64_t kMagic = 0x4157504f44435032ULL;  // "AWPODCP2"

struct Header {
  std::uint64_t magic;
  std::uint64_t step;
  std::uint64_t payloadBytes;
  std::uint8_t digest[16];
};

// Header-only view of one generation slot. Raw POSIX (no fault hooks, no
// throttle): slot selection must stay cheap and deterministic even while
// faults are being injected into the data path.
struct SlotView {
  bool present = false;
  bool headerOk = false;  // magic matches and the file is not torn short
  std::uint64_t step = 0;
};

SlotView inspectSlot(const std::string& path) {
  SlotView v;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return v;
  v.present = true;
  Header h{};
  const ssize_t n = ::pread(fd, &h, sizeof(h), 0);
  struct stat st{};
  const bool statOk = ::fstat(fd, &st) == 0;
  ::close(fd);
  if (n != static_cast<ssize_t>(sizeof(h)) || !statOk) return v;
  if (h.magic != kMagic) return v;
  if (static_cast<std::uint64_t>(st.st_size) != sizeof(h) + h.payloadBytes)
    return v;
  v.headerOk = true;
  v.step = h.step;
  return v;
}
}  // namespace

CheckpointStore::CheckpointStore(std::string directory, OpenThrottle* throttle)
    : directory_(std::move(directory)), throttle_(throttle) {
  ::mkdir(directory_.c_str(), 0755);  // ok if it already exists
}

std::string CheckpointStore::pathFor(int rank, int generation) const {
  return directory_ + "/ckpt_rank" + std::to_string(rank) + "_g" +
         std::to_string(generation) + ".bin";
}

std::string CheckpointStore::pathFor(int rank) const {
  int best = 0;
  std::uint64_t bestStep = 0;
  bool haveOk = false;
  for (int g = 0; g < kGenerations; ++g) {
    const SlotView v = inspectSlot(pathFor(rank, g));
    if (!v.present) continue;
    if (v.headerOk && (!haveOk || v.step > bestStep)) {
      best = g;
      bestStep = v.step;
      haveOk = true;
    } else if (!haveOk) {
      best = g;
    }
  }
  return pathFor(rank, best);
}

bool CheckpointStore::exists(int rank) const {
  for (int g = 0; g < kGenerations; ++g) {
    struct stat st{};
    if (::stat(pathFor(rank, g).c_str(), &st) == 0) return true;
  }
  return false;
}

void CheckpointStore::countWrite(std::size_t stateBytes) {
  telemetry::count(telemetry::Counter::CheckpointWrites);
  telemetry::count(telemetry::Counter::CheckpointBytes,
                   sizeof(Header) + stateBytes);
}

void CheckpointStore::write(int rank, std::uint64_t step,
                            std::span<const std::byte> state) {
  telemetry::ScopedSpan span(telemetry::Phase::Checkpoint);
  countWrite(state.size());
  commit(rank, step, state);
}

void CheckpointStore::commit(int rank, std::uint64_t step,
                             std::span<const std::byte> state) {
  Header h{};
  h.magic = kMagic;
  h.step = step;
  h.payloadBytes = state.size();
  const auto digest = Md5::hash(state.data(), state.size());
  std::memcpy(h.digest, digest.data(), sizeof(h.digest));

  // The digest above is of the true state; a "ckpt.payload" bit-flip
  // corrupts the bytes actually written, so the stored digest will not
  // verify on read — the silent-corruption case §III.H guards against.
  std::span<const std::byte> payload = state;
  std::vector<std::byte> corrupted;
  if (fault::injectionEnabled()) {
    if (auto act = fault::activeInjector()->check("ckpt.payload", rank);
        act && act->kind == fault::FaultKind::BitFlip && !state.empty()) {
      corrupted.assign(state.begin(), state.end());
      const std::uint64_t bit = act->flipBit % (corrupted.size() * 8);
      corrupted[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      payload = corrupted;
    }
  }

  auto writeBody = [&] {
    // Overwrite the slot that does NOT hold the newest intact generation.
    int slot = 0;
    {
      const SlotView s0 = inspectSlot(pathFor(rank, 0));
      const SlotView s1 = inspectSlot(pathFor(rank, 1));
      if (!s0.headerOk)
        slot = 0;
      else if (!s1.headerOk)
        slot = 1;
      else
        slot = s0.step <= s1.step ? 0 : 1;
    }
    const std::string finalPath = pathFor(rank, slot);
    const std::string tmpPath = finalPath + ".tmp";
    {
      SharedFile f(tmpPath, SharedFile::Mode::Write);
      f.truncate(0);
      f.writeAt(0, std::span<const std::byte>(
                       reinterpret_cast<const std::byte*>(&h), sizeof(h)));
      f.writeAt(sizeof(h), payload);
      f.sync();
    }
    if (std::rename(tmpPath.c_str(), finalPath.c_str()) != 0)
      throw Error("cannot rename checkpoint '" + tmpPath + "' -> '" +
                  finalPath + "': " + std::strerror(errno));
  };
  if (throttle_ != nullptr) {
    OpenThrottle::Ticket ticket(*throttle_);
    writeBody();
  } else {
    writeBody();
  }
}

CheckpointStore::Restored CheckpointStore::loadSlot(int rank, int slot) const {
  telemetry::ScopedSpan span(telemetry::Phase::Checkpoint);
  auto readBody = [&]() -> Restored {
    SharedFile f(pathFor(rank, slot), SharedFile::Mode::Read);
    Header h{};
    f.readAt(0, std::span<std::byte>(reinterpret_cast<std::byte*>(&h),
                                     sizeof(h)));
    AWP_CHECK_MSG(h.magic == kMagic, "bad checkpoint magic");
    Restored r;
    r.step = h.step;
    r.state.resize(h.payloadBytes);
    f.readAt(sizeof(h), std::span<std::byte>(r.state));
    const auto digest = Md5::hash(r.state.data(), r.state.size());
    if (std::memcmp(digest.data(), h.digest, sizeof(h.digest)) != 0)
      throw Error("checkpoint digest mismatch for rank " +
                  std::to_string(rank) + " (torn or corrupted checkpoint)");
    return r;
  };
  if (throttle_ != nullptr) {
    OpenThrottle::Ticket ticket(*throttle_);
    return readBody();
  }
  return readBody();
}

CheckpointStore::Restored CheckpointStore::read(int rank) const {
  // Candidate slots with an intact header, newest step first.
  struct Candidate {
    int slot;
    std::uint64_t step;
  };
  std::vector<Candidate> candidates;
  std::string notes;
  for (int g = 0; g < kGenerations; ++g) {
    const SlotView v = inspectSlot(pathFor(rank, g));
    if (!v.present) continue;
    if (!v.headerOk) {
      notes += " [gen " + std::to_string(g) + ": torn header]";
      continue;
    }
    candidates.push_back({g, v.step});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.step > b.step;
            });
  for (const Candidate& c : candidates) {
    try {
      return loadSlot(rank, c.slot);
    } catch (const Error& e) {
      notes += " [gen " + std::to_string(c.slot) + " @ step " +
               std::to_string(c.step) + ": " + e.what() + "]";
    }
  }
  throw Error("no valid checkpoint generation for rank " +
              std::to_string(rank) + notes);
}

std::optional<std::uint64_t> CheckpointStore::newestValidStep(
    int rank) const {
  try {
    return read(rank).step;
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::vector<std::uint64_t> CheckpointStore::validSteps(int rank) const {
  std::vector<std::uint64_t> steps;
  for (int g = 0; g < kGenerations; ++g) {
    const SlotView v = inspectSlot(pathFor(rank, g));
    if (!v.present || !v.headerOk) continue;
    try {
      loadSlot(rank, g);  // digest must verify to count as valid
      steps.push_back(v.step);
    } catch (const Error&) {
    }
  }
  std::sort(steps.rbegin(), steps.rend());
  return steps;
}

CheckpointStore::Restored CheckpointStore::readStep(
    int rank, std::uint64_t step) const {
  for (int g = 0; g < kGenerations; ++g) {
    const SlotView v = inspectSlot(pathFor(rank, g));
    if (!v.present || !v.headerOk || v.step != step) continue;
    return loadSlot(rank, g);  // throws on digest mismatch
  }
  throw Error("rank " + std::to_string(rank) +
              " has no valid checkpoint at agreed step " +
              std::to_string(step));
}

std::optional<std::uint64_t> CheckpointStore::adoptNewestFrom(
    const CheckpointStore& other, int rank) {
  // Adopt EVERY digest-valid generation, oldest first, so the full
  // candidate set survives the move: the collective restart agreement
  // restores the allreduce-Min of the ranks' newest steps, and a rank
  // whose newest generation is ahead of the agreed step must still hold
  // the older one. Copying only the newest would strand such a rank.
  const auto steps = other.validSteps(rank);  // newest first
  std::optional<std::uint64_t> adopted;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    Restored got;
    try {
      got = other.readStep(rank, *it);
    } catch (const Error&) {
      // The generation decayed between the probe and the read (or its
      // payload digest fails): skip it, never propagate.
      continue;
    }
    write(rank, got.step, std::span<const std::byte>(got.state));
    adopted = got.step;  // newest processed last
  }
  return adopted;
}

CheckpointWriter::~CheckpointWriter() {
  try {
    drain();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[awp] checkpoint write dropped at shutdown: %s\n",
                 e.what());
  }
}

void CheckpointWriter::drain() {
  if (inFlight_.valid()) inFlight_.get();
}

void CheckpointWriter::submit(CheckpointStore& store, int rank,
                              std::uint64_t step, StateSnapshot state) {
  drain();
  CheckpointStore::countWrite(state->size());
  inFlight_ = std::async(std::launch::async,
                         [&store, rank, step, state = std::move(state)] {
                           fault::setThreadRank(rank);
                           store.commit(rank, step, *state);
                         });
}

}  // namespace awp::io
