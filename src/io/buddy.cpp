#include "io/buddy.hpp"

#include <utility>

#include "util/error.hpp"

namespace awp::io {

BuddyStore::BuddyStore(int nranks) {
  AWP_CHECK_MSG(nranks > 0, "BuddyStore requires at least one rank");
  slots_.resize(static_cast<std::size_t>(nranks));
}

void BuddyStore::storeSelf(int rank, std::uint64_t step, StateSnapshot blob) {
  AWP_CHECK_MSG(rank >= 0 && rank < size(), "storeSelf: rank out of range");
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = slots_[static_cast<std::size_t>(rank)];
  slot.self = Blob{step, std::move(blob)};
  ++stats_.selfStores;
}

void BuddyStore::storeReplica(int owner, std::uint64_t step,
                              std::vector<std::byte> blob) {
  AWP_CHECK_MSG(owner >= 0 && owner < size(),
                "storeReplica: owner out of range");
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = slots_[static_cast<std::size_t>(owner)];
  slot.replica = Blob{
      step, std::make_shared<const std::vector<std::byte>>(std::move(blob))};
  ++stats_.replicaStores;
}

void BuddyStore::noteDrop(int owner) {
  AWP_CHECK_MSG(owner >= 0 && owner < size(), "noteDrop: owner out of range");
  std::lock_guard<std::mutex> lock(mu_);
  // An old generation must not stand in for the one that was just lost:
  // a restore at the agreed (newer) step would miss and silently pick it
  // up at a later attempt. Disk is the correct fallback here.
  slots_[static_cast<std::size_t>(owner)].replica.reset();
  ++stats_.drops;
}

void BuddyStore::noteDeath(int rank) {
  AWP_CHECK_MSG(rank >= 0 && rank < size(), "noteDeath: rank out of range");
  std::lock_guard<std::mutex> lock(mu_);
  slots_[static_cast<std::size_t>(rank)].self.reset();
}

std::optional<std::uint64_t> BuddyStore::newestStep(int rank) const {
  AWP_CHECK_MSG(rank >= 0 && rank < size(), "newestStep: rank out of range");
  std::lock_guard<std::mutex> lock(mu_);
  const auto& slot = slots_[static_cast<std::size_t>(rank)];
  std::optional<std::uint64_t> newest;
  if (slot.self) newest = slot.self->step;
  if (slot.replica && (!newest || slot.replica->step > *newest))
    newest = slot.replica->step;
  return newest;
}

std::optional<std::vector<std::byte>> BuddyStore::restore(int rank,
                                                          std::uint64_t step) {
  AWP_CHECK_MSG(rank >= 0 && rank < size(), "restore: rank out of range");
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = slots_[static_cast<std::size_t>(rank)];
  if (slot.self && slot.self->step == step) {
    ++stats_.restoresFromSelf;
    return *slot.self->bytes;
  }
  if (slot.replica && slot.replica->step == step) {
    ++stats_.restoresFromReplica;
    return *slot.replica->bytes;
  }
  return std::nullopt;
}

void BuddyStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& slot : slots_) {
    slot.self.reset();
    slot.replica.reset();
  }
}

BuddyStore::Stats BuddyStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace awp::io
