#include "fabric/transport.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "fault/injector.hpp"
#include "util/error.hpp"
#include "util/hot.hpp"

namespace awp::fabric {

void FabricMessage::setDigest(const std::string& hex) {
  AWP_CHECK_MSG(hex.size() == digest.size(),
                "fabric: spec digest must be 32 hex chars");
  std::memcpy(digest.data(), hex.data(), digest.size());
}

FabricTransport::FabricTransport(int nbrokers, LeaseBoard* board,
                                 std::size_t inboxCapacity)
    : n_(nbrokers), board_(board), cap_(inboxCapacity) {
  AWP_CHECK_MSG(nbrokers >= 1 && nbrokers <= 32,
                "fabric: broker count outside [1, 32]");
  AWP_CHECK_MSG(inboxCapacity >= 1, "fabric: inbox capacity must be >= 1");
  inboxes_.reserve(static_cast<std::size_t>(nbrokers));
  for (int b = 0; b < nbrokers; ++b) {
    auto box = std::make_unique<Inbox>();
    box->ring.resize(cap_);  // preallocated: send never allocates
    inboxes_.push_back(std::move(box));
  }
}

int FabricTransport::consultSites(int broker) {
  if (!fault::injectionEnabled()) return 1;
  fault::FaultInjector* inj = fault::activeInjector();
  if (auto act = inj->check("fabric_delay", broker);
      act && act->kind == fault::FaultKind::RankStall &&
      act->stallSeconds > 0.0) {
    delayed_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(act->stallSeconds));
  }
  if (auto act = inj->check("fabric_drop", broker)) {
    if (act->kind == fault::FaultKind::MessageDuplicate) {
      duplicated_.fetch_add(1, std::memory_order_relaxed);
      return 2;
    }
    return 0;  // any other kind at this site is a loss
  }
  return 1;
}

AWP_HOT FabricTransport::SendResult FabricTransport::send(
    const FabricMessage& m, int to) {
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (to < 0 || to >= n_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return SendResult::Dropped;
  }
  const int copies = consultSites(m.from);
  if (copies == 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return SendResult::Dropped;
  }
  Inbox& box = *inboxes_[static_cast<std::size_t>(to)];
  std::lock_guard<std::mutex> lock(box.mu);
  for (int c = 0; c < copies; ++c) {
    if (box.count == cap_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return c == 0 ? SendResult::Dropped : SendResult::Delivered;
    }
    box.ring[(box.head + box.count) % cap_] = m;
    ++box.count;
    delivered_.fetch_add(1, std::memory_order_relaxed);
    box.rung = true;
    box.bell.notify_one();
  }
  return SendResult::Delivered;
}

bool FabricTransport::poll(int broker, FabricMessage& out) {
  if (broker < 0 || broker >= n_) return false;
  Inbox& box = *inboxes_[static_cast<std::size_t>(broker)];
  std::lock_guard<std::mutex> lock(box.mu);
  if (box.count == 0) return false;
  out = std::move(box.ring[box.head]);
  box.ring[box.head] = FabricMessage{};  // release the spec refcount
  box.head = (box.head + 1) % cap_;
  --box.count;
  return true;
}

void FabricTransport::ring(int broker) {
  if (broker < 0 || broker >= n_) return;
  Inbox& box = *inboxes_[static_cast<std::size_t>(broker)];
  std::lock_guard<std::mutex> lock(box.mu);
  box.rung = true;
  box.bell.notify_one();
}

bool FabricTransport::waitDoorbell(
    int broker, std::chrono::steady_clock::time_point deadline) {
  AWP_CHECK(broker >= 0 && broker < n_);
  Inbox& box = *inboxes_[static_cast<std::size_t>(broker)];
  std::unique_lock<std::mutex> lock(box.mu);
  const bool rang =
      box.bell.wait_until(lock, deadline, [&] { return box.rung; });
  box.rung = false;
  return rang;
}

FabricTransport::RenewOutcome FabricTransport::renewLease(int broker,
                                                          double nowSeconds) {
  if (consultSites(broker) == 0) {
    rpcDrops_.fetch_add(1, std::memory_order_relaxed);
    return RenewOutcome::Dropped;
  }
  return board_->renew(broker, nowSeconds) == LeaseBoard::RenewResult::Ok
             ? RenewOutcome::Ok
             : RenewOutcome::Lapsed;
}

bool FabricTransport::rejoin(int broker, double nowSeconds) {
  if (consultSites(broker) == 0) {
    rpcDrops_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  board_->rejoin(broker, nowSeconds);
  return true;
}

std::optional<MembershipView> FabricTransport::fetchView(int broker,
                                                         double nowSeconds) {
  if (consultSites(broker) == 0) {
    rpcDrops_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  return board_->view(nowSeconds);
}

FabricTransport::Stats FabricTransport::stats() const {
  Stats s;
  s.sent = sent_.load(std::memory_order_relaxed);
  s.delivered = delivered_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.duplicated = duplicated_.load(std::memory_order_relaxed);
  s.delayed = delayed_.load(std::memory_order_relaxed);
  s.rpcDrops = rpcDrops_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace awp::fabric
