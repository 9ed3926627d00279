#include "vcluster/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "fault/injector.hpp"
#include "util/hot.hpp"

namespace awp::vcluster {

ClusterState::ClusterState(int nranks) : size(nranks) {
  AWP_CHECK(nranks > 0);
  mailboxes.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes.push_back(std::make_unique<Mailbox>());
    mailboxes.back()->setFencedCounter(&stats.messagesFenced);
  }
}

AWP_HOT bool Communicator::fenced() const {
  return state_->epoch.load(std::memory_order_acquire) != epochSeen_;
}

void Communicator::throwFenced() const {
  throw EpochFenced(rank_, epochSeen_,
                    state_->epoch.load(std::memory_order_acquire));
}

void Communicator::fencePoint() const {
  if (fenced()) throwFenced();
}

void Communicator::send(int dest, int tag, const void* data,
                        std::size_t bytes) {
  AWP_CHECK_MSG(dest >= 0 && dest < size(), "send: destination out of range");
  fencePoint();
  Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.epoch = epochSeen_;
  msg.payload.resize(bytes);
  if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);

  bool duplicate = false;
  if (fault::injectionEnabled()) {  // fast path when disabled: one branch
    if (auto act = fault::activeInjector()->check("comm.send", rank_)) {
      switch (act->kind) {
        case fault::FaultKind::MessageDrop:
          // The message vanishes in flight; the sender never learns.
          state_->stats.messagesDropped.fetch_add(1,
                                                  std::memory_order_relaxed);
          return;
        case fault::FaultKind::MessageDuplicate:
          duplicate = true;
          state_->stats.messagesDuplicated.fetch_add(
              1, std::memory_order_relaxed);
          break;
        case fault::FaultKind::BitFlip:
          if (!msg.payload.empty()) {
            const std::uint64_t bit =
                act->flipBit % (msg.payload.size() * 8);
            msg.payload[bit / 8] ^=
                static_cast<std::byte>(1u << (bit % 8));
          }
          break;
        case fault::FaultKind::RankStall:
          std::this_thread::sleep_for(
              std::chrono::duration<double>(act->stallSeconds));
          break;
        default:
          break;  // I/O kinds do not apply to message sends
      }
    }
  }
  if (duplicate)
    state_->mailboxes[static_cast<std::size_t>(dest)]->push(msg);
  state_->mailboxes[static_cast<std::size_t>(dest)]->push(std::move(msg));
  state_->stats.messagesSent.fetch_add(1, std::memory_order_relaxed);
  state_->stats.bytesSent.fetch_add(bytes, std::memory_order_relaxed);
}

void Communicator::recv(int src, int tag, void* data, std::size_t bytes) {
  const std::vector<std::byte> payload = recvBytes(src, tag);
  AWP_CHECK_MSG(payload.size() == bytes,
                "recv: payload size mismatch for (src, tag) envelope");
  if (bytes > 0) std::memcpy(data, payload.data(), bytes);
}

std::vector<std::byte> Communicator::recvBytes(int src, int tag) {
  AWP_CHECK_MSG(src >= 0 && src < size(), "recv: source out of range");
  fencePoint();
  return state_->mailboxes[static_cast<std::size_t>(rank_)]
      ->popMatch(src, tag, EpochGuard{&state_->epoch, epochSeen_})
      .payload;
}

void Communicator::barrier() {
  state_->stats.barriers.fetch_add(1, std::memory_order_relaxed);
  fencePoint();
  // Pushed straight to the mailbox, bypassing send()'s stats and faults.
  const auto token = [&](int dest) {
    state_->mailboxes[static_cast<std::size_t>(dest)]->push(
        Message{rank_, kTagBarrier, epochSeen_, {}});
  };
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) recv(r, kTagBarrier, nullptr, 0);
    for (int r = 1; r < size(); ++r) token(r);
  } else {
    token(0);
    recv(0, kTagBarrier, nullptr, 0);
  }
}

template <typename T>
T Communicator::allreduceImpl(T value, ReduceOp op) {
  // Gather to rank 0 in rank order (deterministic), reduce, broadcast.
  T result = value;
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) {
      const T v = recvValue<T>(r, kTagReduce);
      switch (op) {
        case ReduceOp::Sum:
          result += v;
          break;
        case ReduceOp::Min:
          result = std::min(result, v);
          break;
        case ReduceOp::Max:
          result = std::max(result, v);
          break;
      }
    }
    for (int r = 1; r < size(); ++r) sendValue(r, kTagReduce, result);
  } else {
    sendValue(0, kTagReduce, value);
    result = recvValue<T>(0, kTagReduce);
  }
  return result;
}

double Communicator::allreduce(double value, ReduceOp op) {
  return allreduceImpl(value, op);
}

std::int64_t Communicator::allreduce(std::int64_t value, ReduceOp op) {
  return allreduceImpl(value, op);
}

void Communicator::bcast(int root, void* data, std::size_t bytes) {
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) send(r, kTagBcast, data, bytes);
  } else {
    recv(root, kTagBcast, data, bytes);
  }
}

std::vector<std::vector<std::byte>> Communicator::gatherBytes(
    int root, std::span<const std::byte> payload) {
  std::vector<std::vector<std::byte>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)] =
        std::vector<std::byte>(payload.begin(), payload.end());
    for (int r = 0; r < size(); ++r)
      if (r != root)
        out[static_cast<std::size_t>(r)] = recvBytes(r, kTagGatherData);
  } else {
    send(root, kTagGatherData, payload.data(), payload.size());
  }
  return out;
}

std::vector<std::int64_t> Communicator::allgather(std::int64_t value) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(size()), 0);
  if (rank_ == 0) {
    out[0] = value;
    for (int r = 1; r < size(); ++r)
      out[static_cast<std::size_t>(r)] = recvValue<std::int64_t>(r, kTagReduce);
  } else {
    sendValue(0, kTagReduce, value);
  }
  bcast(0, out.data(), out.size() * sizeof(std::int64_t));
  return out;
}

}  // namespace awp::vcluster
