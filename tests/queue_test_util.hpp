// Shared helpers for tests that drive queue disciplines directly.
//
// A discipline stores PacketPool slot ids, not packets, so a test needs a
// pool just as a Link does. PooledQueue attaches one to a discipline and
// moves packets through the slot-id interface the way Link does: offer()
// admits a packet into the pool and enqueues its slot; take() dequeues a
// slot and moves the packet back out, returning the slot to the pool.
//
// FilterQueue is the drop-tail FIFO the transport tests derive their loss
// injectors from: a subclass decides per arrival whether to refuse it.
//
// read_back() and count_events() inspect what a BinaryTracer recorded,
// through the same write/read_trace path a trace file takes.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "net/ring.hpp"
#include "net/trace_binary.hpp"

namespace qoesim::testutil {

class PooledQueue {
 public:
  using SlotId = net::PacketPool::SlotId;

  explicit PooledQueue(net::QueueDiscipline& q) : q_(q) { q_.attach(pool_); }

  PooledQueue(const PooledQueue&) = delete;
  PooledQueue& operator=(const PooledQueue&) = delete;

  /// Admit `p` into the pool and offer its slot; true if admitted.
  bool offer(net::Packet p, Time now) {
    const ShardGuard guard;
    return q_.enqueue(pool_.acquire(std::move(p)), now);
  }

  /// Dequeue the next slot and move its packet out of the pool.
  std::optional<net::Packet> take(Time now) {
    const ShardGuard guard;
    const SlotId slot = q_.dequeue(now);
    if (slot == net::PacketPool::kNil) return std::nullopt;
    return pool_.release(slot);
  }

  net::PacketPool& pool() { return pool_; }
  net::QueueDiscipline& queue() { return q_; }

 private:
  net::QueueDiscipline& q_;
  net::PacketPool pool_;
};

/// Drop-tail FIFO that additionally refuses every arrival reject() picks.
/// reject() sees every arrival, full buffer or not, so counters it keeps
/// count arrivals.
class FilterQueue : public net::QueueDiscipline {
 public:
  using QueueDiscipline::QueueDiscipline;

  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return bytes_; }

 protected:
  virtual bool reject(const net::Packet& p) = 0;

  bool do_enqueue(SlotId slot, Time now) override {
    if (reject(packet(slot)) || q_.size() >= capacity_) {
      drop(slot, now);
      return false;
    }
    bytes_ += packet(slot).size_bytes;
    q_.push(slot);
    return true;
  }

  SlotId do_dequeue(Time) override {
    if (q_.empty()) return net::PacketPool::kNil;
    const SlotId slot = q_.front();
    q_.pop();
    bytes_ -= packet(slot).size_bytes;
    return slot;
  }

 private:
  net::Ring<SlotId> q_;
  std::size_t bytes_ = 0;
};

/// Every record `tracer` holds, written out and parsed back as a file.
inline std::vector<net::BinRecord> read_back(const net::BinaryTracer& tracer) {
  std::stringstream s;
  tracer.write(s);
  std::vector<net::BinRecord> records;
  std::string error;
  if (!net::read_trace(s, &records, &error)) ADD_FAILURE() << error;
  return records;
}

inline std::size_t count_events(const std::vector<net::BinRecord>& records,
                                net::TraceEvent e) {
  return static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(),
                    [e](const net::BinRecord& r) { return r.event == e; }));
}

}  // namespace qoesim::testutil
