// qoesim -- drop-tail FIFO queue, the discipline used throughout the paper.
// Capacity is counted in packets, matching the NetFPGA reference router and
// the Cisco linecard configuration of the testbeds (Table 2).
//
// The buffer is a Ring of PacketPool slot ids (the packets themselves stay
// in the attached link's pool; see queue.hpp): an arrival to a full buffer
// returns its slot to the pool, an admitted one pushes its 4-byte id.
#pragma once

#include "sim/annotations.hpp"

#include "net/queue.hpp"
#include "net/ring.hpp"

namespace qoesim::net {

class DropTailQueue final : public QueueDiscipline {
 public:
  explicit DropTailQueue(std::size_t capacity_packets)
      : QueueDiscipline(capacity_packets) {}

  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return bytes_; }
  std::string name() const override { return "DropTail"; }

 protected:
  QOESIM_HOT bool do_enqueue(SlotId slot, Time now) override {
    if (q_.size() >= capacity_) {
      drop(slot, now);
      return false;
    }
    bytes_ += packet(slot).size_bytes;
    q_.push(slot);
    return true;
  }

  QOESIM_HOT SlotId do_dequeue(Time /*now*/) override {
    if (q_.empty()) return PacketPool::kNil;
    const SlotId slot = q_.front();
    q_.pop();
    bytes_ -= packet(slot).size_bytes;
    return slot;
  }

 private:
  Ring<SlotId> q_;
  std::size_t bytes_ = 0;
};

}  // namespace qoesim::net
