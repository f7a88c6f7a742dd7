#include "net/priority_queue.hpp"

#include "sim/annotations.hpp"

#include <algorithm>
#include <cmath>

namespace qoesim::net {

PriorityQueue::PriorityQueue(std::size_t capacity_packets,
                             PriorityParams params)
    : QueueDiscipline(capacity_packets) {
  // The two bands partition the configured buffer exactly: the paper
  // sweeps total buffer size, so granting the low band a bonus slot (as a
  // max(1, ...) floor used to) would simulate a bigger buffer than
  // configured. A share of 0 (or a 1-packet buffer at full share) leaves
  // one band empty and that class drops everything, which is the faithful
  // reading of the configuration.
  const double share =
      std::clamp(params.high_priority_share, 0.0, 1.0);
  high_capacity_ = std::min(
      capacity_packets,
      static_cast<std::size_t>(
          std::ceil(static_cast<double>(capacity_packets) * share)));
  low_capacity_ = capacity_packets - high_capacity_;
}

QOESIM_HOT bool PriorityQueue::do_enqueue(SlotId slot, Time now) {
  const Packet& p = packet(slot);
  const bool high = is_high_priority(p);
  Ring<SlotId>& band = high ? high_ : low_;
  if (band.size() >= (high ? high_capacity_ : low_capacity_)) {
    ++(high ? high_drops_ : low_drops_);
    drop(slot, now);
    return false;
  }
  bytes_ += p.size_bytes;
  band.push(slot);
  return true;
}

QOESIM_HOT PriorityQueue::SlotId PriorityQueue::do_dequeue(Time /*now*/) {
  Ring<SlotId>& band = high_.empty() ? low_ : high_;
  if (band.empty()) return PacketPool::kNil;
  const SlotId slot = band.front();
  band.pop();
  bytes_ -= packet(slot).size_bytes;
  return slot;
}

}  // namespace qoesim::net
