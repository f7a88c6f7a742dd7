#include "net/packet_pool.hpp"

#include "sim/annotations.hpp"

#include <algorithm>
#include <utility>

namespace qoesim::net {

QOESIM_HOT PacketPool::SlotId PacketPool::acquire(Packet&& p) {
  ++stats_.acquired;
  stats_.peak_in_flight =
      std::max<std::uint64_t>(stats_.peak_in_flight, in_flight());
  SlotId slot = kNil;
  if (free_.empty()) {
    slot = new_slot();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  at(slot) = std::move(p);
  return slot;
}

PacketPool::SlotId PacketPool::new_slot() {
  ++stats_.slab_growths;
  if ((slot_count_ & kBlockMask) == 0) {
    // qoesim-lint: allow(hot-alloc) -- one block per 64 new slots; free in steady state once the pool holds its peak population
    blocks_.push_back(std::make_unique<Packet[]>(std::size_t{kBlockMask} + 1));
    // The free stack can hold at most one entry per slot; reserving a
    // block's worth at a time keeps discard() allocation-free.
    // qoesim-lint: allow(hot-alloc) -- grows with the slab so discard() below never reallocates
    free_.reserve(blocks_.size() << kBlockBits);
  }
  return slot_count_++;
}

QOESIM_HOT Packet PacketPool::release(SlotId slot) {
  Packet p = std::move(at(slot));
  discard(slot);
  return p;
}

QOESIM_HOT void PacketPool::discard(SlotId slot) {
  ++stats_.released;
  // qoesim-lint: allow(hot-alloc) -- capacity reserved in new_slot(); never reallocates
  free_.push_back(slot);
}

}  // namespace qoesim::net
