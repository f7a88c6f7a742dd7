// qoesim -- per-link packet slab pool and wire ring.
//
// PacketPool is the only place a packet lives between Link::send and
// delivery: Link::send admits the packet into a pooled slot once, and from
// then on the queue discipline (while the packet waits in the buffer), the
// tx-complete event (while it serializes) and the WireRing (while it
// propagates) all refer to it by 4-byte SlotId. A packet is therefore
// copied once into the pool and once out of it per hop, and a drop -- at
// the tail or at dequeue -- just returns the slot.
//
// Slots are recycled through a LIFO free list, mirroring the scheduler's
// event arena, so steady-state forwarding performs zero heap allocations
// per packet. The slab is a list of fixed-size blocks: a slot id maps to
// its packet with a shift and a mask, and growth adds a block without
// relocating existing slots. The slab only grows when more packets are
// simultaneously queued or in flight than ever before on this link, which
// is bounded by the buffer capacity plus 1 + ceil(prop_delay /
// serialization_time); new slots are counted in Stats::slab_growths so
// tests can assert the steady state allocates nothing.
//
// WireRing is the companion FIFO of (slot, seq, deliver_at) entries for
// packets that finished serialization and are propagating. Because a
// link's propagation delay is constant and serialization completions are
// ordered, deliver_at is non-decreasing, so one delivery event draining
// the ring front replaces a scheduler event per packet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/annotations.hpp"
#include "net/packet.hpp"
#include "net/ring.hpp"
#include "sim/time.hpp"

namespace qoesim::net {

/// Shard-plane: a pool belongs to one Link and is only touched from the
/// owning shard's event loop; the mutating operations require the shard
/// capability (Link's entry points assert it; see core/annotations.hpp).
class QOESIM_SHARD_PLANE PacketPool {
 public:
  using SlotId = std::uint32_t;
  static constexpr SlotId kNil = 0xffffffffu;

  struct Stats {
    std::uint64_t acquired = 0;
    /// Slots returned, by release() (delivered) or discard() (dropped).
    std::uint64_t released = 0;
    /// Number of times a new slot had to be created (the only operation
    /// that can touch the heap). Constant in steady state.
    std::uint64_t slab_growths = 0;
    std::uint64_t peak_in_flight = 0;
  };

  /// Store `p` in a pooled slot; reuses a free slot when available.
  SlotId acquire(Packet&& p) QOESIM_REQUIRES_SHARD;

  /// Move the packet out of `slot` and return the slot to the free list.
  Packet release(SlotId slot) QOESIM_REQUIRES_SHARD;

  /// Return `slot` to the free list without reading its packet (drops).
  void discard(SlotId slot) QOESIM_REQUIRES_SHARD;

  /// References returned here stay valid across acquire()/release(): the
  /// slab grows by whole blocks, so growth never relocates existing
  /// slots. A Link hands its sink such a reference while the sink could
  /// reenter Link::send (and thus acquire()).
  Packet& at(SlotId slot) QOESIM_REQUIRES_SHARD {
    return blocks_[slot >> kBlockBits][slot & kBlockMask];
  }
  const Packet& at(SlotId slot) const QOESIM_REQUIRES_SHARD {
    return blocks_[slot >> kBlockBits][slot & kBlockMask];
  }

  std::size_t in_flight() const {
    return static_cast<std::size_t>(stats_.acquired - stats_.released);
  }
  std::size_t slot_count() const { return slot_count_; }
  const Stats& stats() const { return stats_; }

 private:
  static constexpr unsigned kBlockBits = 6;  // 64 packets (~11 KB) a block
  static constexpr SlotId kBlockMask = (SlotId{1} << kBlockBits) - 1;

  SlotId new_slot() QOESIM_REQUIRES_SHARD;

  std::vector<std::unique_ptr<Packet[]>> blocks_;  // reference-stable slab
  std::vector<SlotId> free_;  // stack of recycled slot ids
  SlotId slot_count_ = 0;     // slots ever created
  Stats stats_;
};

/// One propagating packet. `seq` is the FIFO position reserved
/// (Scheduler::allocate_seq) when the packet finished serialization: the
/// delivery event fires with this seq, so same-timestamp ties resolve
/// exactly as if the packet had scheduled its own propagation event.
struct WireEntry {
  PacketPool::SlotId slot = PacketPool::kNil;
  std::uint64_t seq = 0;
  Time deliver_at;
};

/// FIFO of packets on the wire (see Ring for the growth policy).
using WireRing = Ring<WireEntry>;

}  // namespace qoesim::net
