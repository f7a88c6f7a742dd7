#include "sim/event.hpp"

#include "sim/annotations.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace qoesim {

void Scheduler::StatsFold::fold(const Stats& s) {
  const MutexLock lock(mutex_);
  total_.scheduled += s.scheduled;
  total_.fired += s.fired;
  total_.cancelled += s.cancelled;
  total_.rescheduled += s.rescheduled;
  total_.peak_queue_depth =
      std::max(total_.peak_queue_depth, s.peak_queue_depth);
}

Scheduler::Stats Scheduler::StatsFold::snapshot() const {
  const MutexLock lock(mutex_);
  return total_;
}

Scheduler::~Scheduler() {
  if (stats_fold_ != nullptr) stats_fold_->fold(stats_);
}

void Scheduler::grow_arena() {
  if (slots_.size() > kSlotMask) {
    throw std::length_error(
        "Scheduler: more than 2^24 simultaneously pending events");
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  // The back-pointer array grows first and by resize, so a throwing
  // slots_ growth leaves both arrays usable for the next attempt.
  // qoesim-lint: allow(hot-call-graph) -- arena growth; free-list recycling makes steady state allocation-free
  heap_index_.resize(std::size_t{slot} + 1);
  // qoesim-lint: allow(hot-call-graph) -- arena growth; free-list recycling makes steady state allocation-free
  slots_.emplace_back();
  free_head_ = slot;  // the new slot's next_free is kNilIndex
}

void Scheduler::grow_heap() {
  // qoesim-lint: allow(hot-call-graph) -- geometric heap growth, steady-state free once peak depth is reached
  heap_.reserve(heap_.capacity() == 0 ? 64 : heap_.capacity() * 2);
}

#ifndef NDEBUG
void Scheduler::assert_seq_not_pending(std::uint64_t seq) const {
  // A duplicated seq would silently tie-break on recycled slot ids; catch
  // the pending-duplicate half of the precondition where it is checkable.
  // The scan is bounded so debug builds of large simulations don't pay
  // O(pending) on every delivery (this path runs once per packet-hop).
  // A vacant root is the fired event's stale entry, not a pending one.
  if (heap_.size() > 4096) return;
  for (std::size_t i = root_vacant_ ? 1 : 0; i < heap_.size(); ++i) {
    assert(heap_[i].seq_slot >> kSlotBits != seq &&
           "schedule_at_seq: seq already pending");
  }
}
#endif

void Scheduler::release_slot(std::uint32_t slot) {
  free_slot(slot);
  // Destroy the callback last, through a local and with no reference into
  // the arena held: dropping captures (weak_ptrs, RAII objects, ...) runs
  // arbitrary destructors that may reenter the scheduler and reallocate
  // slots_. The slot bookkeeping above is already consistent, so a
  // reentrant schedule_at may even recycle this very slot safely.
  Callback doomed = std::move(slots_[slot].cb);
  static_cast<void>(doomed);
}

void Scheduler::heap_remove(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail
  heap_place(pos, last);
  // The replacement may be out of order in either direction.
  if (pos > 0 && heap_less(last, heap_[(pos - 1) / 4])) {
    heap_sift_up(pos);
  } else {
    heap_sift_down(pos);
  }
}

void Scheduler::heap_sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!heap_less(entry, heap_[parent])) break;
    heap_place(pos, heap_[parent]);
    pos = parent;
  }
  heap_place(pos, entry);
}

void Scheduler::heap_sift_down(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= size) break;
    const std::size_t end_child = std::min(first_child + 4, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end_child; ++c) {
      if (heap_less(heap_[c], heap_[best])) best = c;
    }
    if (!heap_less(heap_[best], entry)) break;
    heap_place(pos, heap_[best]);
    pos = best;
  }
  heap_place(pos, entry);
}

void Scheduler::handle_cancel(std::uint32_t slot, std::uint64_t generation) {
  shard_.assert_held();
  if (!handle_pending(slot, generation)) return;  // fired or already cancelled
  settle_root();
  heap_remove(heap_index_[slot]);
  release_slot(slot);
  ++stats_.cancelled;
}

bool Scheduler::handle_reschedule(std::uint32_t slot, std::uint64_t generation,
                                  Time when) {
  shard_.assert_held();
  if (!handle_pending(slot, generation)) return false;
  // Take the sequence first: if it throws, the entry's key is untouched
  // and the heap invariant still holds.
  const std::uint64_t seq = next_seq();
  settle_root();
  const std::size_t pos = heap_index_[slot];
  HeapEntry& entry = heap_[pos];
  entry.when = when < now_ ? now_ : when;  // past deadlines clamp to now
  // FIFO-wise, a rescheduled event behaves as if freshly scheduled.
  entry.seq_slot = seq << kSlotBits | slot;
  if (pos > 0 && heap_less(entry, heap_[(pos - 1) / 4])) {
    heap_sift_up(pos);
  } else {
    heap_sift_down(pos);
  }
  ++stats_.rescheduled;
  return true;
}

QOESIM_HOT bool Scheduler::step() {
  // A bare step() is a one-event epoch: adopt the calling thread (aborts
  // in debug builds if another thread's epoch is live).
  shard_.begin_epoch();
  settle_root();
  if (heap_.empty()) return false;
  // Leave the fired entry at the root, vacant: a push from the callback
  // takes its place (see heap_push); otherwise the next heap access
  // removes it.
  const HeapEntry head = heap_[0];
  root_vacant_ = true;
  now_ = head.when;
  // Move the callback out before invoking: the callback may schedule new
  // events, which can grow (reallocate) the slot arena. Freeing the slot
  // first also makes the event non-pending during its own execution and
  // lets the firing callback's slot be recycled immediately.
  const std::uint32_t slot = head.slot();
  Callback cb = std::move(slots_[slot].cb);
  free_slot(slot);
  ++stats_.fired;
  cb();
  return true;
}

QOESIM_HOT void Scheduler::run_until(Time until) {
  // Epoch scope: the calling thread owns this shard until the driver
  // returns; ownership is released at exit so the simulation may resume
  // on a different thread later (sweep-cell handoff).
  const ShardGuard epoch(&shard_);
  for (settle_root(); !heap_.empty() && heap_[0].when <= until;
       settle_root()) {
    step();
  }
  if (now_ < until) now_ = until;
}

QOESIM_HOT void Scheduler::run_before(Time until) {
  // Same epoch scope as run_until, but the bound is exclusive: a shard's
  // epoch [T, T+Q) must leave events at exactly T+Q unfired, because the
  // barrier drain at T+Q may admit cross-shard deliveries for that very
  // timestamp. Both sides then tie-break on sequence number alone (local
  // events allocated during the epoch fire before barrier-admitted ones),
  // which is the order a single-shard run produces too.
  const ShardGuard epoch(&shard_);
  for (settle_root(); !heap_.empty() && heap_[0].when < until;
       settle_root()) {
    step();
  }
  if (now_ < until) now_ = until;
}

QOESIM_HOT void Scheduler::run() {
  const ShardGuard epoch(&shard_);
  while (step()) {
  }
}

}  // namespace qoesim
