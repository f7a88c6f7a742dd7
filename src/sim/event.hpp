// qoesim -- discrete-event scheduler.
//
// The Scheduler owns a slab-allocated arena of pending events driving an
// indexed 4-ary min-heap. Slots are recycled through a free list, so the
// steady-state schedule/fire/cancel cycle performs no heap allocation
// (callbacks with captures up to SmallCallback::kInlineCapacity bytes are
// stored inline and constructed in place in their slot; see
// sim/callback.hpp). Events that share a timestamp fire
// in scheduling order (FIFO, via a monotonic sequence number), which keeps
// simulations deterministic. Events can be cancelled or rescheduled through
// EventHandle, which is how protocol timers (TCP RTO, playout deadlines,
// ...) are built; cancellation removes the entry from the heap immediately
// instead of leaving a tombstone to purge later.
//
// EventHandle is a cheap {slot, generation} reference into the arena:
// copies share liveness (cancelling through one copy is visible to all),
// and a handle whose event has fired or been cancelled is inert (pending()
// is false, cancel()/reschedule() are no-ops). Handles must not be used
// after their Scheduler has been destroyed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace qoesim {

class Scheduler;

/// Handle to a scheduled event; allows cancellation and rescheduling.
/// Cheap to copy (24 bytes, no ownership); safe to destroy before or after
/// the event fires.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const;

  /// Cancel the event if still pending (removes it from the queue and
  /// destroys its callback immediately). Idempotent.
  void cancel();

  /// Move a still-pending event to fire at `when` instead, keeping its
  /// callback. Times in the past clamp to now(). The moved event behaves
  /// as if freshly scheduled at `when` for FIFO tie-breaking. Returns
  /// false (and does nothing) if the event already fired or was
  /// cancelled -- the caller must schedule a new event in that case.
  bool reschedule(Time when);

 private:
  friend class Scheduler;
  EventHandle(Scheduler* sched, std::uint32_t slot, std::uint64_t generation)
      : sched_(sched), slot_(slot), generation_(generation) {}

  Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// Deterministic discrete-event scheduler. Marked shard-plane: one shard
/// owns a Scheduler for the duration of an epoch (run/run_until/step);
/// the internal arena/heap operations require the shard capability and
/// the public API asserts it (see core/annotations.hpp).
class QOESIM_SHARD_PLANE Scheduler {
 public:
  using Callback = SmallCallback;

  /// Lifetime counters, kept per scheduler and folded into the StatsFold
  /// installed via set_stats_fold() (if any) on destruction, so benches can
  /// report events/sec across the many short-lived Simulations of a sweep.
  struct Stats {
    std::uint64_t scheduled = 0;    ///< schedule_at/schedule_in calls
    std::uint64_t fired = 0;        ///< callbacks invoked
    std::uint64_t cancelled = 0;    ///< pending events removed via cancel()
    std::uint64_t rescheduled = 0;  ///< EventHandle::reschedule fast paths
    std::uint64_t peak_queue_depth = 0;  ///< max simultaneous pending events
  };

  /// Thread-safe accumulator for the Stats of many schedulers. Sweep cells
  /// destroy one Scheduler each on worker threads, so fold() takes a mutex
  /// (one lock per scheduler lifetime). There is deliberately no
  /// process-wide instance: whoever wants aggregated counters owns a fold
  /// (benches via core::StatsRegistry) and passes it down, which keeps the
  /// engine free of shared mutable state (a PDES-sharding prerequisite).
  /// Sums of per-cell counters are independent of worker count and
  /// completion order, so snapshots are deterministic for a fixed seed;
  /// peak_queue_depth aggregates as a max, the rest as sums.
  class StatsFold {
   public:
    void fold(const Stats& s);
    Stats snapshot() const;

   private:
    mutable Mutex mutex_;
    Stats total_ QOESIM_GUARDED_BY(mutex_);
  };

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `f` (any void() callable, or a Callback) to run at
  /// absolute time `when` (must be >= now()). The callable is constructed
  /// directly in the event's arena slot; if that throws, nothing is
  /// scheduled and no slot is consumed.
  template <typename F>
  EventHandle schedule_at(Time when, F&& f) {
    shard_.assert_held();
    if (when < now_) {
      throw std::invalid_argument("Scheduler::schedule_at: time in the past");
    }
    return schedule_with_seq(when, next_seq(), std::forward<F>(f));
  }

  /// Reserve a FIFO position without scheduling anything. Events that
  /// share a timestamp fire in sequence order, so a component can fix an
  /// event's tie-breaking position now and materialize the event later
  /// with schedule_at_seq / EventHandle::reschedule(when, seq). The link
  /// wire ring uses this to collapse per-packet propagation events into
  /// one delivery event per link while keeping event order exactly as if
  /// each packet had scheduled its own event.
  std::uint64_t allocate_seq() {
    shard_.assert_held();
    return next_seq();
  }

  /// Schedule `f` at `when` with the FIFO position `seq`, which must
  /// have been obtained from allocate_seq() and used by at most one event
  /// ever. Consumes no new sequence number. Reusing a seq would make
  /// same-timestamp ties break on arena slot ids (i.e. nondeterministic
  /// free-list history) instead of scheduling order; unallocated seqs
  /// throw, and debug builds assert no pending event already holds the
  /// seq.
  template <typename F>
  EventHandle schedule_at_seq(Time when, std::uint64_t seq, F&& f) {
    shard_.assert_held();
    if (when < now_) {
      throw std::invalid_argument(
          "Scheduler::schedule_at_seq: time in the past");
    }
    if (seq >= next_seq_) {
      throw std::invalid_argument(
          "Scheduler::schedule_at_seq: seq not from allocate_seq");
    }
#ifndef NDEBUG
    assert_seq_not_pending(seq);
#endif
    return schedule_with_seq(when, seq, std::forward<F>(f));
  }

  /// Schedule `f` to run `delay` from now (negative delays clamp to now).
  template <typename F>
  EventHandle schedule_in(Time delay, F&& f) {
    if (delay.is_negative()) delay = Time::zero();
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Run events until the queue is empty or `until` is reached. The clock
  /// is advanced to `until` even if the queue drains earlier.
  void run_until(Time until);

  /// Run events strictly before `until` (half-open epoch [now, until)),
  /// then advance the clock to `until`. This is the conservative-PDES
  /// epoch driver: events at exactly `until` stay pending, so a barrier
  /// drain at `until` can still admit cross-shard deliveries that must
  /// tie-break against them by sequence number alone.
  void run_before(Time until);

  /// Run until the event queue is empty.
  void run();

  /// Fire at most one event; returns false when the queue is empty.
  bool step();

  /// Number of live pending events. Cancelled events are removed from the
  /// queue eagerly, so they are never counted (unlike the old tombstone
  /// implementation, which reported them until they were popped), and a
  /// firing event is not pending while its callback runs.
  std::size_t pending_events() const {
    return heap_.size() - (root_vacant_ ? 1 : 0);
  }

  /// Total number of events fired so far (for perf accounting).
  std::uint64_t fired_events() const { return stats_.fired; }

  /// Lifetime counters for this scheduler instance.
  const Stats& stats() const { return stats_; }

  /// Install the accumulator this scheduler folds its lifetime Stats into
  /// on destruction (nullptr = don't fold anywhere, the default). The fold
  /// must outlive the scheduler.
  void set_stats_fold(StatsFold* fold) { stats_fold_ = fold; }

  /// The shard-ownership checker for this scheduler's engine objects
  /// (debug-only thread-id assertions; see core/annotations.hpp). Every
  /// component hanging off this scheduler's Simulation asserts through it
  /// on its hot entry points.
  ShardAffinity& shard() { return shard_; }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilIndex = 0xffffffffu;

  // The (when, seq) sort key lives in the heap entry, not the slot, so
  // sift comparisons stay within the contiguous heap array instead of
  // chasing pointers into the arena. seq and slot share one word (40-bit
  // monotonic sequence, 24-bit slot id), keeping entries at 16 bytes so a
  // 4-ary node's children span a single cache line. Both widths have
  // explicit overflow guards in the .cpp (2^40 events per scheduler, 2^24
  // simultaneously pending events).
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  struct HeapEntry {
    Time when;
    std::uint64_t seq_slot;  // (seq << kSlotBits) | slot
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
  };

  // The generation is 64-bit so it can never wrap within the 2^40-event
  // sequence budget: a stale handle stays inert for the scheduler's whole
  // lifetime (no ABA on recycled slots). A slot's heap back-pointer is
  // not here but in the dense heap_index_ array, so the sift loops write
  // 4 bytes per moved entry instead of touching an 80-byte slot.
  struct Slot {
    std::uint64_t generation = 0;
    std::uint32_t next_free = kNilIndex;
    Callback cb;
  };

  bool handle_pending(std::uint32_t slot, std::uint64_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }
  void handle_cancel(std::uint32_t slot, std::uint64_t generation);
  bool handle_reschedule(std::uint32_t slot, std::uint64_t generation,
                         Time when);
  // Everything that can throw -- heap growth, arena growth, then
  // constructing the callable in the free-list head's slot -- happens
  // before that slot leaves the free list, so a failure orphans no slot
  // and leaves the heap untouched. A push that fills the vacant root
  // needs no heap capacity.
  template <typename F>
  EventHandle schedule_with_seq(Time when, std::uint64_t seq, F&& f)
      QOESIM_REQUIRES_SHARD {
    if (!root_vacant_ && heap_.size() == heap_.capacity()) grow_heap();
    if (free_head_ == kNilIndex) grow_arena();
    const std::uint32_t slot = free_head_;
    Slot& s = slots_[slot];
    // qoesim-lint: allow(hot-call-graph) -- SmallFunction::emplace: inline for captures <= 48 B (every hot-path event; test_alloc_gate pins 0 allocations)
    s.cb.emplace(std::forward<F>(f));
    free_head_ = s.next_free;
    heap_push(HeapEntry{when, seq << kSlotBits | slot});
    ++stats_.scheduled;
    return EventHandle{this, slot, s.generation};
  }

  void grow_heap() QOESIM_REQUIRES_SHARD;
  void grow_arena() QOESIM_REQUIRES_SHARD;
  // Bookkeeping only: the slot's callback must already be empty.
  void free_slot(std::uint32_t slot) QOESIM_REQUIRES_SHARD {
    Slot& s = slots_[slot];
    ++s.generation;  // invalidates all outstanding handles to this event
    s.next_free = free_head_;
    free_head_ = slot;
  }
  void release_slot(std::uint32_t slot) QOESIM_REQUIRES_SHARD;
  std::uint64_t next_seq() QOESIM_REQUIRES_SHARD {
    if (next_seq_ >> (64 - kSlotBits)) {
      throw std::overflow_error("Scheduler: event sequence space exhausted");
    }
    return next_seq_++;
  }
#ifndef NDEBUG
  void assert_seq_not_pending(std::uint64_t seq) const;
#endif

  // Indexed 4-ary min-heap keyed by (when, seq). Comparing the combined
  // seq_slot word is equivalent to comparing seq: among equal timestamps
  // the (strictly monotonic) sequence occupies the high bits and two
  // entries never share one.
  static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq_slot < b.seq_slot;
  }
  void heap_place(std::size_t pos, const HeapEntry& entry)
      QOESIM_REQUIRES_SHARD {
    heap_[pos] = entry;
    heap_index_[entry.slot()] = static_cast<std::uint32_t>(pos);
  }
  // Fused pop/push: step() leaves the fired event's entry at the root and
  // marks it vacant instead of removing it. The first push while the root
  // is vacant overwrites it and sifts down once -- a timer that re-arms
  // from its own callback (link tx-complete, wire delivery) costs one
  // sift instead of a remove's sift-down plus a push's sift-up. Every
  // other heap access first settles the vacant root (settle_root), i.e.
  // removes the stale entry like any other heap_remove.
  void heap_push(HeapEntry entry) QOESIM_REQUIRES_SHARD {
    if (root_vacant_) {
      // Same size as before the fired event left, so no new peak.
      root_vacant_ = false;
      heap_place(0, entry);
      heap_sift_down(0);
      return;
    }
    // qoesim-lint: allow(hot-call-graph) -- capacity is pre-grown geometrically in schedule_with_seq; never reallocates here
    heap_.push_back(entry);
    heap_sift_up(heap_.size() - 1);
    if (heap_.size() > stats_.peak_queue_depth)
      stats_.peak_queue_depth = heap_.size();
  }
  void settle_root() QOESIM_REQUIRES_SHARD {
    if (root_vacant_) {
      root_vacant_ = false;
      heap_remove(0);
    }
  }
  void heap_remove(std::size_t pos) QOESIM_REQUIRES_SHARD;
  void heap_sift_up(std::size_t pos) QOESIM_REQUIRES_SHARD;
  void heap_sift_down(std::size_t pos) QOESIM_REQUIRES_SHARD;

  Time now_;
  std::uint64_t next_seq_ = 0;
  ShardAffinity shard_;
  Stats stats_;
  StatsFold* stats_fold_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_index_;  // per slot; valid while pending
  std::vector<HeapEntry> heap_;
  std::uint32_t free_head_ = kNilIndex;
  bool root_vacant_ = false;  // heap_[0] is the fired event's stale entry
};

inline bool EventHandle::pending() const {
  return sched_ != nullptr && sched_->handle_pending(slot_, generation_);
}

inline void EventHandle::cancel() {
  if (sched_ != nullptr) sched_->handle_cancel(slot_, generation_);
}

inline bool EventHandle::reschedule(Time when) {
  return sched_ != nullptr &&
         sched_->handle_reschedule(slot_, generation_, when);
}

}  // namespace qoesim
