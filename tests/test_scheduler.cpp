// Unit tests for the discrete-event scheduler.
#include "sim/event.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace qoesim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::seconds(3), [&] { order.push_back(3); });
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(Time::seconds(2), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Time::seconds(3));
}

TEST(Scheduler, FifoAmongEqualTimestamps) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(Time::seconds(1), [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler sched;
  Time fired;
  sched.schedule_at(Time::seconds(5), [&] {
    sched.schedule_in(Time::seconds(2), [&] { fired = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired, Time::seconds(7));
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_in(Time::zero() - Time::seconds(1), [&] { fired = true; });
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now(), Time::zero());
}

TEST(Scheduler, PastSchedulingThrows) {
  Scheduler sched;
  sched.schedule_at(Time::seconds(1), [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(Time::milliseconds(500), [] {}),
               std::invalid_argument);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  auto handle = sched.schedule_at(Time::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler sched;
  int count = 0;
  auto handle = sched.schedule_at(Time::seconds(1), [&] { ++count; });
  sched.run();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(Time::seconds(5), [&] { order.push_back(5); });
  sched.run_until(Time::seconds(3));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.now(), Time::seconds(3));
  sched.run_until(Time::seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
  EXPECT_EQ(sched.now(), Time::seconds(10));
}

TEST(Scheduler, RunUntilWithCancelledHeadDoesNotOvershoot) {
  Scheduler sched;
  bool late_fired = false;
  auto head = sched.schedule_at(Time::seconds(1), [] {});
  sched.schedule_at(Time::seconds(9), [&] { late_fired = true; });
  head.cancel();
  sched.run_until(Time::seconds(5));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sched.now(), Time::seconds(5));
}

TEST(Scheduler, EventsScheduledDuringRunAreExecuted) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sched.schedule_in(Time::milliseconds(1), recurse);
  };
  sched.schedule_in(Time::milliseconds(1), recurse);
  sched.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sched.fired_events(), 100u);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler sched;
  EXPECT_FALSE(sched.step());
  sched.schedule_at(Time::seconds(1), [] {});
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, PendingEventsExcludesCancelled) {
  // Cancellation removes the entry from the queue eagerly, so a cancelled
  // event is never reported (the old tombstone implementation counted it
  // until the queue happened to pop it).
  Scheduler sched;
  auto a = sched.schedule_at(Time::seconds(1), [] {});
  auto b = sched.schedule_at(Time::seconds(2), [] {});
  auto c = sched.schedule_at(Time::seconds(3), [] {});
  EXPECT_EQ(sched.pending_events(), 3u);
  b.cancel();
  EXPECT_EQ(sched.pending_events(), 2u);
  a.cancel();  // cancel at head
  EXPECT_EQ(sched.pending_events(), 1u);
  a.cancel();  // idempotent: no double-count
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.fired_events(), 1u);
  EXPECT_TRUE(c.pending() == false);
}

TEST(Scheduler, FiringEventSchedulingAtSameTimestampPreservesFifo) {
  // A fires at t=1 and schedules B also at t=1. C was scheduled (after A,
  // before B existed) at t=1, so the FIFO order among equals is A, C, B.
  Scheduler sched;
  std::vector<char> order;
  sched.schedule_at(Time::seconds(1), [&] {
    order.push_back('A');
    sched.schedule_at(Time::seconds(1), [&] { order.push_back('B'); });
  });
  sched.schedule_at(Time::seconds(1), [&] { order.push_back('C'); });
  sched.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'C', 'B'}));
  EXPECT_EQ(sched.now(), Time::seconds(1));
}

TEST(Scheduler, RescheduleMovesPendingEvent) {
  Scheduler sched;
  std::vector<int> order;
  auto moved = sched.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(Time::seconds(2), [&] { order.push_back(2); });
  EXPECT_TRUE(moved.reschedule(Time::seconds(3)));  // move later
  EXPECT_TRUE(moved.pending());
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(sched.now(), Time::seconds(3));
}

TEST(Scheduler, RescheduleEarlierAndToPastClamp) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  auto h = sched.schedule_at(Time::seconds(5), [&] { order.push_back(5); });
  EXPECT_TRUE(h.reschedule(Time::milliseconds(500)));  // move to the head
  sched.step();
  EXPECT_EQ(order, (std::vector<int>{5}));
  EXPECT_EQ(sched.now(), Time::milliseconds(500));
  // Rescheduling into the past clamps to now() instead of throwing.
  auto past = sched.schedule_at(Time::seconds(9), [&] { order.push_back(9); });
  EXPECT_TRUE(past.reschedule(Time::zero()));
  sched.step();
  EXPECT_EQ(order, (std::vector<int>{5, 9}));
  EXPECT_EQ(sched.now(), Time::milliseconds(500));  // clamped, no time travel
}

TEST(Scheduler, RescheduleBehavesAsFreshlyScheduledForFifo) {
  // Rescheduling onto an occupied timestamp queues BEHIND the events
  // already there, exactly as if the event had been cancelled and
  // re-scheduled.
  Scheduler sched;
  std::vector<char> order;
  auto a = sched.schedule_at(Time::seconds(1), [&] { order.push_back('a'); });
  sched.schedule_at(Time::seconds(2), [&] { order.push_back('b'); });
  EXPECT_TRUE(a.reschedule(Time::seconds(2)));
  sched.run();
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
}

TEST(Scheduler, RescheduleAfterFireOrCancelReturnsFalse) {
  Scheduler sched;
  int count = 0;
  auto fired = sched.schedule_at(Time::seconds(1), [&] { ++count; });
  sched.run();
  EXPECT_FALSE(fired.reschedule(Time::seconds(2)));  // already fired
  EXPECT_EQ(sched.pending_events(), 0u);

  auto cancelled = sched.schedule_at(Time::seconds(2), [&] { ++count; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.reschedule(Time::seconds(3)));
  EXPECT_EQ(sched.pending_events(), 0u);
  sched.run();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(EventHandle{}.reschedule(Time::seconds(1)));  // default handle
}

TEST(Scheduler, HandleCopiesShareLiveness) {
  Scheduler sched;
  bool fired = false;
  auto a = sched.schedule_at(Time::seconds(1), [&] { fired = true; });
  EventHandle b = a;
  b.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, StaleHandleDoesNotAffectRecycledSlot) {
  // After an event fires, its arena slot is recycled for new events; the
  // old handle's generation no longer matches, so cancelling it must not
  // touch the slot's new occupant.
  Scheduler sched;
  int fired = 0;
  auto old_handle = sched.schedule_at(Time::seconds(1), [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
  auto fresh = sched.schedule_at(Time::seconds(2), [&] { ++fired; });
  old_handle.cancel();  // stale: must be a no-op
  EXPECT_TRUE(fresh.pending());
  EXPECT_FALSE(old_handle.reschedule(Time::seconds(9)));
  sched.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, LargeCapturesFallBackToHeapStorage) {
  // Captures beyond SmallCallback::kInlineCapacity take the heap path;
  // behavior (and destruction of the capture) must be identical.
  Scheduler sched;
  struct Big {
    char payload[96];
    std::shared_ptr<int> witness;
  };
  auto witness = std::make_shared<int>(0);
  Big big{{}, witness};
  big.payload[0] = 42;
  sched.schedule_at(Time::seconds(1), [big] { ++*big.witness; });
  auto cancelled = sched.schedule_at(Time::seconds(2), [big] { ++*big.witness; });
  EXPECT_EQ(witness.use_count(), 4);  // witness + big + two scheduled copies
  cancelled.cancel();
  EXPECT_EQ(witness.use_count(), 3);  // cancel destroys the capture eagerly
  sched.run();
  EXPECT_EQ(*witness, 1);
  EXPECT_EQ(witness.use_count(), 2);  // only witness + big remain
}

// SmallFunction moves a trivially copyable inline capture with memcpy and
// never destroys it. Enough events are scheduled that the slot arena
// reallocates (moving every pending callback) several times; every
// capture must still arrive intact, through reschedule and fire.
TEST(Scheduler, TrivialInlineCaptureSurvivesArenaGrowthAndReschedule) {
  Scheduler sched;
  std::vector<std::uint64_t> fired;
  struct Capture {
    std::vector<std::uint64_t>* out;
    std::uint64_t id;
    double weight;
    std::uint32_t tag;
  };
  static_assert(std::is_trivially_copyable_v<Capture>);
  std::vector<EventHandle> handles;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const Capture c{&fired, i, 0.5 * static_cast<double>(i),
                    static_cast<std::uint32_t>(i * 7)};
    auto cb = [c] {
      EXPECT_EQ(c.weight, 0.5 * static_cast<double>(c.id));
      EXPECT_EQ(c.tag, static_cast<std::uint32_t>(c.id * 7));
      c.out->push_back(c.id);
    };
    static_assert(std::is_trivially_copyable_v<decltype(cb)>);
    handles.push_back(sched.schedule_at(Time::seconds(1.0 + i), cb));
  }
  // Move the even events behind all the odd ones.
  for (std::uint64_t i = 0; i < 300; i += 2)
    ASSERT_TRUE(handles[i].reschedule(Time::seconds(1000.0 + i)));
  sched.run();
  ASSERT_EQ(fired.size(), 300u);
  for (std::uint64_t i = 0; i < 150; ++i) {
    EXPECT_EQ(fired[i], 2 * i + 1);
    EXPECT_EQ(fired[150 + i], 2 * i);
  }
}

// A shared_ptr capture takes the general (non-trivial) inline path: its
// moves run the move constructor and its destruction releases the
// reference, whether the event fires or is cancelled.
TEST(Scheduler, SharedPtrCaptureReleasedAfterFireAndCancel) {
  Scheduler sched;
  auto witness = std::make_shared<int>(0);
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sched.schedule_at(Time::seconds(1.0 + i),
                                        [w = witness] { ++*w; }));
  }
  EXPECT_EQ(witness.use_count(), 101);
  for (int i = 0; i < 100; i += 4) handles[i].cancel();
  EXPECT_EQ(witness.use_count(), 76);  // cancel destroys the capture
  for (int i = 1; i < 100; i += 4)
    ASSERT_TRUE(handles[i].reschedule(Time::seconds(500.0 + i)));
  sched.run_until(Time::seconds(200));
  EXPECT_EQ(*witness, 50);
  EXPECT_EQ(witness.use_count(), 26);  // the 25 rescheduled still pending
  sched.run();
  EXPECT_EQ(*witness, 75);
  EXPECT_EQ(witness.use_count(), 1);
}

// A capture larger than the inline buffer lives on the heap; the buffer
// then holds only the owning pointer, which moves like a trivial capture.
// Every heap copy must still be freed exactly once, on fire, on cancel
// and when the scheduler is destroyed with the event pending (the
// sanitizer builds report a leak or double free).
TEST(Scheduler, HeapFallbackCaptureFreedOnFireCancelAndDestruction) {
  auto witness = std::make_shared<int>(0);
  struct Big {
    char payload[64];
    std::shared_ptr<int> w;
  };
  static_assert(sizeof(Big) > SmallCallback::kInlineCapacity);
  {
    Scheduler sched;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 100; ++i) {
      Big big{{}, witness};
      big.payload[0] = static_cast<char>(i);
      handles.push_back(sched.schedule_at(
          Time::seconds(1.0 + i), [big] { *big.w += big.payload[0] >= 0; }));
    }
    EXPECT_EQ(witness.use_count(), 101);
    for (int i = 0; i < 100; i += 4) handles[i].cancel();
    for (int i = 1; i < 100; i += 4)
      ASSERT_TRUE(handles[i].reschedule(Time::seconds(500.0 + i)));
    sched.run_until(Time::seconds(200));
    EXPECT_EQ(*witness, 50);
    EXPECT_EQ(witness.use_count(), 26);
  }  // destroys the 25 still-pending events
  EXPECT_EQ(witness.use_count(), 1);

  // The same at the SmallFunction level: move construction, move
  // assignment over a live target, and reset().
  SmallCallback a = [big = Big{{}, witness}] { (void)big; };
  SmallCallback b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  SmallCallback c = [big = Big{{}, witness}] { (void)big; };
  EXPECT_EQ(witness.use_count(), 3);
  c = std::move(b);
  EXPECT_EQ(witness.use_count(), 2);
  c.reset();
  EXPECT_EQ(witness.use_count(), 1);
}

TEST(Scheduler, StatsCountersTrackOperations) {
  Scheduler sched;
  auto a = sched.schedule_at(Time::seconds(1), [] {});
  auto b = sched.schedule_at(Time::seconds(2), [] {});
  sched.schedule_at(Time::seconds(3), [] {});
  a.reschedule(Time::seconds(4));
  b.cancel();
  sched.run();
  const Scheduler::Stats& s = sched.stats();
  EXPECT_EQ(s.scheduled, 3u);
  EXPECT_EQ(s.rescheduled, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.fired, 2u);
  EXPECT_EQ(s.peak_queue_depth, 3u);
  EXPECT_EQ(sched.fired_events(), s.fired);
}

TEST(Scheduler, ReservedSeqFixesFifoPositionAtAllocationTime) {
  // allocate_seq() reserves a FIFO slot that an event scheduled much later
  // (schedule_at_seq) still occupies: it fires before a same-timestamp
  // event whose seq was taken after the reservation.
  Scheduler sched;
  std::vector<int> order;
  const std::uint64_t reserved = sched.allocate_seq();
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(2); });
  sched.schedule_at_seq(Time::seconds(1), reserved,
                        [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, ScheduleAtSeqRejectsUnallocatedSeq) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at_seq(Time::seconds(1), 0, [] {}),
               std::invalid_argument);
  (void)sched.allocate_seq();
  EXPECT_NO_THROW(sched.schedule_at_seq(Time::seconds(1), 0, [] {}));
  sched.run();
}

TEST(Scheduler, ReservedSeqSurvivesInterleavedScheduling) {
  // A reserved position interleaves correctly among several same-time
  // events whose seqs were taken before and after the reservation.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(0); });
  const std::uint64_t reserved = sched.allocate_seq();
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(2); });
  sched.schedule_at_seq(Time::seconds(1), reserved,
                        [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Counts its own copies and moves. Not trivially copyable, so the
// scheduler moves it through its move constructor (no memcpy fast path).
struct CopyMoveCounter {
  struct Counts {
    int copies = 0;
    int moves = 0;
  };
  Counts* counts;
  Counts* seen_at_fire;

  CopyMoveCounter(Counts* c, Counts* seen) : counts(c), seen_at_fire(seen) {}
  CopyMoveCounter(const CopyMoveCounter& o)
      : counts(o.counts), seen_at_fire(o.seen_at_fire) {
    ++counts->copies;
  }
  CopyMoveCounter(CopyMoveCounter&& o) noexcept
      : counts(o.counts), seen_at_fire(o.seen_at_fire) {
    ++counts->moves;
  }
  void operator()() const { *seen_at_fire = *counts; }
};

TEST(Scheduler, CallableIsConstructedInPlaceInItsSlot) {
  Simulation sim;
  CopyMoveCounter::Counts counts;
  CopyMoveCounter::Counts seen;
  sim.after(Time::seconds(1), CopyMoveCounter{&counts, &seen});
  // An rvalue is moved straight into the arena slot: the single move
  // constructs the slot's copy, none happens on the way there.
  EXPECT_EQ(counts.copies, 0);
  EXPECT_EQ(counts.moves, 1);
  sim.run();
  // Firing moves the callable out of the slot once before invoking it.
  EXPECT_EQ(seen.copies, 0);
  EXPECT_EQ(seen.moves, 2);

  // An lvalue is copied into the slot exactly once, and not moved. (Each
  // event here reuses the one arena slot, so no arena growth moves it.)
  CopyMoveCounter::Counts lcounts;
  CopyMoveCounter::Counts lseen;
  const CopyMoveCounter lvalue{&lcounts, &lseen};
  sim.at(Time::seconds(2), lvalue);
  EXPECT_EQ(lcounts.copies, 1);
  EXPECT_EQ(lcounts.moves, 0);
  sim.run();
  EXPECT_EQ(lseen.copies, 1);
  EXPECT_EQ(lseen.moves, 1);

  // A prebuilt SmallCallback is move-assigned into the slot; its target
  // is moved exactly once more there, and once out when it fires.
  CopyMoveCounter::Counts ccounts;
  CopyMoveCounter::Counts cseen;
  SmallCallback cb = CopyMoveCounter{&ccounts, &cseen};
  const int moves_before = ccounts.moves;
  sim.after(Time::seconds(3), std::move(cb));
  EXPECT_EQ(ccounts.moves, moves_before + 1);
  EXPECT_EQ(ccounts.copies, 0);
  sim.run();
  EXPECT_EQ(cseen.moves, moves_before + 2);
}

// Records where it was last constructed: in-place construction reveals
// which arena slot an event occupies. Copying throws on request.
struct SlotProbe {
  const void** constructed_at;
  bool throw_on_copy = false;

  SlotProbe(const void** at, bool throws)
      : constructed_at(at), throw_on_copy(throws) {}
  SlotProbe(const SlotProbe& o)
      : constructed_at(o.constructed_at), throw_on_copy(o.throw_on_copy) {
    if (throw_on_copy) throw std::runtime_error("SlotProbe copy");
    *constructed_at = this;
  }
  SlotProbe(SlotProbe&& o) noexcept
      : constructed_at(o.constructed_at), throw_on_copy(o.throw_on_copy) {
    *constructed_at = this;
  }
  void operator()() const {}
};

TEST(Scheduler, ThrowingCallableConstructionConsumesNoSlot) {
  Scheduler sched;
  const void* where = nullptr;
  sched.schedule_at(Time::seconds(2), [] {});
  EventHandle a = sched.schedule_at(Time::seconds(1), SlotProbe{&where, false});
  const void* const slot_of_a = where;  // the arena does not grow after a
  a.cancel();  // a's slot is now the free list's head
  const std::size_t pending = sched.pending_events();
  const std::uint64_t scheduled = sched.stats().scheduled;

  const SlotProbe thrower{&where, true};
  EXPECT_THROW(sched.schedule_at(Time::seconds(3), thrower),
               std::runtime_error);
  EXPECT_THROW(sched.schedule_in(Time::seconds(3), thrower),
               std::runtime_error);
  const std::uint64_t seq = sched.allocate_seq();
  EXPECT_THROW(sched.schedule_at_seq(Time::seconds(3), seq, thrower),
               std::runtime_error);
  EXPECT_EQ(sched.pending_events(), pending);
  EXPECT_EQ(sched.stats().scheduled, scheduled);

  // The next schedule takes the same slot: nothing was orphaned and the
  // free list is as the cancel left it.
  sched.schedule_at_seq(Time::seconds(3), seq, SlotProbe{&where, false});
  EXPECT_EQ(where, slot_of_a);
  EXPECT_EQ(sched.pending_events(), pending + 1);
  EXPECT_EQ(sched.stats().scheduled, scheduled + 1);
  sched.run();
  EXPECT_EQ(sched.stats().fired, 2u);
}

TEST(Scheduler, ThrowingConstructionInsideFiringCallback) {
  // The firing event leaves the heap root vacant; a throwing schedule
  // from its callback must neither fill nor settle it wrongly.
  Scheduler sched;
  std::vector<int> order;
  const void* where = nullptr;
  const SlotProbe thrower{&where, true};
  sched.schedule_at(Time::seconds(1), [&] {
    EXPECT_THROW(sched.schedule_in(Time::zero(), thrower), std::runtime_error);
    EXPECT_EQ(sched.pending_events(), 1u);
    sched.schedule_in(Time::seconds(2), [&] { order.push_back(3); });
    EXPECT_EQ(sched.pending_events(), 2u);
  });
  sched.schedule_at(Time::seconds(2), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(sched.stats().scheduled, 3u);
  EXPECT_EQ(sched.stats().peak_queue_depth, 2u);
}

TEST(Scheduler, FiringEventIsNotPendingAndPeakDepthIsExact) {
  Scheduler sched;
  std::vector<std::size_t> pending_inside;
  std::vector<std::uint64_t> peak_after;
  const auto note = [&] { pending_inside.push_back(sched.pending_events()); };
  const auto step = [&] {
    ASSERT_TRUE(sched.step());
    peak_after.push_back(sched.stats().peak_queue_depth);
  };
  // Callbacks schedule 1, 2, 2, 0, 1, 0, 0, 0 events:
  //   t=1 -> t=3; t=2 -> t=4, t=5; t=3 -> t=6, t=7; t=5 -> t=8.
  sched.schedule_at(Time::seconds(1), [&] {
    note();
    sched.schedule_at(Time::seconds(3), [&] {
      note();
      // The first push takes the fired event's place: depth 3 again, no
      // new peak. The second is a new peak.
      sched.schedule_at(Time::seconds(6), [&] { note(); });
      EXPECT_EQ(sched.pending_events(), 3u);
      EXPECT_EQ(sched.stats().peak_queue_depth, 3u);
      sched.schedule_at(Time::seconds(7), [&] { note(); });
      EXPECT_EQ(sched.pending_events(), 4u);
      EXPECT_EQ(sched.stats().peak_queue_depth, 4u);
    });
  });
  sched.schedule_at(Time::seconds(2), [&] {
    note();
    sched.schedule_at(Time::seconds(4), [&] { note(); });
    sched.schedule_at(Time::seconds(5), [&] {
      note();
      sched.schedule_at(Time::seconds(8), [&] { note(); });
    });
  });
  EXPECT_EQ(sched.stats().peak_queue_depth, 2u);
  for (int i = 0; i < 8; ++i) step();
  EXPECT_FALSE(sched.step());
  // Pending inside each callback, before it schedules anything:
  //   t=1 {2}; t=2 {3}; t=3 {4,5}; t=4 {5,6,7}; t=5 {6,7}; t=6 {7,8};
  //   t=7 {8}; t=8 {}.
  EXPECT_EQ(pending_inside,
            (std::vector<std::size_t>{1, 1, 2, 3, 2, 2, 1, 0}));
  // Depth after each callback: 2, 3, 4, 3, 3, 2, 1, 0.
  EXPECT_EQ(peak_after,
            (std::vector<std::uint64_t>{2, 3, 4, 4, 4, 4, 4, 4}));
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Simulation, DerivedRngsDifferByLabel) {
  Simulation sim(42);
  auto a = sim.rng("a");
  auto b = sim.rng("b");
  auto a2 = sim.rng("a");
  const double va = a.uniform();
  EXPECT_NE(va, b.uniform());
  EXPECT_EQ(va, a2.uniform());  // deterministic per (seed, label)
}

}  // namespace
}  // namespace qoesim
