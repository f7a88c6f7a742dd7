// Unit tests for the discrete-event scheduler.
#include "sim/event.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

#include <memory>
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
