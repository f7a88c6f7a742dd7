// Randomized model test for the arena scheduler: thousands of interleaved
// schedule/cancel/reschedule/step operations are mirrored against a naive
// sorted-vector reference implementation, asserting identical firing order
// and timestamps. Exercises FIFO tie-breaks (timestamps are quantized so
// collisions are common), cancel-at-head, reschedule-to-past clamping,
// reserved sequence numbers (allocate_seq/schedule_at_seq), the
// run_until/run_before bounds, and slot/generation reuse (fired and
// cancelled slots recycle constantly).
//
// A share of fired events also operate on the scheduler from inside their
// own callback -- schedule 0, 1 or 2 events, cancel or reschedule a random
// event or the current head, check pending_events() -- which is when the
// fired event's heap root is vacant: a first push fills it, anything else
// settles it first.
#include "sim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace qoesim {
namespace {

// Naive reference: an unsorted vector of pending events; firing scans for
// the (when, seq) minimum. Mirrors the documented Scheduler semantics
// exactly, in the most obviously-correct way possible.
class ReferenceScheduler {
 public:
  std::uint64_t allocate_seq() { return next_seq_++; }

  void schedule(std::int64_t when_ns, int id) {
    schedule_at_seq(when_ns, next_seq_++, id);
  }

  void schedule_at_seq(std::int64_t when_ns, std::uint64_t seq, int id) {
    pending_.push_back({when_ns, seq, id});
  }

  bool cancel(int id) {
    const auto it = find(id);
    if (it == pending_.end()) return false;
    pending_.erase(it);
    return true;
  }

  bool reschedule(int id, std::int64_t when_ns) {
    const auto it = find(id);
    if (it == pending_.end()) return false;
    it->when_ns = std::max(when_ns, now_ns_);  // past deadlines clamp to now
    it->seq = next_seq_++;  // FIFO-wise, behaves as if freshly scheduled
    return true;
  }

  /// Fire the earliest event; returns its id, or -1 when empty.
  int step() {
    if (pending_.empty()) return -1;
    const auto min = head();
    const int id = min->id;
    now_ns_ = min->when_ns;
    pending_.erase(min);
    return id;
  }

  /// The clock advance run_until/run_before make after their last event.
  void advance_to(std::int64_t ns) { now_ns_ = std::max(now_ns_, ns); }

  bool is_pending(int id) const {
    return const_cast<ReferenceScheduler*>(this)->find(id) != pending_.end();
  }
  std::int64_t now_ns() const { return now_ns_; }
  std::size_t size() const { return pending_.size(); }
  int head_id() const { return head()->id; }
  std::int64_t head_when_ns() const { return head()->when_ns; }
  int random_id(std::mt19937_64& rng) const {
    return pending_[rng() % pending_.size()].id;
  }

 private:
  struct Event {
    std::int64_t when_ns;
    std::uint64_t seq;
    int id;
  };
  std::vector<Event>::const_iterator head() const {
    auto min = pending_.begin();
    for (auto it = pending_.begin() + 1; it != pending_.end(); ++it) {
      if (it->when_ns < min->when_ns ||
          (it->when_ns == min->when_ns && it->seq < min->seq)) {
        min = it;
      }
    }
    return min;
  }
  std::vector<Event>::iterator find(int id) {
    return std::find_if(pending_.begin(), pending_.end(),
                        [id](const Event& e) { return e.id == id; });
  }
  std::int64_t now_ns_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> pending_;
};

// One randomized interleaving: operations against both schedulers, with
// every firing and timestamp compared. Each event's callback steps the
// reference itself, so the scheduler may fire events through step(),
// run_until(), run_before() or run() alike.
class Interleaving {
 public:
  explicit Interleaving(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  void run(int ops) {
    for (op_ = 0; op_ < ops; ++op_) {
      switch (rng_() % 10) {
        case 0:
        case 1:
        case 2:
          schedule_new();
          break;
        case 3:
          cancel_some();
          break;
        case 4:
          reschedule_some();
          break;
        case 5:
          touch_dead_handle();
          break;
        case 6:
          run_bounded();
          break;
        default: {  // fire one event
          const bool any = ref_.size() > 0;
          EXPECT_EQ(sched_.step(), any) << where();
          break;
        }
      }
      check_pending();
      if (::testing::Test::HasFailure()) return;
    }
    // Drain both completely; callbacks keep re-entering as they fire.
    fire_limit_ns_ = std::numeric_limits<std::int64_t>::max();
    sched_.run();
    EXPECT_EQ(ref_.size(), 0u) << where();
    EXPECT_EQ(sched_.now().ns(), ref_.now_ns()) << where();
    EXPECT_EQ(sched_.pending_events(), 0u) << where();
    EXPECT_EQ(sched_.stats().fired, fired_) << where();
  }

 private:
  std::string where() const {
    return "seed " + std::to_string(seed_) + " op " + std::to_string(op_);
  }

  // Timestamps are quantized to a few hundred ns so distinct events collide
  // on the same timestamp all the time, stressing the FIFO tie-break.
  std::int64_t random_when_ns() {
    return ref_.now_ns() + static_cast<std::int64_t>(rng_() % 8) * 100;
  }

  void check_pending() {
    EXPECT_EQ(sched_.pending_events(), ref_.size()) << where();
  }

  // A fresh event, or (one time in four) one that takes a previously
  // reserved sequence number; reservations are made here too.
  void schedule_new() {
    if (rng_() % 8 == 0) {
      const std::uint64_t seq = sched_.allocate_seq();
      EXPECT_EQ(seq, ref_.allocate_seq()) << where();
      reserved_.push_back(seq);
      return;
    }
    const int id = static_cast<int>(handles_.size());
    const std::int64_t when_ns = random_when_ns();
    const auto cb = [this, id] { fire(id); };
    if (!reserved_.empty() && rng_() % 4 == 0) {
      const std::size_t pick = rng_() % reserved_.size();
      const std::uint64_t seq = reserved_[pick];
      reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(pick));
      handles_.push_back(
          sched_.schedule_at_seq(Time::nanoseconds(when_ns), seq, cb));
      ref_.schedule_at_seq(when_ns, seq, id);
    } else {
      handles_.push_back(sched_.schedule_at(Time::nanoseconds(when_ns), cb));
      ref_.schedule(when_ns, id);
    }
  }

  // A random live event, one time in four the current head.
  int pick_live() {
    return rng_() % 4 == 0 ? ref_.head_id() : ref_.random_id(rng_);
  }

  void cancel_some() {
    if (ref_.size() == 0) return;
    const int id = pick_live();
    handles_[static_cast<std::size_t>(id)].cancel();
    EXPECT_TRUE(ref_.cancel(id)) << where();
    EXPECT_FALSE(handles_[static_cast<std::size_t>(id)].pending()) << where();
  }

  void reschedule_some() {  // sometimes into the past, which clamps to now
    if (ref_.size() == 0) return;
    const int id = pick_live();
    std::int64_t when_ns = random_when_ns();
    if (rng_() % 4 == 0) when_ns = ref_.now_ns() - 500;
    EXPECT_TRUE(handles_[static_cast<std::size_t>(id)].reschedule(
        Time::nanoseconds(when_ns)))
        << where();
    EXPECT_TRUE(ref_.reschedule(id, when_ns)) << where();
  }

  // Operations on dead handles are inert no-ops.
  void touch_dead_handle() {
    if (handles_.empty()) return;
    const int id = static_cast<int>(rng_() % handles_.size());
    if (ref_.is_pending(id)) return;
    EventHandle& h = handles_[static_cast<std::size_t>(id)];
    EXPECT_FALSE(h.pending()) << where();
    EXPECT_FALSE(h.reschedule(Time::seconds(1e6))) << where();
    h.cancel();  // must not disturb anything
  }

  // run_until (inclusive) or run_before (exclusive) a bound a few
  // quantization steps ahead; the reference must have nothing left inside
  // the bound afterwards, and both clocks end at the bound.
  void run_bounded() {
    const std::int64_t until_ns = random_when_ns();
    const bool inclusive = rng_() % 2 == 0;
    fire_limit_ns_ = inclusive ? until_ns : until_ns - 1;
    if (inclusive) {
      sched_.run_until(Time::nanoseconds(until_ns));
    } else {
      sched_.run_before(Time::nanoseconds(until_ns));
    }
    fire_limit_ns_ = std::numeric_limits<std::int64_t>::max();
    if (ref_.size() > 0) {
      EXPECT_GT(ref_.head_when_ns(), inclusive ? until_ns : until_ns - 1)
          << where();
    }
    ref_.advance_to(until_ns);
    EXPECT_EQ(sched_.now().ns(), ref_.now_ns()) << where();
  }

  // Every event's callback: check it is the one the reference fires next,
  // then (half of the time) operate on the scheduler from inside it.
  void fire(int id) {
    ++fired_;
    EXPECT_EQ(id, ref_.step()) << where();
    EXPECT_EQ(sched_.now().ns(), ref_.now_ns()) << where();
    EXPECT_LE(sched_.now().ns(), fire_limit_ns_) << where();
    EXPECT_FALSE(handles_[static_cast<std::size_t>(id)].pending()) << where();
    check_pending();
    if (rng_() % 2 != 0) return;
    // Schedule 0, 1 or 2 events, with at most one cancel or reschedule
    // placed before, between or after them.
    const int schedules = static_cast<int>(rng_() % 3);
    const int mutation = static_cast<int>(rng_() % 3);
    const int mutate_at = static_cast<int>(rng_() % (schedules + 1));
    for (int i = 0; i <= schedules; ++i) {
      if (i == mutate_at) {
        if (mutation == 1) cancel_some();
        if (mutation == 2) reschedule_some();
        check_pending();
      }
      if (i < schedules) {
        schedule_new();
        check_pending();
      }
    }
  }

  std::uint64_t seed_;
  int op_ = 0;
  std::mt19937_64 rng_;
  Scheduler sched_;
  ReferenceScheduler ref_;
  std::vector<EventHandle> handles_;  // by event id
  std::vector<std::uint64_t> reserved_;  // allocated, not yet scheduled
  std::uint64_t fired_ = 0;
  std::int64_t fire_limit_ns_ = std::numeric_limits<std::int64_t>::max();
};

void run_interleaving(std::uint64_t seed, int ops) {
  Interleaving(seed).run(ops);
}

TEST(SchedulerModel, MatchesReferenceAcross1200RandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    run_interleaving(seed, 120);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SchedulerModel, LongInterleavingRecyclesSlots) {
  // A single long run so slot generations wrap through many reuse cycles.
  run_interleaving(/*seed=*/424242, /*ops=*/20000);
}

}  // namespace
}  // namespace qoesim
