// Unit and property tests for queue disciplines.
#include "net/queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "net/codel.hpp"
#include <memory>
#include <string>
#include <tuple>

#include "net/drop_tail.hpp"
#include "net/priority_queue.hpp"
#include "net/red.hpp"
#include "queue_test_util.hpp"
#include "sim/random.hpp"

namespace qoesim::net {
namespace {

// Packet uids are diagnostics-only and simulation-owned; tests that
// build raw packets stamp them from a file-local counter.
std::uint64_t test_uid = 1;

Packet make_packet(std::uint32_t size = kMtuBytes) {
  Packet p;
  p.uid = test_uid++;
  p.size_bytes = size;
  return p;
}

TEST(DropTail, FifoOrder) {
  DropTailQueue q(10);
  testutil::PooledQueue pq(q);
  for (std::uint32_t i = 0; i < 5; ++i) {
    Packet p = make_packet(100 + i);
    ASSERT_TRUE(pq.offer(std::move(p), Time::zero()));
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto p = pq.take(Time::zero());
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->size_bytes, 100 + i);
  }
  EXPECT_FALSE(pq.take(Time::zero()).has_value());
}

TEST(DropTail, TailDropAtCapacity) {
  DropTailQueue q(3);
  testutil::PooledQueue pq(q);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(pq.offer(make_packet(), Time::zero()));
  }
  EXPECT_FALSE(pq.offer(make_packet(), Time::zero()));
  EXPECT_EQ(q.packet_count(), 3u);
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().offered, 4u);
  EXPECT_NEAR(q.stats().drop_rate(), 0.25, 1e-12);
}

TEST(DropTail, ByteCountTracksContents) {
  DropTailQueue q(10);
  testutil::PooledQueue pq(q);
  pq.offer(make_packet(1000), Time::zero());
  pq.offer(make_packet(500), Time::zero());
  EXPECT_EQ(q.byte_count(), 1500u);
  pq.take(Time::zero());
  EXPECT_EQ(q.byte_count(), 500u);
}

TEST(DropTail, EnqueueStampsTime) {
  DropTailQueue q(10);
  testutil::PooledQueue pq(q);
  pq.offer(make_packet(), Time::seconds(3));
  auto p = pq.take(Time::seconds(5));
  ASSERT_TRUE(p);
  EXPECT_EQ(p->enqueued_at, Time::seconds(3));
}

TEST(Red, DropsEarlyUnderSustainedLoad) {
  RedQueue q(100);
  testutil::PooledQueue pq(q);
  std::uint64_t early_drops = 0;
  // Keep the queue persistently half-full; RED should drop before the
  // hard limit is reached.
  for (int round = 0; round < 2000; ++round) {
    pq.offer(make_packet(), Time::zero());
    if (q.packet_count() > 60) pq.take(Time::zero());
    if (q.stats().dropped > 0 && q.packet_count() < 100) {
      early_drops = q.stats().dropped;
    }
  }
  EXPECT_GT(early_drops, 0u);
  EXPECT_LT(q.stats().max_packets_seen, 100u);
}

TEST(Red, NoDropsWhenIdle) {
  RedQueue q(100);
  testutil::PooledQueue pq(q);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(pq.offer(make_packet(), Time::zero()));
    pq.take(Time::zero());
  }
  EXPECT_EQ(q.stats().dropped, 0u);
}

TEST(CoDel, NoDropsBelowTarget) {
  CoDelQueue q(1000);
  testutil::PooledQueue pq(q);
  Time now = Time::zero();
  // Sojourn always < 5ms target.
  for (int i = 0; i < 1000; ++i) {
    pq.offer(make_packet(), now);
    now += Time::milliseconds(1);
    pq.take(now);
  }
  EXPECT_EQ(q.stats().dropped, 0u);
}

TEST(CoDel, DropsWhenSojournPersistsAboveTarget) {
  CoDelQueue q(1000);
  testutil::PooledQueue pq(q);
  Time now = Time::zero();
  // Fill with a standing queue so sojourn stays ~100ms.
  for (int i = 0; i < 100; ++i) {
    pq.offer(make_packet(), now);
    now += Time::milliseconds(1);
  }
  std::uint64_t delivered = 0;
  for (int i = 0; i < 400; ++i) {
    pq.offer(make_packet(), now);
    if (pq.take(now)) ++delivered;
    now += Time::milliseconds(5);
  }
  EXPECT_GT(q.stats().dropped, 0u);
  EXPECT_GT(delivered, 0u);
}

TEST(MakeQueue, Factory) {
  EXPECT_EQ(make_queue(QueueKind::kDropTail, 8)->name(), "DropTail");
  EXPECT_EQ(make_queue(QueueKind::kRed, 8)->name(), "RED");
  EXPECT_EQ(make_queue(QueueKind::kCoDel, 8)->name(), "CoDel");
  EXPECT_STREQ(to_string(QueueKind::kCoDel), "CoDel");
}

// Property sweep: conservation across disciplines and capacities --
// offered == dequeued + dropped + still-queued, and occupancy never
// exceeds capacity.
class QueueConservation
    : public ::testing::TestWithParam<std::tuple<QueueKind, std::size_t>> {};

TEST_P(QueueConservation, OfferedEqualsDeliveredPlusDroppedPlusQueued) {
  const auto [kind, capacity] = GetParam();
  auto q = make_queue(kind, capacity);
  testutil::PooledQueue pq(*q);
  RandomStream rng(99);
  Time now = Time::zero();
  std::uint64_t offered = 0;
  std::uint64_t dequeued = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.bernoulli(0.6)) {
      pq.offer(make_packet(static_cast<std::uint32_t>(
                   rng.uniform_int(40, kMtuBytes))),
               now);
      ++offered;
    } else if (pq.take(now)) {
      ++dequeued;
    }
    EXPECT_LE(q->packet_count(), capacity);
    now += Time::microseconds(rng.uniform(1, 500));
  }
  // Note: AQM schemes may drop at dequeue; stats capture every drop.
  EXPECT_EQ(q->stats().offered, offered);
  EXPECT_EQ(q->stats().dequeued, dequeued);
  EXPECT_EQ(q->stats().offered,
            q->stats().dropped + q->stats().dequeued + q->packet_count());
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, QueueConservation,
    ::testing::Combine(::testing::Values(QueueKind::kDropTail, QueueKind::kRed,
                                         QueueKind::kCoDel),
                       ::testing::Values<std::size_t>(1, 8, 64, 749)));

// Ring wrap-around: every discipline stores slot ids in a power-of-two
// ring, so holding it full while cycling 10x its capacity through it
// wraps the ring head many times. Order, accounting and the pool must
// survive that, including the AQM drops the cycling provokes (RED early
// drops, CoDel dequeue-time drops once sojourn exceeds target).
struct RingCase {
  std::string name;
  QueueKind kind;
  double high_share;  // Priority only
};

std::unique_ptr<QueueDiscipline> make_ring_case(const RingCase& rc,
                                                std::size_t capacity) {
  if (rc.kind == QueueKind::kPriority)
    return std::make_unique<PriorityQueue>(capacity,
                                           PriorityParams{rc.high_share});
  return make_queue(rc.kind, capacity);
}

class RingWrapAround
    : public ::testing::TestWithParam<std::tuple<RingCase, std::size_t>> {};

TEST_P(RingWrapAround, FullOccupancyCyclesKeepOrderAndAccounting) {
  const auto& [rc, capacity] = GetParam();
  auto q = make_ring_case(rc, capacity);
  testutil::PooledQueue pq(*q);
  if (rc.kind == QueueKind::kPriority) {
    const auto& prio = static_cast<const PriorityQueue&>(*q);
    EXPECT_EQ(prio.high_capacity() + prio.low_capacity(), capacity);
  }
  RandomStream rng(17);
  Time now = Time::zero();
  // Strict priority reorders across classes, so FIFO holds per class.
  std::uint64_t last_uid[2] = {0, 0};
  std::uint64_t delivered_bytes = 0;
  auto offer = [&](Protocol proto) {
    Packet p = make_packet(
        static_cast<std::uint32_t>(rng.uniform_int(40, kMtuBytes)));
    p.proto = proto;
    pq.offer(std::move(p), now);
  };
  // Dequeues one packet and offers a replacement of the same class, so
  // every band stays full; false once the queue is empty.
  auto cycle = [&] {
    auto p = pq.take(now);
    if (!p) return false;
    const int cls = p->proto == Protocol::kUdp ? 1 : 0;
    EXPECT_GT(p->uid, last_uid[cls]) << "FIFO order broken";
    last_uid[cls] = p->uid;
    delivered_bytes += p->size_bytes;
    offer(p->proto);
    return true;
  };
  auto check_accounting = [&] {
    const QueueStats& s = q->stats();
    ASSERT_EQ(s.offered, s.dequeued + s.dropped + q->packet_count());
    ASSERT_EQ(s.bytes_offered,
              delivered_bytes + s.bytes_dropped + q->byte_count());
    ASSERT_LE(q->packet_count(), capacity);
    // The pool holds exactly the resident packets: drops and deliveries
    // both returned their slots.
    ASSERT_EQ(pq.pool().in_flight(), q->packet_count());
  };
  // Fill every band (arrivals beyond a band's share are dropped).
  for (std::size_t i = 0; i < capacity; ++i) {
    offer(Protocol::kUdp);
    offer(Protocol::kTcp);
  }
  check_accounting();
  // Cycle 10x the ring's size (a ring holds at least 8 ids).
  const std::size_t cycles = 10 * std::max<std::size_t>(capacity, 8);
  std::size_t served = 0;
  for (std::size_t i = 0; i < cycles; ++i) {
    now += Time::microseconds(500);
    if (cycle()) ++served;
    // An extra arrival finds its band full (or is AQM-dropped).
    offer(rng.bernoulli(0.3) ? Protocol::kUdp : Protocol::kTcp);
    check_accounting();
  }
  EXPECT_GE(served, cycles / 2);
  // Drain without refilling.
  while (auto p = pq.take(now)) delivered_bytes += p->size_bytes;
  check_accounting();
  EXPECT_EQ(q->packet_count(), 0u);
  EXPECT_EQ(q->byte_count(), 0u);
  EXPECT_EQ(pq.pool().in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, RingWrapAround,
    ::testing::Combine(
        ::testing::Values(RingCase{"DropTail", QueueKind::kDropTail, 0.0},
                          RingCase{"RED", QueueKind::kRed, 0.0},
                          RingCase{"CoDel", QueueKind::kCoDel, 0.0},
                          RingCase{"PriorityShare0", QueueKind::kPriority, 0.0},
                          RingCase{"PriorityShare025", QueueKind::kPriority,
                                   0.25},
                          RingCase{"PriorityShare1", QueueKind::kPriority,
                                   1.0}),
        ::testing::Values<std::size_t>(1, 7, 8, 64, 749)),
    [](const auto& info) {
      return std::get<0>(info.param).name + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace qoesim::net
