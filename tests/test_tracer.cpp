// Packet tracer tests: a BinaryTracer observing a link records the link's
// transmit/deliver events and its queue discipline's enqueue/drop events.
#include "net/trace_binary.hpp"

#include <gtest/gtest.h>

#include "net/drop_tail.hpp"
#include "net/link.hpp"
#include "sim/simulation.hpp"
#include "queue_test_util.hpp"

namespace qoesim::net {
namespace {

using testutil::count_events;
using testutil::read_back;

// Packet uids are diagnostics-only and simulation-owned; tests that
// build raw packets stamp them from a file-local counter.
std::uint64_t test_uid = 1;

Packet make_packet(std::uint32_t size = 100) {
  Packet p;
  p.uid = test_uid++;
  p.src = 1;
  p.dst = 2;
  p.size_bytes = size;
  return p;
}

BinaryTracer::Config small_tracer() {
  BinaryTracer::Config cfg;
  cfg.capacity_records = 1024;
  return cfg;
}

TEST(Tracer, RecordsLinkTransmissions) {
  Simulation sim;
  Link link(sim, "dsl-up", 1e6, Time::zero(),
            std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  BinaryTracer tracer(small_tracer());
  tracer.observe_link(link, 7);
  for (int i = 0; i < 3; ++i) link.send(make_packet(1250));
  sim.run();
  const auto records = read_back(tracer);
  EXPECT_EQ(count_events(records, TraceEvent::kEnqueue), 3u);
  EXPECT_EQ(count_events(records, TraceEvent::kDeliver), 3u);
  std::vector<BinRecord> tx;
  for (const auto& r : records) {
    EXPECT_EQ(r.point, 7u);
    if (r.event == TraceEvent::kTransmit) tx.push_back(r);
  }
  ASSERT_EQ(tx.size(), 3u);
  EXPECT_EQ(tx[0].t_ns, Time::milliseconds(10).ns());
  EXPECT_EQ(tx[0].src, 1u);
  EXPECT_EQ(tx[0].dst, 2u);
  EXPECT_EQ(tx[0].wire_bytes, 1250u);
  EXPECT_EQ(tx[2].t_ns, Time::milliseconds(30).ns());
}

TEST(Tracer, QueueReportsEnqueueAndDrop) {
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(2));
  link.set_sink([](Packet&&) {});
  BinaryTracer tracer(small_tracer());
  tracer.observe_link(link, 0);
  for (int i = 0; i < 6; ++i) link.send(make_packet(1250));
  sim.run();
  const auto records = read_back(tracer);
  // 1 in service + 2 buffered; the other 3 arrivals find the buffer full.
  EXPECT_EQ(count_events(records, TraceEvent::kEnqueue), 3u);
  EXPECT_EQ(count_events(records, TraceEvent::kDrop), 3u);
  EXPECT_EQ(count_events(records, TraceEvent::kDrop),
            link.queue().stats().dropped);
  EXPECT_EQ(link.queue().stats().drop_rate(), 0.5);
  // The first three arrivals were admitted, the last three dropped on
  // arrival, each recorded at its send time.
  const std::uint64_t first_uid = records.front().uid;
  for (const auto& r : records) {
    if (r.event == TraceEvent::kDrop) {
      EXPECT_GE(r.uid, first_uid + 3);
      EXPECT_EQ(r.t_ns, 0);
    }
  }
  // The discipline returned each dropped slot to the link's pool exactly
  // once, and every admitted packet's slot came back on delivery.
  EXPECT_EQ(link.pool_stats().acquired, 6u);
  EXPECT_EQ(link.pool_stats().released, 6u);
}

TEST(Tracer, MultipleObserversCoexist) {
  Simulation sim;
  Link link(sim, "l", 1e9, Time::zero(), std::make_unique<DropTailQueue>(4));
  link.set_sink([](Packet&&) {});
  BinaryTracer t1(small_tracer()), t2(small_tracer());
  t1.observe_link(link, 1);
  t2.observe_link(link, 2);
  link.send(make_packet());
  sim.run();
  const auto r1 = read_back(t1);
  const auto r2 = read_back(t2);
  // Both see the link's events...
  EXPECT_EQ(count_events(r1, TraceEvent::kTransmit), 1u);
  EXPECT_EQ(count_events(r1, TraceEvent::kDeliver), 1u);
  EXPECT_EQ(count_events(r2, TraceEvent::kTransmit), 1u);
  EXPECT_EQ(count_events(r2, TraceEvent::kDeliver), 1u);
  // ...and the queue reports to the tracer that observed it last.
  EXPECT_EQ(count_events(r1, TraceEvent::kEnqueue), 0u);
  EXPECT_EQ(count_events(r2, TraceEvent::kEnqueue), 1u);
  EXPECT_EQ(r2.front().point, 2u);
}

}  // namespace
}  // namespace qoesim::net
