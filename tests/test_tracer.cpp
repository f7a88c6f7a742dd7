// Packet tracer tests.
#include "net/tracer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "net/drop_tail.hpp"
#include "sim/simulation.hpp"

namespace qoesim::net {
namespace {

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

TEST(Tracer, RecordsLinkTransmissions) {
  Simulation sim;
  Link link(sim, "dsl-up", 1e6, Time::zero(),
            std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  PacketTracer tracer;
  tracer.observe_link(link);
  for (int i = 0; i < 3; ++i) link.send(make_packet(1250));
  sim.run();
  ASSERT_EQ(tracer.records().size(), 3u);
  EXPECT_EQ(tracer.records()[0].event, TraceEvent::kTransmit);
  EXPECT_EQ(tracer.records()[0].point, "dsl-up");
  EXPECT_EQ(tracer.records()[0].at, Time::milliseconds(10));
  EXPECT_EQ(tracer.records()[2].at, Time::milliseconds(30));
}

TEST(Tracer, TracingQueueReportsEnqueueAndDrop) {
  Simulation sim;
  PacketTracer tracer;
  Link link(sim, "l", 1e6, Time::zero(),
            std::make_unique<TracingQueue>(std::make_unique<DropTailQueue>(2),
                                           tracer, "bottleneck"));
  link.set_sink([](Packet&&) {});
  for (int i = 0; i < 6; ++i) link.send(make_packet(1250));
  sim.run();
  const auto enq = tracer.count([](const TraceRecord& r) {
    return r.event == TraceEvent::kEnqueue;
  });
  const auto drop = tracer.count([](const TraceRecord& r) {
    return r.event == TraceEvent::kDrop;
  });
  EXPECT_EQ(enq, 3u);   // 1 in service + 2 buffered
  EXPECT_EQ(drop, 3u);
  EXPECT_EQ(link.queue().stats().drop_rate(), 0.5);
  // The inner discipline returned each dropped slot to the link's pool
  // exactly once, and every admitted packet's slot came back on delivery.
  EXPECT_EQ(link.pool_stats().acquired, 6u);
  EXPECT_EQ(link.pool_stats().released, 6u);
}

TEST(Tracer, CapacityBounded) {
  PacketTracer tracer(2);
  TraceRecord r;
  tracer.record(r);
  tracer.record(r);
  tracer.record(r);
  EXPECT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.overflow(), 1u);
}

TEST(Tracer, CsvOutput) {
  Simulation sim;
  Link link(sim, "l", 1e9, Time::zero(), std::make_unique<DropTailQueue>(4));
  link.set_sink([](Packet&&) {});
  PacketTracer tracer;
  tracer.observe_link(link);
  link.send(make_packet(100));
  sim.run();
  std::ostringstream out;
  tracer.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("time_s,event,point"), std::string::npos);
  EXPECT_NE(csv.find("transmit,l"), std::string::npos);
  EXPECT_NE(csv.find("udp,1,2,100"), std::string::npos);
}

TEST(Tracer, MultipleObserversCoexist) {
  Simulation sim;
  Link link(sim, "l", 1e9, Time::zero(), std::make_unique<DropTailQueue>(4));
  link.set_sink([](Packet&&) {});
  PacketTracer t1, t2;
  t1.observe_link(link);
  t2.observe_link(link);
  link.send(make_packet());
  sim.run();
  EXPECT_EQ(t1.records().size(), 1u);
  EXPECT_EQ(t2.records().size(), 1u);
}

}  // namespace
}  // namespace qoesim::net
