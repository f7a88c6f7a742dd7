// Steady-state allocation gate for the packet hot path.
//
// This binary replaces the global operator new with a counting one. Each
// test builds a dumbbell (two senders -> r1 -> bottleneck -> r2 -> sink),
// overloads the bottleneck at twice its rate with UDP traffic, warms up
// until every pool, ring and scheduler arena has reached its peak
// population, and then counts heap allocations over a measurement window.
// The window must allocate nothing, under every queue discipline, with
// and without ECN marking, and with a BinaryTracer recording the
// bottleneck's queue and link events into its preallocated buffer. UDP
// only: TCP's lazily attached cold loss state allocates by design and
// would hide a regression in the link layer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"
#include "net/trace_binary.hpp"
#include "sim/simulation.hpp"
#include "queue_test_util.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n == 0 ? 1 : n) == 0)
    return p;
  throw std::bad_alloc();
}

}  // namespace

// The array and nothrow forms default to these.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace qoesim::net {
namespace {

constexpr std::uint32_t kSinkPort = 5000;
constexpr double kBottleneckBps = 10e6;

struct GateCase {
  const char* name;
  QueueKind kind;
  bool ecn;
  bool traced;
};

/// Constant-rate UDP source: one packet per `interval`, re-armed from its
/// own firing. Sizes cycle through three values so byte accounting and
/// serialization times vary.
class UdpFlood {
 public:
  UdpFlood(Simulation& sim, Node& from, NodeId to, Time interval, bool ect)
      : sim_(sim), from_(from), to_(to), interval_(interval), ect_(ect) {}

  void start() { sim_.after(Time::zero(), [this] { tick(); }); }

 private:
  void tick() {
    static constexpr std::uint32_t kSizes[] = {1500, 1200, 600};
    Packet p;
    p.uid = sim_.next_packet_uid();
    p.src = from_.id();
    p.dst = to_;
    p.proto = Protocol::kUdp;
    p.ecn = ect_ ? Ecn::kEct0 : Ecn::kNotEct;
    p.size_bytes = kSizes[sent_++ % 3];
    p.udp.src_port = 4000;
    p.udp.dst_port = kSinkPort;
    p.udp.payload = p.size_bytes - kUdpHeaderBytes;
    from_.send(std::move(p));
    sim_.after(interval_, [this] { tick(); });
  }

  Simulation& sim_;
  Node& from_;
  NodeId to_;
  Time interval_;
  bool ect_;
  std::uint64_t sent_ = 0;
};

class AllocGate : public ::testing::TestWithParam<GateCase> {};

TEST_P(AllocGate, SteadyStateForwardingAllocatesNothing) {
  const GateCase& gc = GetParam();
  Simulation sim(7);
  std::optional<BinaryTracer> tracer;  // outlives the links it observes
  Topology topo(sim);
  Node& s1 = topo.add_node("s1");
  Node& s2 = topo.add_node("s2");
  Node& r1 = topo.add_node("r1");
  Node& r2 = topo.add_node("r2");
  Node& sink = topo.add_node("sink");

  LinkSpec access;
  access.rate_bps = 100e6;
  access.delay = Time::milliseconds(2);
  access.buffer_packets = 1000;
  LinkSpec bottleneck;
  bottleneck.rate_bps = kBottleneckBps;
  bottleneck.delay = Time::milliseconds(10);
  bottleneck.buffer_packets = 64;
  bottleneck.queue = gc.kind;
  bottleneck.ecn = gc.ecn;
  topo.connect(s1, r1, access, access);
  topo.connect(s2, r1, access, access);
  const Topology::LinkPair core = topo.connect(r1, r2, bottleneck, access);
  topo.connect(r2, sink, access, access);
  topo.compute_routes();

  // Sized up front for the whole run (~2 k offered packets/s, at most 3
  // records each), so the window never reaches the overflow path.
  BinaryTracer::Config trace_cfg;
  trace_cfg.capacity_records = 1 << 16;
  if (gc.traced) {
    tracer.emplace(trace_cfg);
    tracer->observe_link(*core.forward, 0);
  }

  std::uint64_t received = 0;
  sink.bind_listener(Protocol::kUdp, kSinkPort,
                     [&received](Packet&&) { ++received; });

  // Two sources at ~1.0x the bottleneck rate each (mean packet 1100 B).
  const Time interval = Time::seconds(1100.0 * 8.0 / kBottleneckBps);
  UdpFlood f1(sim, s1, sink.id(), interval, gc.ecn);
  UdpFlood f2(sim, s2, sink.id(), interval * 1.03, gc.ecn);
  f1.start();
  f2.start();

  sim.run_until(Time::seconds(2));  // warm-up: every pool reaches its peak
  const QueueStats before = core.forward->queue().stats();
  const std::uint64_t received_before = received;
  const std::size_t records_before = tracer ? tracer->records() : 0;

  g_allocs.store(0);
  g_counting.store(true);
  sim.run_until(Time::seconds(7));
  g_counting.store(false);
  const std::uint64_t allocs = g_allocs.load();

  // The window really carried an overloaded bottleneck...
  const QueueStats& after = core.forward->queue().stats();
  EXPECT_GT(received - received_before, 5000u);
  EXPECT_GT(after.dropped + after.marked, before.dropped + before.marked);
  if (gc.ecn) {
    EXPECT_GT(after.marked, before.marked);
  }
  EXPECT_EQ(topo.node_stats().undelivered, 0u);
  if (tracer) {
    EXPECT_GT(tracer->records(), records_before);
    EXPECT_EQ(tracer->overflow(), 0u);
    const auto records = testutil::read_back(*tracer);
    EXPECT_EQ(testutil::count_events(records, TraceEvent::kEnqueue),
              after.enqueued);
    EXPECT_EQ(testutil::count_events(records, TraceEvent::kDrop),
              after.dropped);
    EXPECT_EQ(testutil::count_events(records, TraceEvent::kMark),
              after.marked);
  }
  // ...and allocated nothing doing so.
  EXPECT_EQ(allocs, 0u) << gc.name << ": " << allocs
                        << " heap allocations in the steady-state window";
}

INSTANTIATE_TEST_SUITE_P(
    Disciplines, AllocGate,
    ::testing::Values(
        GateCase{"DropTail", QueueKind::kDropTail, false, false},
        GateCase{"RED", QueueKind::kRed, false, false},
        GateCase{"RED_ECN", QueueKind::kRed, true, false},
        GateCase{"CoDel", QueueKind::kCoDel, false, false},
        GateCase{"CoDel_ECN", QueueKind::kCoDel, true, false},
        GateCase{"Priority", QueueKind::kPriority, false, false},
        GateCase{"DropTail_Traced", QueueKind::kDropTail, false, true},
        GateCase{"RED_ECN_Traced", QueueKind::kRed, true, true},
        GateCase{"CoDel_Traced", QueueKind::kCoDel, false, true},
        GateCase{"CoDel_ECN_Traced", QueueKind::kCoDel, true, true}),
    [](const ::testing::TestParamInfo<GateCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace qoesim::net
