// Demux-plane conformance suite: flat-table semantics (exact 4-tuple beats
// wildcard listener, rebind replaces, unbind during delivery), the
// generation-guarded handler dispatch, ephemeral-port wraparound, the
// dense-route fallback, and a randomized flat-table fuzz against a
// std::map reference model.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "core/annotations.hpp"
#include "net/flat_table.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_socket.hpp"
#include "tcp_test_util.hpp"

namespace qoesim::net {
namespace {

// Packet uids are diagnostics-only and simulation-owned; tests that
// build raw packets stamp them from a file-local counter.
std::uint64_t test_uid = 1;

Packet udp_packet(NodeId src, NodeId dst, std::uint32_t sport,
                  std::uint32_t dport) {
  Packet p;
  p.uid = test_uid++;
  p.src = src;
  p.dst = dst;
  p.proto = Protocol::kUdp;
  p.size_bytes = 100;
  p.udp.src_port = sport;
  p.udp.dst_port = dport;
  return p;
}

Packet tcp_packet(NodeId src, NodeId dst, std::uint32_t sport,
                  std::uint32_t dport, bool syn, bool has_ack) {
  Packet p;
  p.uid = test_uid++;
  p.src = src;
  p.dst = dst;
  p.proto = Protocol::kTcp;
  p.size_bytes = 40;
  p.tcp.src_port = sport;
  p.tcp.dst_port = dport;
  p.tcp.syn = syn;
  p.tcp.has_ack = has_ack;
  return p;
}

class NodeDemuxTest : public ::testing::Test {
 protected:
  Simulation sim;
  Node node{sim, 0, "host"};

  // Deliver directly (no links needed): receive() on the destination node.
  void deliver(Packet&& p) { node.receive(std::move(p)); }
};

TEST_F(NodeDemuxTest, ExactFourTupleBeatsWildcardListener) {
  int conn = 0, listener = 0;
  node.bind_listener(Protocol::kUdp, 7, [&](Packet&&) { ++listener; });
  node.bind_connection(Protocol::kUdp, 7, 9, 1234, [&](Packet&&) { ++conn; });
  deliver(udp_packet(9, 0, 1234, 7));  // exact match
  deliver(udp_packet(9, 0, 4321, 7));  // different remote port -> listener
  deliver(udp_packet(8, 0, 1234, 7));  // different remote node -> listener
  EXPECT_EQ(conn, 1);
  EXPECT_EQ(listener, 2);
  EXPECT_EQ(node.delivered(), 3u);
}

TEST_F(NodeDemuxTest, RebindSameKeyReplacesHandler) {
  int first = 0, second = 0;
  node.bind_connection(Protocol::kUdp, 7, 9, 1, [&](Packet&&) { ++first; });
  node.bind_connection(Protocol::kUdp, 7, 9, 1, [&](Packet&&) { ++second; });
  deliver(udp_packet(9, 0, 1, 7));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  // The replace did not leak a second binding.
  EXPECT_EQ(node.bound_count(), 1u);
}

TEST_F(NodeDemuxTest, HandlerMayUnbindItselfMidDelivery) {
  // The handler's own captures (here: the counter pointer) must stay alive
  // for the remainder of the call even though the unbind destroys the
  // table entry; the generation guard defers the destruction until the
  // handler returned.
  auto hits = std::make_shared<int>(0);
  node.bind_connection(Protocol::kUdp, 7, 9, 1, [this, hits](Packet&&) {
    node.unbind_connection(Protocol::kUdp, 7, 9, 1);
    ++*hits;  // touch captures after the unbind
  });
  deliver(udp_packet(9, 0, 1, 7));
  deliver(udp_packet(9, 0, 1, 7));  // now unbound -> undelivered
  EXPECT_EQ(*hits, 1);
  EXPECT_EQ(node.undelivered(), 1u);
  EXPECT_EQ(node.bound_count(), 0u);
}

TEST_F(NodeDemuxTest, ListenerMayUnbindItselfMidDelivery) {
  auto hits = std::make_shared<int>(0);
  node.bind_listener(Protocol::kUdp, 7, [this, hits](Packet&&) {
    node.unbind_listener(Protocol::kUdp, 7);
    ++*hits;
  });
  deliver(udp_packet(9, 0, 1, 7));
  deliver(udp_packet(9, 0, 1, 7));
  EXPECT_EQ(*hits, 1);
  EXPECT_EQ(node.undelivered(), 1u);
}

TEST_F(NodeDemuxTest, HandlerMayRebindItselfMidDelivery) {
  // Rebinding the key a handler is currently running under replaces the
  // binding: the new handler receives the next packet, the old handler's
  // captures die only after it returned.
  int old_hits = 0, new_hits = 0;
  node.bind_connection(Protocol::kUdp, 7, 9, 1, [&, this](Packet&&) {
    node.bind_connection(Protocol::kUdp, 7, 9, 1,
                         [&](Packet&&) { ++new_hits; });
    ++old_hits;
  });
  deliver(udp_packet(9, 0, 1, 7));
  deliver(udp_packet(9, 0, 1, 7));
  EXPECT_EQ(old_hits, 1);
  EXPECT_EQ(new_hits, 1);
  EXPECT_EQ(node.bound_count(), 1u);
}

TEST_F(NodeDemuxTest, HandlerMayChurnOtherBindingsMidDelivery) {
  // Binds from inside a handler can grow the table (rehash) and unbinds
  // can backward-shift slots; neither may corrupt the running handler or
  // lose its binding.
  int hits = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    node.bind_connection(Protocol::kUdp, 100 + i, 9, 1, [](Packet&&) {});
  }
  node.bind_connection(Protocol::kUdp, 7, 9, 1, [&, this](Packet&&) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      node.unbind_connection(Protocol::kUdp, 100 + i, 9, 1);
    }
    for (std::uint32_t i = 0; i < 200; ++i) {  // forces growth rehashes
      node.bind_connection(Protocol::kUdp, 1000 + i, 9, 1, [](Packet&&) {});
    }
    ++hits;
  });
  deliver(udp_packet(9, 0, 1, 7));
  deliver(udp_packet(9, 0, 1, 7));  // binding survived the churn
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(node.bound_count(), 201u);
}

TEST_F(NodeDemuxTest, StrayLateTcpSegmentIsNotUndelivered) {
  // Non-SYN TCP segments with no binding are teardown races (the peer
  // retransmitting into our torn-down socket), accounted separately so
  // undelivered stays a strict misroute/misconfiguration signal.
  deliver(tcp_packet(9, 0, 80, 49152, /*syn=*/false, /*has_ack=*/true));
  // A SYN-ACK retransmitted into a client that aborted its connect is a
  // teardown race too, not a blackhole.
  deliver(tcp_packet(9, 0, 80, 49152, /*syn=*/true, /*has_ack=*/true));
  EXPECT_EQ(node.stats().stray_late, 2u);
  EXPECT_EQ(node.undelivered(), 0u);
  // A fresh (pure) SYN or a UDP datagram to a dead port is a real
  // blackhole.
  deliver(tcp_packet(9, 0, 1234, 80, /*syn=*/true, /*has_ack=*/false));
  deliver(udp_packet(9, 0, 1, 7));
  EXPECT_EQ(node.undelivered(), 2u);
}

TEST_F(NodeDemuxTest, SteadyStateChurnDoesNotGrowTable) {
  // Warm up to peak concurrency, then churn bind/unbind pairs: the table
  // must not rehash (grow) again -- the node plane's steady state is
  // allocation-free.
  constexpr std::uint32_t kLive = 512;
  for (std::uint32_t i = 0; i < kLive; ++i) {
    node.bind_connection(Protocol::kTcp, 49152 + i, 9, 80, [](Packet&&) {});
  }
  const std::uint64_t warm = node.demux_rehashes();
  for (std::uint32_t round = 0; round < 20; ++round) {
    for (std::uint32_t i = 0; i < kLive; ++i) {
      node.unbind_connection(Protocol::kTcp, 49152 + i, 9, 80);
      node.bind_connection(Protocol::kTcp, 49152 + i, 9, 80, [](Packet&&) {});
    }
  }
  EXPECT_EQ(node.demux_rehashes(), warm);
  EXPECT_EQ(node.bound_count(), kLive);
}

// ---- ephemeral port allocator ---------------------------------------------

TEST_F(NodeDemuxTest, EphemeralPortsWrapAround) {
  // Drain the whole range once; the allocator must wrap back to 49152
  // instead of walking out of the IANA dynamic range.
  EXPECT_EQ(node.allocate_port(), 49152u);
  for (int i = 1; i < 16384; ++i) node.allocate_port();
  EXPECT_EQ(node.allocate_port(), 49152u);
}

TEST_F(NodeDemuxTest, EphemeralAllocatorSkipsBoundPorts) {
  // Regression: after wrapping, ports still bound to a live connection or
  // listener must be skipped.
  node.bind_connection(Protocol::kTcp, 49152, 9, 80, [](Packet&&) {});
  node.bind_listener(Protocol::kUdp, 49154, [](Packet&&) {});
  EXPECT_EQ(node.allocate_port(), 49153u);  // 49152 skipped immediately
  // Two full sweeps: the bound ports must never be handed out.
  for (int i = 0; i < 2 * 16384; ++i) {
    const std::uint32_t p = node.allocate_port();
    ASSERT_NE(p, 49152u);
    ASSERT_NE(p, 49154u);
  }
  // Releasing a port makes it allocatable again within one pass.
  node.unbind_connection(Protocol::kTcp, 49152, 9, 80);
  bool seen = false;
  for (int i = 0; i < 16384 && !seen; ++i) {
    seen = node.allocate_port() == 49152u;
  }
  EXPECT_TRUE(seen);
}

TEST_F(NodeDemuxTest, EphemeralExhaustionThrows) {
  for (std::uint32_t p = 49152; p <= 65535; ++p) {
    node.bind_listener(Protocol::kUdp, p, [](Packet&&) {});
  }
  EXPECT_THROW(node.allocate_port(), std::runtime_error);
  node.unbind_listener(Protocol::kUdp, 60000);
  EXPECT_EQ(node.allocate_port(), 60000u);
}

TEST_F(NodeDemuxTest, GenCheckedUnbindSkipsReplacedBinding) {
  int old_hits = 0, new_hits = 0;
  const std::uint64_t old_gen = node.bind_connection(
      Protocol::kTcp, 7, 9, 1234, [&](Packet&&) { ++old_hits; });
  // A new flow reuses the exact 4-tuple before the old flow's deferred
  // teardown ran (same-instant churn under high flow arrival) ...
  const std::uint64_t new_gen = node.bind_connection(
      Protocol::kTcp, 7, 9, 1234, [&](Packet&&) { ++new_hits; });
  ASSERT_NE(old_gen, new_gen);
  // ... so the stale unbind must be a no-op and leave the newcomer bound.
  node.unbind_connection(Protocol::kTcp, 7, 9, 1234, old_gen);
  ASSERT_EQ(node.bound_count(), 1u);
  deliver(tcp_packet(9, 0, 1234, 7, /*syn=*/false, /*has_ack=*/true));
  EXPECT_EQ(old_hits, 0);
  EXPECT_EQ(new_hits, 1);
  // The live generation does take the binding down.
  node.unbind_connection(Protocol::kTcp, 7, 9, 1234, new_gen);
  EXPECT_EQ(node.bound_count(), 0u);
}

// ---- ephemeral release on abort -------------------------------------------

TEST(NodeEphemeralChurn, AbortedConnectsReleaseEphemeralPorts) {
  // Regression: an aborted connect must still release its ephemeral port
  // via the deferred (gen-checked) unbind. Churning through more than the
  // full 16384-port dynamic range would otherwise exhaust the allocator
  // and allocate_port() would throw.
  testutil::PairNet net;
  for (int i = 0; i < 16384 + 64; ++i) {
    auto sock = tcp::TcpSocket::connect(*net.a, net.b->id(), 80);
    sock->abort();
    sock.reset();
    // Drain the zero-delay deferred unbind plus the in-flight SYN (the
    // peer has no listener on 80; the stray segment is just absorbed).
    net.sim.run();
  }
  EXPECT_EQ(net.a->bound_count(), 0u);
  const Node::Stats s = net.a->stats();
  EXPECT_EQ(s.binds, s.unbinds);
  EXPECT_EQ(s.flows_opened, 16384u + 64u);
  EXPECT_EQ(s.flows_closed, 16384u + 64u);
}

// ---- dense route table ----------------------------------------------------

TEST(NodeRoutesTest, DenseRouteFallback) {
  Simulation sim;
  Topology topo(sim);
  auto& a = topo.add_node("a");
  auto& b = topo.add_node("b");
  auto& c = topo.add_node("c");
  LinkSpec spec;
  spec.rate_bps = 1e9;
  spec.delay = Time::microseconds(10);
  topo.connect(a, b, spec, spec);
  topo.connect(a, c, spec, spec);
  // No compute_routes: wire a specific route to b and a default to c.
  a.set_next_hop(b.id(), 0);
  a.set_default_route(1);

  int at_b = 0, at_c = 0;
  b.bind_listener(Protocol::kUdp, 7, [&](Packet&&) { ++at_b; });
  c.bind_listener(Protocol::kUdp, 7, [&](Packet&&) { ++at_c; });
  a.send(udp_packet(a.id(), b.id(), 1, 7));  // specific route
  a.send(udp_packet(a.id(), c.id(), 1, 7));  // no entry -> default route
  // dst beyond the dense table -> default route hands it to c, which has
  // no routes of its own and counts it unrouted (it is not addressed to c).
  a.send(udp_packet(a.id(), 999, 1, 7));
  sim.run();
  EXPECT_EQ(at_b, 1);
  EXPECT_EQ(at_c, 1);
  EXPECT_EQ(c.unrouted(), 1u);
  EXPECT_EQ(a.unrouted(), 0u);
}

TEST(NodeRoutesTest, NoRouteNoDefaultCountsUnrouted) {
  Simulation sim;
  Node a(sim, 0, "a");
  a.send(udp_packet(0, 5, 1, 7));
  EXPECT_EQ(a.unrouted(), 1u);
}

// ---- flat-table fuzz vs std::map reference --------------------------------

TEST(FlatTableTest, FuzzAgainstMapReference) {
  // Driving the shard-plane table directly: hold the shard capability
  // for the test body (no affinity -- there is no scheduler epoch here).
  const ShardGuard shard;
  using Key = std::tuple<std::uint8_t, std::uint32_t, std::uint32_t,
                         std::uint32_t>;
  std::mt19937_64 rng(0xf1a7);
  // Skewed small key space so binds collide with live keys and erases hit.
  auto random_key = [&rng]() {
    return Key{static_cast<std::uint8_t>(rng() % 2),
               static_cast<std::uint32_t>(rng() % 97),
               static_cast<std::uint32_t>(rng() % 13),
               static_cast<std::uint32_t>(rng() % 29)};
  };
  auto pack = [](const Key& k) {
    return DemuxKey::pack(std::get<0>(k), std::get<1>(k), std::get<2>(k),
                          std::get<3>(k));
  };
  for (int round = 0; round < 40; ++round) {
    FlatTable<int> table;
    std::map<Key, int> reference;
    int next_value = 0;
    for (int op = 0; op < 1500; ++op) {
      const Key key = random_key();
      switch (rng() % 4) {
        case 0:
        case 1: {  // bind (insert or replace)
          const int value = next_value++;
          const auto [gen, inserted] = table.bind(pack(key), int(value));
          EXPECT_EQ(inserted, reference.find(key) == reference.end());
          (void)gen;
          reference[key] = value;
          break;
        }
        case 2: {  // erase
          const bool erased = table.erase(pack(key));
          EXPECT_EQ(erased, reference.erase(key) == 1);
          break;
        }
        default: {  // lookup
          auto* slot = table.find(pack(key));
          auto it = reference.find(key);
          ASSERT_EQ(slot != nullptr, it != reference.end());
          if (slot != nullptr) {
            EXPECT_EQ(slot->value, it->second);
          }
          break;
        }
      }
      ASSERT_EQ(table.size(), reference.size());
    }
    // Post-round sweep: every reference entry must be found with the
    // right value (catches backward-shift chain breaks a lookup-by-luck
    // interleaving might miss).
    for (const auto& [key, value] : reference) {
      auto* slot = table.find(pack(key));
      ASSERT_NE(slot, nullptr);
      EXPECT_EQ(slot->value, value);
    }
  }
}

TEST(FlatTableTest, GenerationsAreUniqueAndSurviveGrowth) {
  const ShardGuard shard;
  FlatTable<int> table;
  const auto [gen1, ins1] = table.bind(DemuxKey::pack(0, 1, 2, 3), 1);
  EXPECT_TRUE(ins1);
  // Force growth; the original entry keeps its generation stamp.
  for (std::uint32_t i = 0; i < 100; ++i) {
    table.bind(DemuxKey::pack(1, i, 0, 0), int(i));
  }
  EXPECT_GT(table.rehashes(), 0u);
  auto* slot = table.find(DemuxKey::pack(0, 1, 2, 3));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->gen, gen1);
  // Rebinding bumps the generation.
  const auto [gen2, ins2] = table.bind(DemuxKey::pack(0, 1, 2, 3), 2);
  EXPECT_FALSE(ins2);
  EXPECT_GT(gen2, gen1);
  // Erase + rebind never reuses a generation.
  table.erase(DemuxKey::pack(0, 1, 2, 3));
  const auto [gen3, ins3] = table.bind(DemuxKey::pack(0, 1, 2, 3), 3);
  EXPECT_TRUE(ins3);
  EXPECT_GT(gen3, gen2);
}

TEST(FlatTableTest, RebindAtGrowthThresholdDoesNotRehash) {
  // Regression: replacing an existing key is not an insertion and must
  // never trigger a growth rehash, even with the table right at the
  // load-factor threshold (the counter is asserted flat by the
  // steady-state churn tests).
  const ShardGuard shard;
  FlatTable<int> table;
  std::uint32_t n = 0;
  while ((table.size() + 1) * 4 <= table.capacity() * 3 ||
         table.capacity() == 0) {
    table.bind(DemuxKey::pack(0, n, 0, 0), int(n));
    ++n;
  }
  const std::uint64_t rehashes = table.rehashes();
  for (std::uint32_t i = 0; i < n; ++i) {
    table.bind(DemuxKey::pack(0, i, 0, 0), int(i + 1));
  }
  EXPECT_EQ(table.rehashes(), rehashes);
}

TEST(FlatTableTest, ReserveAvoidsRehash) {
  const ShardGuard shard;
  FlatTable<int> table;
  table.reserve(1000);
  const std::uint64_t before = table.rehashes();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    table.bind(DemuxKey::pack(0, i, 0, 0), int(i));
  }
  EXPECT_EQ(table.rehashes(), before);
}

}  // namespace
}  // namespace qoesim::net
