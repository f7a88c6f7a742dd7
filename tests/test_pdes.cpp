// Model tests for the conservative-PDES sharded engine
// (core/sharded_engine): mailbox delivery must be indistinguishable from
// the single-scheduler wire path, and every observable -- delivery times,
// same-timestamp delivery order, transport counters, combined scheduler
// stats -- must be byte-identical at every shard count. The fuzz tests
// compare runs against a plain Simulation+Topology reference and against
// each other under explicit pin maps that force different cuts; the
// access-testbed case is the realistic-shape shard-count gate CI runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sharded_engine.hpp"
#include "net/topology.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"
#include "udp/udp_socket.hpp"

namespace qoesim::core {
namespace {

constexpr Time kDelay = Time::milliseconds(10);
constexpr std::uint32_t kPort = 7000;

net::LinkSpec long_link() {
  net::LinkSpec s;
  s.rate_bps = 10e6;
  s.delay = kDelay;
  s.buffer_packets = 64;
  return s;
}

// A long link the fuzz traffic below overloads about sixfold, so the queue
// drops: tail drops for DropTail, early random drops for RED.
net::LinkSpec overloaded_link(net::QueueKind queue) {
  net::LinkSpec s = long_link();
  s.rate_bps = 1e6;
  s.queue = queue;
  return s;
}

struct Delivery {
  std::int64_t at_ns = 0;
  net::NodeId src = 0;
  std::uint32_t seq = 0;
  std::uint32_t size = 0;
  friend bool operator==(const Delivery&, const Delivery&) = default;
};

struct Send {
  bool a_to_b = false;
  std::int64_t at_ns = 0;
  std::uint32_t bytes = 0;
  std::uint32_t seq = 0;
};

// Fuzzed two-way UDP traffic over one long duplex link; the same send
// list is replayed against every engine/reference variant.
std::vector<Send> fuzz_sends(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Send> sends;
  for (std::uint32_t i = 0; i < 600; ++i) {
    Send s;
    s.a_to_b = rng() % 2 == 0;
    // Clustered times so many datagrams share timestamps and queue behind
    // each other -- the tie-break and FIFO cases the mailbox must get
    // exactly right.
    s.at_ns = static_cast<std::int64_t>(rng() % 50) * 10'000'000 +
              static_cast<std::int64_t>(rng() % 3) * 500;
    s.bytes = 40 + static_cast<std::uint32_t>(rng() % 1200);
    s.seq = i;
    sends.push_back(s);
  }
  return sends;
}

void schedule_sends(const std::vector<Send>& sends, Simulation& sim_a,
                    Simulation& sim_b, udp::UdpSocket& tx_a,
                    udp::UdpSocket& tx_b, net::NodeId a, net::NodeId b) {
  for (const Send& s : sends) {
    Simulation& sim = s.a_to_b ? sim_a : sim_b;
    udp::UdpSocket& tx = s.a_to_b ? tx_a : tx_b;
    const net::NodeId dst = s.a_to_b ? b : a;
    sim.at(Time::nanoseconds(s.at_ns), [&tx, dst, s] {
      net::AppTag tag;
      tag.seq = s.seq;
      tx.send_to(dst, kPort, s.bytes, tag);
    });
  }
}

struct FuzzRun {
  std::vector<Delivery> log;
  Scheduler::Stats stats;
  std::uint64_t dropped = 0;  ///< queue drops, both directions
};

// One engine run of the two-node fuzz scenario over `link`; returns the
// merged delivery logs of both endpoints, the combined scheduler stats and
// the link's queue drops.
FuzzRun run_sharded(const std::vector<Send>& sends, unsigned shards,
                    std::vector<std::int32_t> pins,
                    const net::LinkSpec& link) {
  ShardedEngine::Config cfg;
  cfg.shards = shards;
  cfg.pin = std::move(pins);
  ShardedEngine engine(std::move(cfg));
  const net::NodeId a = engine.add_node("a");
  const net::NodeId b = engine.add_node("b");
  engine.connect(a, b, link, link);
  engine.build();

  udp::UdpSocket sock_a(engine.node(a), kPort);
  udp::UdpSocket sock_b(engine.node(b), kPort);
  std::vector<Delivery> log_a, log_b;  // per-endpoint: shard-local writes
  Simulation& sim_a = engine.sim_of(a);
  Simulation& sim_b = engine.sim_of(b);
  sock_a.set_receive([&log_a, &sim_a](net::Packet&& p) {
    log_a.push_back({sim_a.now().ns(), p.src, p.app.seq, p.size_bytes});
  });
  sock_b.set_receive([&log_b, &sim_b](net::Packet&& p) {
    log_b.push_back({sim_b.now().ns(), p.src, p.app.seq, p.size_bytes});
  });
  schedule_sends(sends, sim_a, sim_b, sock_a, sock_b, a, b);

  engine.run_until(Time::seconds(2));
  FuzzRun run;
  run.log = log_a;
  run.log.insert(run.log.end(), log_b.begin(), log_b.end());
  run.stats = engine.scheduler_stats();
  run.dropped = engine.link(0, true)->queue().stats().dropped +
                engine.link(0, false)->queue().stats().dropped;
  return run;
}

// Parametrized over the queue discipline: with RED, the single-simulation
// build and the 1-/2-shard builds only drop the same packets if every
// build derives the same per-link queue seed.
class ShardedEngineMailbox : public ::testing::TestWithParam<net::QueueKind> {
};

TEST_P(ShardedEngineMailbox, MatchesWireDelivery) {
  const std::vector<Send> sends = fuzz_sends(11);
  const net::LinkSpec link = overloaded_link(GetParam());

  // Reference: the ordinary single-scheduler wire path (Link sink), with
  // the engine's default master seed.
  Simulation sim(ShardedEngine::Config{}.seed);
  net::Topology topo(sim);
  net::Node& a = topo.add_node("a");
  net::Node& b = topo.add_node("b");
  const net::Topology::LinkPair links = topo.connect(a, b, link, link);
  topo.compute_routes();
  udp::UdpSocket sock_a(a, kPort);
  udp::UdpSocket sock_b(b, kPort);
  std::vector<Delivery> ref;
  sock_a.set_receive([&ref, &sim](net::Packet&& p) {
    ref.push_back({sim.now().ns(), p.src, p.app.seq, p.size_bytes});
  });
  sock_b.set_receive([&ref, &sim](net::Packet&& p) {
    ref.push_back({sim.now().ns(), p.src, p.app.seq, p.size_bytes});
  });
  schedule_sends(sends, sim, sim, sock_a, sock_b, a.id(), b.id());
  sim.scheduler().run_until(Time::seconds(2));
  ASSERT_FALSE(ref.empty());
  const std::uint64_t ref_dropped = links.forward->queue().stats().dropped +
                                    links.backward->queue().stats().dropped;
  ASSERT_GT(ref_dropped, 0u);  // the overload really exercises the queue

  // The engine mailboxes the link at every shard count (discipline follows
  // the link delay, not the cut), so both variants must reproduce the
  // reference log: same packets, same nanoseconds, same order.
  // The merged log groups a's deliveries before b's; the reference is
  // interleaved, so compare per-endpoint subsequences.
  auto split = [](const std::vector<Delivery>& log, net::NodeId from) {
    std::vector<Delivery> out;
    for (const Delivery& d : log)
      if (d.src == from) out.push_back(d);
    return out;
  };
  const FuzzRun one = run_sharded(sends, 1, {}, link);
  const FuzzRun two = run_sharded(sends, 2, {0, 1}, link);
  for (const net::NodeId from : {net::NodeId{0}, net::NodeId{1}}) {
    EXPECT_EQ(split(one.log, from), split(ref, from));
    EXPECT_EQ(split(two.log, from), split(ref, from));
  }
  EXPECT_EQ(one.dropped, ref_dropped);
  EXPECT_EQ(two.dropped, ref_dropped);

  // Combined engine counters are part of the determinism contract too
  // (the bench prints them on stdout).
  EXPECT_EQ(one.stats.fired, two.stats.fired);
  EXPECT_EQ(one.stats.scheduled, two.stats.scheduled);
  EXPECT_EQ(one.stats.cancelled, two.stats.cancelled);
  EXPECT_EQ(one.stats.peak_queue_depth, two.stats.peak_queue_depth);
}

INSTANTIATE_TEST_SUITE_P(Queues, ShardedEngineMailbox,
                         ::testing::Values(net::QueueKind::kDropTail,
                                           net::QueueKind::kRed),
                         [](const auto& info) {
                           return std::string(net::to_string(info.param));
                         });

// Four leaves firing datagrams that arrive at the hub at identical
// timestamps: the delivery order among those ties must not depend on the
// shard count (merge key + seq allocation, not thread interleaving).
TEST(ShardedEngine, TieBreakOrderInvariant) {
  auto run = [](unsigned shards, std::vector<std::int32_t> pins) {
    ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.pin = std::move(pins);
    ShardedEngine engine(std::move(cfg));
    const net::NodeId hub = engine.add_node("hub");
    std::vector<net::NodeId> leaves;
    for (int i = 0; i < 4; ++i)
      leaves.push_back(engine.add_node("leaf" + std::to_string(i)));
    for (const net::NodeId leaf : leaves)
      engine.connect(hub, leaf, long_link(), long_link());
    engine.build();

    udp::UdpSocket rx(engine.node(hub), kPort);
    std::vector<Delivery> log;
    Simulation& hub_sim = engine.sim_of(hub);
    rx.set_receive([&log, &hub_sim](net::Packet&& p) {
      log.push_back({hub_sim.now().ns(), p.src, p.app.seq, p.size_bytes});
    });
    std::vector<std::unique_ptr<udp::UdpSocket>> tx;
    for (const net::NodeId leaf : leaves)
      tx.push_back(std::make_unique<udp::UdpSocket>(engine.node(leaf)));
    for (std::uint32_t round = 0; round < 40; ++round) {
      for (std::size_t l = 0; l < leaves.size(); ++l) {
        engine.sim_of(leaves[l]).at(
            Time::milliseconds(5 * (round + 1)),
            [&tx, &leaves, hub, l, round] {
              net::AppTag tag;
              tag.seq = round;
              tx[l]->send_to(hub, kPort, 100, tag);
            });
      }
    }
    engine.run_until(Time::seconds(1));
    return log;
  };

  const std::vector<Delivery> one = run(1, {});
  const std::vector<Delivery> two = run(2, {0, 1, 1, 0, 0});
  const std::vector<Delivery> four = run(4, {0, 1, 2, 3, 1});
  ASSERT_EQ(one.size(), 160u);
  EXPECT_EQ(two, one);
  EXPECT_EQ(four, one);
}

// A TCP download whose data and ACK segments cross shard boundaries on
// every round trip: transport counters must match the single-shard run
// exactly (loss recovery, RTT estimation and pacing all ride on delivery
// order).
TEST(ShardedEngine, TcpAcrossShardsInvariant) {
  struct Outcome {
    std::uint64_t bytes = 0;
    std::uint64_t segments = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t fired = 0;
    std::uint64_t peak = 0;
  };
  auto run = [](unsigned shards, std::vector<std::int32_t> pins) {
    ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.pin = std::move(pins);
    ShardedEngine engine(std::move(cfg));
    const net::NodeId a = engine.add_node("a");
    const net::NodeId r = engine.add_node("r");
    const net::NodeId b = engine.add_node("b");
    net::LinkSpec narrow = long_link();
    narrow.rate_bps = 2e6;  // force queueing + some loss at the relay
    narrow.buffer_packets = 16;
    engine.connect(a, r, long_link(), narrow);
    engine.connect(r, b, long_link(), long_link());
    engine.build();

    std::vector<std::shared_ptr<tcp::TcpSocket>> accepted;
    tcp::TcpServer server(engine.node(b), 80, {},
                          [&accepted](std::shared_ptr<tcp::TcpSocket> sock) {
                            sock->send(400'000);
                            accepted.push_back(std::move(sock));
                          });
    auto client = tcp::TcpSocket::connect(engine.node(a), b, 80);
    engine.run_until(Time::seconds(8));

    Outcome out;
    out.bytes = client->stats().bytes_received;
    out.segments = client->stats().segments_sent;
    out.retransmits = accepted.empty() ? 0 : accepted[0]->stats().retransmits;
    out.fired = engine.scheduler_stats().fired;
    out.peak = engine.scheduler_stats().peak_queue_depth;
    return out;
  };

  const Outcome one = run(1, {});
  const Outcome three = run(3, {0, 1, 2});
  EXPECT_GT(one.bytes, 100'000u);  // the download actually ran
  EXPECT_EQ(three.bytes, one.bytes);
  EXPECT_EQ(three.segments, one.segments);
  EXPECT_EQ(three.retransmits, one.retransmits);
  EXPECT_EQ(three.fired, one.fired);
  EXPECT_EQ(three.peak, one.peak);
}

// The access testbed's shape (core/testbed.cpp) on the engine: two
// servers on 20 ms host links into the DSLAM, the 100 us DSLAM/home-router
// DSL pair (one short-link cluster), and two clients on 5 ms links behind
// the home router. Every host link clears the 1 ms floor, so pins can
// move the hosts off the DSL cluster's shard and cut every host link. A
// bulk TCP download saturates the 16 Mbit/s DSL downlink (and loses
// packets to its small RED buffer), a bulk upload the 1 Mbit/s uplink,
// and a VoIP-like UDP probe rides the loaded downlink: every observable
// must match the single-shard run.
TEST(ShardedEngine, AccessTestbedShardInvariant) {
  struct Outcome {
    std::uint32_t shards = 0;
    std::size_t cut_links = 0;
    std::vector<Delivery> probe;
    std::vector<std::uint64_t> tcp;  ///< download + upload TcpStats fields
    Scheduler::Stats sched;
  };
  auto run = [](unsigned shards, std::vector<std::int32_t> pins) {
    ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.pin = std::move(pins);
    ShardedEngine engine(std::move(cfg));
    const net::NodeId dslam = engine.add_node("dslam");
    const net::NodeId home = engine.add_node("home-router");
    net::LinkSpec down;
    down.rate_bps = 16e6;
    down.delay = Time::microseconds(100);
    down.buffer_packets = 32;
    down.queue = net::QueueKind::kRed;
    net::LinkSpec up = down;
    up.rate_bps = 1e6;
    engine.connect(dslam, home, down, up);
    net::LinkSpec host;
    host.rate_bps = 1e9;
    host.delay = Time::milliseconds(20);
    host.buffer_packets = 1024;
    net::LinkSpec access = host;
    access.delay = Time::milliseconds(5);
    std::vector<net::NodeId> servers, clients;
    for (int i = 0; i < 2; ++i) {
      servers.push_back(engine.add_node("server" + std::to_string(i)));
      engine.connect(servers.back(), dslam, host, host);
      clients.push_back(engine.add_node("client" + std::to_string(i)));
      engine.connect(home, clients.back(), access, access);
    }
    engine.build();

    // Download server0 -> client0, upload client1 -> server1. Each accept
    // callback runs on its server's shard and writes only its own vector.
    std::vector<std::shared_ptr<tcp::TcpSocket>> down_acc, up_acc;
    tcp::TcpServer down_srv(engine.node(servers[0]), 80, {},
                            [&down_acc](std::shared_ptr<tcp::TcpSocket> s) {
                              s->send(20'000'000);
                              down_acc.push_back(std::move(s));
                            });
    tcp::TcpServer up_srv(engine.node(servers[1]), 80, {},
                          [&up_acc](std::shared_ptr<tcp::TcpSocket> s) {
                            up_acc.push_back(std::move(s));
                          });
    auto down_cli = tcp::TcpSocket::connect(engine.node(clients[0]),
                                            servers[0], 80);
    auto up_cli = tcp::TcpSocket::connect(engine.node(clients[1]),
                                          servers[1], 80);
    up_cli->send(1'000'000);

    // UDP probe server1 -> client1: 200 B every 20 ms.
    udp::UdpSocket probe_tx(engine.node(servers[1]));
    udp::UdpSocket probe_rx(engine.node(clients[1]), kPort);
    Outcome out;
    Simulation& rx_sim = engine.sim_of(clients[1]);
    probe_rx.set_receive([&out, &rx_sim](net::Packet&& p) {
      out.probe.push_back({rx_sim.now().ns(), p.src, p.app.seq, p.size_bytes});
    });
    const net::NodeId probe_dst = clients[1];
    for (std::uint32_t i = 0; i < 200; ++i) {
      engine.sim_of(servers[1]).at(
          Time::milliseconds(100 + 20 * i), [&probe_tx, probe_dst, i] {
            net::AppTag tag;
            tag.seq = i;
            probe_tx.send_to(probe_dst, kPort, 200, tag);
          });
    }
    engine.run_until(Time::seconds(5));

    out.shards = engine.shard_count();
    for (const auto& c : engine.topology().crossings())
      if (c.src_shard != c.dst_shard) ++out.cut_links;
    const tcp::TcpStats& dl = down_cli->stats();
    const tcp::TcpStats& ds = down_acc.at(0)->stats();
    const tcp::TcpStats& us = up_cli->stats();
    const tcp::TcpStats& ur = up_acc.at(0)->stats();
    out.tcp = {dl.bytes_received, dl.segments_sent,  ds.segments_sent,
               ds.retransmits,    ds.timeouts,       ds.tlp_probes,
               ds.bytes_acked,    us.bytes_acked,    us.segments_sent,
               us.retransmits,    ur.bytes_received, ur.segments_sent};
    out.sched = engine.scheduler_stats();
    return out;
  };

  // Nodes: dslam, home-router, server0, client0, server1, client1. The
  // DSL cluster sits off shard 0, so its RED lottery runs on a shard
  // Simulation other than the first one.
  const Outcome one = run(1, {});
  const Outcome two = run(2, {1, 1, 0, 0, 0, 0});
  const Outcome four = run(4, {1, 1, 2, 3, 0, 2});
  EXPECT_EQ(one.cut_links, 0u);
  EXPECT_EQ(two.shards, 2u);
  EXPECT_EQ(two.cut_links, 8u);  // all four host links, both directions
  EXPECT_EQ(four.shards, 4u);
  EXPECT_EQ(four.cut_links, 8u);

  EXPECT_EQ(one.probe.size(), 200u);  // the probe ran end to end
  EXPECT_GT(one.tcp[0], 1'000'000u);  // the download moved real data
  EXPECT_GT(one.tcp[3], 0u);          // ...and lost some at the DSL queue
  for (const Outcome* o : {&two, &four}) {
    EXPECT_EQ(o->probe, one.probe) << o->shards << " shards";
    EXPECT_EQ(o->tcp, one.tcp) << o->shards << " shards";
    EXPECT_EQ(o->sched.fired, one.sched.fired);
    EXPECT_EQ(o->sched.scheduled, one.sched.scheduled);
    EXPECT_EQ(o->sched.cancelled, one.sched.cancelled);
    EXPECT_EQ(o->sched.rescheduled, one.sched.rescheduled);
    EXPECT_EQ(o->sched.peak_queue_depth, one.sched.peak_queue_depth);
  }
}

TEST(ShardedEngine, ValidatesConfiguration) {
  ShardedEngine::Config no_shards;
  no_shards.shards = 0;
  EXPECT_THROW((void)ShardedEngine(no_shards), std::invalid_argument);
  ShardedEngine::Config zero_floor;
  zero_floor.lookahead_floor = Time::zero();
  EXPECT_THROW((void)ShardedEngine(zero_floor), std::invalid_argument);

  ShardedEngine::Config cfg;
  cfg.shards = 2;
  ShardedEngine engine(std::move(cfg));
  const net::NodeId a = engine.add_node("a");
  const net::NodeId b = engine.add_node("b");
  engine.connect(a, b, long_link(), long_link());
  EXPECT_THROW(engine.run_until(Time::seconds(1)), std::logic_error);
  engine.build();
  EXPECT_THROW(engine.build(), std::logic_error);
  EXPECT_THROW(engine.add_node("late"), std::logic_error);
  EXPECT_EQ(engine.quantum(), kDelay);
  EXPECT_EQ(engine.shard_count(), 2u);
}

TEST(ShardedEngine, ShortLinkClusterNeverSplits) {
  ShardedEngine::Config cfg;
  cfg.shards = 4;
  ShardedEngine engine(std::move(cfg));
  const net::NodeId a = engine.add_node("a");
  const net::NodeId b = engine.add_node("b");
  net::LinkSpec lan = long_link();
  lan.delay = Time::microseconds(50);  // below the floor: ineligible
  engine.connect(a, b, lan, lan);
  engine.build();
  EXPECT_EQ(engine.shard_count(), 1u);  // one cluster, however many requested
  EXPECT_EQ(engine.quantum(), Time::max());

  // Pinning the two halves of a short-link cluster apart is a contract
  // violation the partitioner must reject.
  ShardedEngine::Config conflicted;
  conflicted.shards = 2;
  conflicted.pin = {0, 1};
  ShardedEngine bad(std::move(conflicted));
  const net::NodeId x = bad.add_node("x");
  const net::NodeId y = bad.add_node("y");
  bad.connect(x, y, lan, lan);
  EXPECT_THROW(bad.build(), std::invalid_argument);
}

}  // namespace
}  // namespace qoesim::core
