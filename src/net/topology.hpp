// qoesim -- topology builder.
//
// Owns nodes and links, wires link sinks to peer nodes, and computes static
// shortest-path routes (BFS on hop count, deterministic tie-breaking).
// One class serves both construction paths:
//
//   * incremental, on one Simulation: add_node / connect, then
//     compute_routes. The experiment testbeds (core/testbed.cpp) and the
//     micro benches build this way.
//   * from a ShardedTopologySpec across one Simulation per shard (the
//     conservative-PDES engine, core/sharded_engine.hpp): the spec's nodes
//     and declarations replay through the same add_node / connect path,
//     then every crossing-eligible link gets mailbox delivery.
//
// Both paths share one make_link, so the per-link queue seed (keyed on the
// global link index) and the global routes are the same at every shard
// count -- a packet's path and a RED link's drop lottery never depend on
// the shard assignment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/mailbox.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"

namespace qoesim::net {

/// One direction of a connection.
struct LinkSpec {
  double rate_bps = 1e9;
  Time delay = Time::zero();
  std::size_t buffer_packets = 1000;
  QueueKind queue = QueueKind::kDropTail;
  /// Enable ECN CE-marking on the queue discipline (AQM schemes only;
  /// see QueueDiscipline::set_ecn_marking).
  bool ecn = false;
  std::string name;  ///< optional; auto-derived if empty
};

/// Declarative description of a shardable topology: nodes and duplex
/// connections, recorded before any engine object exists so the
/// partitioner can cut the graph first. Construction order is the
/// determinism anchor -- node ids, global link indices (and with them
/// per-link queue seeds), and crossing indices all follow it, at every
/// shard count.
struct ShardedTopologySpec {
  struct Decl {
    NodeId a = 0;
    NodeId b = 0;
    LinkSpec ab;
    LinkSpec ba;
  };

  std::vector<std::string> node_names;
  std::vector<Decl> decls;
  /// Links whose min-direction delay clears this floor use mailbox
  /// delivery (and are the only links a shard boundary may cut). Must
  /// match the floor the partitioner ran with.
  Time lookahead_floor = Time::milliseconds(1);
};

class Topology {
 public:
  /// One mailbox link of a spec-built topology. `channel` index into
  /// crossings() is the global merge tie-break key; inbound lists group
  /// crossings by dst_shard for the barrier drain.
  struct Crossing {
    std::unique_ptr<ShardMailbox> outbox;
    std::unique_ptr<MailboxInbox> inbox;
    std::uint32_t src_shard = 0;
    std::uint32_t dst_shard = 0;
    Link* link = nullptr;
  };

  /// Incremental build on one Simulation. `node_stats` (optional) is the
  /// accumulator every node created by this topology folds its lifetime
  /// counters into on destruction; benches pass one down (via
  /// core::StatsRegistry) so the harness can assert the zero-blackhole
  /// invariant across a whole sweep.
  explicit Topology(Simulation& sim, Node::StatsFold* node_stats = nullptr)
      : sims_{&sim}, node_stats_(node_stats), inbound_(1) {}

  /// Build `spec` across `sims`, one Simulation per shard (all sharing the
  /// master seed, so rng(label) streams are partition-invariant);
  /// `shard_of` maps every spec node to a shard. Every crossing-eligible
  /// link (delay >= floor, decided by delay alone so the event schedule
  /// is shard-count-invariant) gets a ShardMailbox on its tx side paired
  /// with a MailboxInbox on its destination shard, whether or not the
  /// assignment actually separates its endpoints. Throws
  /// std::invalid_argument if a short link's endpoints are assigned to
  /// different shards.
  Topology(const ShardedTopologySpec& spec,
           const std::vector<std::uint32_t>& shard_of,
           std::vector<Simulation*> sims,
           Node::StatsFold* node_stats = nullptr);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Add a node on the first (for an incremental build, the only) shard.
  Node& add_node(const std::string& name) { return add_node_on(0, name); }

  struct LinkPair {
    Link* forward = nullptr;   ///< a -> b
    Link* backward = nullptr;  ///< b -> a
  };

  /// Create a duplex connection between two nodes.
  LinkPair connect(Node& a, Node& b, LinkSpec a_to_b, LinkSpec b_to_a);

  /// Compute next-hop tables for all node pairs (call after wiring).
  void compute_routes();

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }
  Simulation& sim_of(NodeId id) { return *sims_.at(shard_of_.at(id)); }
  std::uint32_t shard_of(NodeId id) const { return shard_of_.at(id); }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(sims_.size());
  }

  /// The two directed links of connection `decl` (forward = a->b), in
  /// connect() order.
  Link* link(std::size_t decl, bool forward) {
    return links_.at(decl * 2 + (forward ? 0 : 1)).get();
  }

  /// Mailbox links, empty for an incremental build.
  const std::vector<Crossing>& crossings() const { return crossings_; }
  /// Crossing indices whose destination is shard `s`, in channel order.
  const std::vector<std::uint32_t>& inbound(std::uint32_t s) const {
    return inbound_.at(s);
  }

  /// Sum of all live nodes' forwarding/demux counters. A healthy topology
  /// finishes a run with undelivered == unrouted == 0; anything else means
  /// packets were silently blackholed (misroute or missing handler).
  Node::Stats node_stats() const;

 private:
  Node& add_node_on(std::uint32_t shard, const std::string& name);
  Link* make_link(Node& from, Node& to, const LinkSpec& spec);

  std::vector<Simulation*> sims_;
  std::vector<std::uint32_t> shard_of_;
  Node::StatsFold* node_stats_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  // adjacency[from] = list of (neighbor, port index on `from`)
  std::vector<std::vector<std::pair<NodeId, std::size_t>>> adjacency_;
  std::vector<Crossing> crossings_;
  std::vector<std::vector<std::uint32_t>> inbound_;
};

/// Former name of the multi-shard builder, kept for callers that still
/// spell it (perfbench's PDES workload).
using ShardedTopology = Topology;

}  // namespace qoesim::net
