#include "net/topology.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

namespace qoesim::net {

Topology::Topology(const ShardedTopologySpec& spec,
                   const std::vector<std::uint32_t>& shard_of,
                   std::vector<Simulation*> sims, Node::StatsFold* node_stats)
    : sims_(std::move(sims)), node_stats_(node_stats) {
  if (shard_of.size() != spec.node_names.size()) {
    throw std::invalid_argument("Topology: shard_of size mismatch");
  }
  // Nodes, in declaration order: global ids, per-shard Simulations. The
  // per-scheduler construction-time sequence allocations that follow
  // (flow binds, app timers) then happen in one global order regardless
  // of the shard count.
  for (std::size_t i = 0; i < spec.node_names.size(); ++i) {
    if (shard_of[i] >= sims_.size()) {
      throw std::invalid_argument("Topology: shard id out of range");
    }
    add_node_on(shard_of[i], spec.node_names[i]);
  }

  // Mailbox discipline is a property of the declaration's delays alone
  // (both directions must clear the floor), exactly mirroring the
  // partitioner's crossing-eligibility rule -- never of whether this
  // particular assignment separates the endpoints. That keeps the event
  // schedule invariant across shard counts.
  auto mailboxed = [&spec](const ShardedTopologySpec::Decl& d) {
    return std::min(d.ab.delay, d.ba.delay) >= spec.lookahead_floor;
  };
  for (const ShardedTopologySpec::Decl& d : spec.decls) {
    if (d.a >= nodes_.size() || d.b >= nodes_.size()) {
      throw std::invalid_argument("Topology: decl endpoint unknown");
    }
    if (!mailboxed(d) && shard_of_[d.a] != shard_of_[d.b]) {
      throw std::invalid_argument(
          "Topology: short link crosses a shard boundary (partition bug or "
          "hand-rolled shard_of)");
    }
    connect(*nodes_[d.a], *nodes_[d.b], d.ab, d.ba);
  }

  // Crossings in link order (each declaration's forward, then backward
  // direction): the crossing index is the drain's merge channel.
  inbound_.resize(sims_.size());
  auto add_crossing = [this](Link* link, NodeId from, NodeId to) {
    Crossing crossing;
    crossing.outbox = std::make_unique<ShardMailbox>();
    crossing.inbox = std::make_unique<MailboxInbox>(sim_of(to), node(to));
    crossing.src_shard = shard_of_[from];
    crossing.dst_shard = shard_of_[to];
    crossing.link = link;
    link->set_mailbox(crossing.outbox.get());
    inbound_[crossing.dst_shard].push_back(
        static_cast<std::uint32_t>(crossings_.size()));
    crossings_.push_back(std::move(crossing));
  };
  for (std::size_t i = 0; i < spec.decls.size(); ++i) {
    const ShardedTopologySpec::Decl& d = spec.decls[i];
    if (!mailboxed(d)) continue;
    add_crossing(link(i, true), d.a, d.b);
    add_crossing(link(i, false), d.b, d.a);
  }
}

Node& Topology::add_node_on(std::uint32_t shard, const std::string& name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*sims_[shard], id, name));
  nodes_.back()->set_stats_fold(node_stats_);
  shard_of_.push_back(shard);
  adjacency_.emplace_back();
  return *nodes_.back();
}

Link* Topology::make_link(Node& from, Node& to, const LinkSpec& spec) {
  std::string name = spec.name.empty()
                         ? from.name() + "->" + to.name()
                         : spec.name;
  // Per-link queue seed derived from the scenario seed: RED instances in
  // different sweep cells (and on different links of one topology) must
  // not share one drop lottery. The global link index salts duplicate
  // names, so a RED lottery on link k draws the same stream at every
  // shard count (all shard Simulations share the master seed).
  Simulation& sim = from.sim();
  const std::uint64_t queue_seed = RandomStream::derive_seed(
      sim.seed(), "queue/" + std::to_string(links_.size()) + "/" + name);
  auto queue = make_queue(spec.queue, spec.buffer_packets, queue_seed);
  queue->set_ecn_marking(spec.ecn);
  links_.push_back(std::make_unique<Link>(sim, std::move(name), spec.rate_bps,
                                          spec.delay, std::move(queue)));
  Link* link = links_.back().get();
  Node* dest = &to;
  link->set_sink([dest](Packet&& p) { dest->receive(std::move(p)); });
  const std::size_t port = from.add_port(link);
  adjacency_[from.id()].emplace_back(to.id(), port);
  return link;
}

Topology::LinkPair Topology::connect(Node& a, Node& b, LinkSpec a_to_b,
                                     LinkSpec b_to_a) {
  LinkPair pair;
  pair.forward = make_link(a, b, a_to_b);
  pair.backward = make_link(b, a, b_to_a);
  return pair;
}

Node::Stats Topology::node_stats() const {
  Node::Stats total;
  for (const auto& node : nodes_) total += node->stats();
  return total;
}

void Topology::compute_routes() {
  // BFS on hop count from every source. Reversed-edge BFS per destination
  // would be cheaper, but n is tiny (testbeds have ~12 nodes). Ties break
  // deterministically: neighbors expand in adjacency (= link construction)
  // order, which a spec build replays identically at every shard count.
  const std::size_t n = nodes_.size();
  for (NodeId src = 0; src < n; ++src) {
    std::vector<std::size_t> dist(n, std::numeric_limits<std::size_t>::max());
    std::vector<std::ptrdiff_t> first_port(n, -1);
    std::deque<NodeId> frontier;
    dist[src] = 0;
    frontier.push_back(src);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (const auto& [v, port] : adjacency_[u]) {
        if (dist[v] != std::numeric_limits<std::size_t>::max()) continue;
        dist[v] = dist[u] + 1;
        first_port[v] = u == src ? static_cast<std::ptrdiff_t>(port)
                                 : first_port[u];
        frontier.push_back(v);
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst != src && first_port[dst] >= 0) {
        nodes_[src]->set_next_hop(dst,
                                  static_cast<std::size_t>(first_port[dst]));
      }
    }
  }
}

}  // namespace qoesim::net
