// qoesim -- scenario catalogs: the paper's testbeds (Fig. 3), workloads
// (Table 1) and buffer configurations (Table 2) as data.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/time.hpp"
#include "tcp/congestion_control.hpp"

namespace qoesim::core {

enum class TestbedType { kAccess, kBackbone };

/// Workload names from Table 1. The short-* access and backbone scenarios
/// differ in session counts and inter-arrival means, so they are distinct
/// enumerators even where names overlap.
enum class WorkloadType {
  kNoBg,
  // Access testbed.
  kShortFew,
  kShortMany,
  kLongFew,
  kLongMany,
  // Backbone testbed.
  kShortLow,
  kShortMedium,
  kShortHigh,
  kShortOverload,
  kLong,
};

/// Which access-testbed links the background traffic congests (§5.2: 12
/// access scenarios = 4 workloads x 3 directions). Ignored for backbone.
enum class CongestionDirection { kDownstream, kUpstream, kBidirectional };

const char* to_string(TestbedType t);
const char* to_string(WorkloadType w);
const char* to_string(CongestionDirection d);

/// Physical constants of the two testbeds (§5.1).
struct AccessParams {
  double downlink_bps = 16e6;  ///< DSLAM -> home (16 Mbit/s DSL)
  double uplink_bps = 1e6;     ///< home -> DSLAM (1 Mbit/s)
  Time client_side_delay = Time::milliseconds(5);   ///< DSL interleaving
  Time server_side_delay = Time::milliseconds(20);  ///< access + backbone
  double host_link_bps = 1e9;
  std::size_t host_buffer_packets = 4096;
};

struct BackboneParams {
  /// OC3 payload rate: 749 full-sized packets at RTT 60 ms == BDP
  /// (Table 2), i.e. 749*1500*8/0.06 bit/s.
  double bottleneck_bps = 149.8e6;
  Time one_way_delay = Time::milliseconds(30);  ///< NetPath delay box
  double host_link_bps = 1e9;
  std::size_t host_buffer_packets = 16384;
  std::size_t hosts_per_side = 4;
};

/// Buffer catalogs from Table 2.
std::vector<std::size_t> access_buffer_sizes();    // 8..256 packets
std::vector<std::size_t> backbone_buffer_sizes();  // 8, 28, 749, 7490

/// Table 2 sizing-scheme labels ("~BDP", "Stanford", "10xBDP", ...).
std::string buffer_scheme_label(TestbedType testbed, std::size_t packets,
                                bool uplink);

/// Maximum queueing delay of a buffer of `packets` full-sized packets
/// drained at `rate_bps` (the Table 2 delay columns).
Time buffer_drain_delay(std::size_t packets, double rate_bps,
                        std::uint32_t packet_bytes = net::kMtuBytes);

/// Workload catalogs per testbed (excluding noBG for iteration, which is
/// prepended by the experiment figures as a baseline row).
std::vector<WorkloadType> access_workloads();
std::vector<WorkloadType> backbone_workloads();

/// Table 1 session/flow counts for a workload, resolved per direction.
struct WorkloadSpec {
  bool harpoon = false;          ///< short-* : session-based generator
  std::size_t sessions_up = 0;   ///< client->server sessions (access)
  std::size_t sessions_down = 0; ///< server->client sessions
  std::size_t flows_up = 0;      ///< long-lived upstream flows
  std::size_t flows_down = 0;    ///< long-lived downstream flows
  double interarrival_mean_s = 2.0;  ///< exp-a (access) / exp-b (backbone)
  /// Harpoon sessions issue requests from several parallel source threads
  /// (browser-like). Calibrated so the per-session offered load reproduces
  /// Table 1's measured utilizations (~0.8 Mbit/s per session: access
  /// 4 x exp(2 s), backbone 2 x exp(1 s), each x 50 KB mean files).
  std::size_t parallel_streams = 1;
};

WorkloadSpec workload_spec(TestbedType testbed, WorkloadType workload,
                           CongestionDirection direction);

/// A fully specified experimental cell.
struct ScenarioConfig {
  TestbedType testbed = TestbedType::kAccess;
  WorkloadType workload = WorkloadType::kNoBg;
  CongestionDirection direction = CongestionDirection::kDownstream;
  /// Bottleneck buffer size in packets (both directions on the access
  /// testbed, as in the paper's x-axes).
  std::size_t buffer_packets = 64;
  net::QueueKind queue = net::QueueKind::kDropTail;
  /// Congestion control of the background traffic (§5.2: Reno on the
  /// backbone hosts, BIC/CUBIC on the access hosts).
  tcp::CcKind tcp_cc = tcp::CcKind::kCubic;
  /// End-to-end ECN (counterfactual ablation; the paper's testbeds ran
  /// without it): the bottleneck AQM CE-marks instead of dropping, and
  /// all TCP endpoints (background + probes) negotiate ECN. No effect
  /// with drop-tail bottlenecks or UDP probes.
  bool ecn = false;
  std::uint64_t seed = 1;

  AccessParams access;
  BackboneParams backbone;

  std::string label() const;
};

/// Default per-testbed congestion control, as in the paper.
tcp::CcKind default_cc(TestbedType testbed);

}  // namespace qoesim::core
