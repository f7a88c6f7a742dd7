// qoebench workloads: the fixed work each benchmark run repeats.
//
// Grid workloads (access_sweep, backbone_web, access_aqm) are lists of
// cells run through core::SweepRunner with `jobs` closed-loop workers. The
// untraced path calls core::ExperimentRunner exactly as the figure benches
// do; the traced path re-composes each cell from the same public calls
// (Testbed, Workload, probe apps, run_until, LinkMonitor, QoE scoring)
// with spans around each call, and must produce the same digest.
// pdes_ring is one 8-pod scenario on core::ShardedEngine; every traced
// run measures the sharded-engine layer on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "trace.hpp"

namespace qoebench {

enum class Probe { kQos, kVoip, kWeb };

struct CellSpec {
  qoesim::core::ScenarioConfig cfg;
  Probe probe = Probe::kQos;
};

/// Per-cell counters. The scheduler, node and app counts are exact and
/// come from both paths; the rest are read only by the traced path.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rescheduled = 0;
  std::uint64_t peak_depth = 0;  ///< max over cells

  std::uint64_t delivered = 0;
  std::uint64_t undelivered = 0;
  std::uint64_t unrouted = 0;
  std::uint64_t stray_late = 0;
  std::uint64_t binds = 0;
  std::uint64_t demux_rehashes = 0;
  std::uint64_t flows_opened = 0;
  std::uint64_t flow_peak_live = 0;  ///< max over cells
  std::uint64_t flow_hot_bytes = 0;  ///< max over cells
  std::uint64_t flow_cold_allocs = 0;

  std::uint64_t voip_calls = 0;
  std::uint64_t web_loads = 0;
  std::uint64_t probe_retransmits = 0;
  std::uint64_t probe_timeouts = 0;
  std::uint64_t score_calls = 0;

  // Traced path only.
  std::uint64_t measure_events = 0;  ///< events fired after warm-up
  std::uint64_t measure_allocs = 0;  ///< heap allocations after warm-up
  std::uint64_t tx_packets = 0;      ///< all links, whole run
  std::uint64_t queue_offered = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t queue_marked = 0;
  std::uint64_t queue_peak = 0;  ///< max over links and cells
  std::uint64_t slab_growths = 0;  ///< measurement window
  std::uint64_t demux_entries = 0;
  double demux_probe_sum = 0.0;  ///< probe length summed over entries
  std::uint64_t mailbox_packets = 0;

  void add(const Counters& o);
};

struct CellResult {
  std::uint64_t digest = 0;
  double host_s = 0.0;  ///< set-up + run + scoring + teardown
  double sim_s = 0.0;   ///< simulated seconds the cell ran
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::size_t thread = 0;  ///< hash of the worker thread id
  std::string failure;     ///< empty when every check passed
  Counters counters;
  std::vector<Span> spans;  ///< traced path only
};

/// PDES-only figures of one pdes_ring run.
struct PdesStats {
  std::uint32_t shards = 0;
  std::uint64_t epochs = 0;
  std::uint64_t cut_links = 0;
  std::vector<std::uint64_t> shard_events;
  double run_wall_s = 0.0;  ///< host seconds inside run_until
  double run_cpu_s = 0.0;   ///< process CPU seconds inside run_until
};

struct RepResult {
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  std::vector<CellResult> cells;
  PdesStats pdes;
};

struct Workload {
  std::string name;
  unsigned jobs = 1;
  qoesim::core::ProbeBudget budget;
  std::vector<CellSpec> cells;  ///< empty for pdes_ring
  unsigned shards = 0;          ///< pdes_ring only
  std::uint64_t seed = 1;
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// One pass over the workload's fixed work. `shards` overrides the
/// pdes_ring shard count (the 1-shard reference run); 0 keeps it.
RepResult run_rep(const Workload& w, bool traced, unsigned shards = 0);

/// Host seconds to construct every cell's testbed, background workload
/// and probe apps (or the ShardedEngine and its traffic), without running.
double measure_setup(const Workload& w);

}  // namespace qoebench
