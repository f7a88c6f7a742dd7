#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <ctime>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "alloc_count.hpp"
#include "apps/voip.hpp"
#include "apps/web.hpp"
#include "core/sharded_engine.hpp"
#include "core/stats_registry.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"
#include "core/workloads.hpp"
#include "net/monitors.hpp"
#include "qoe/g1030.hpp"
#include "qoe/pesq.hpp"
#include "qoe/voip_qoe.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"

namespace qoebench {

using namespace qoesim;
using core::CongestionDirection;
using core::TestbedType;
using core::WorkloadType;

void Counters::add(const Counters& o) {
  events += o.events;
  scheduled += o.scheduled;
  cancelled += o.cancelled;
  rescheduled += o.rescheduled;
  peak_depth = std::max(peak_depth, o.peak_depth);
  delivered += o.delivered;
  undelivered += o.undelivered;
  unrouted += o.unrouted;
  stray_late += o.stray_late;
  binds += o.binds;
  demux_rehashes += o.demux_rehashes;
  flows_opened += o.flows_opened;
  flow_peak_live = std::max(flow_peak_live, o.flow_peak_live);
  flow_hot_bytes = std::max(flow_hot_bytes, o.flow_hot_bytes);
  flow_cold_allocs += o.flow_cold_allocs;
  voip_calls += o.voip_calls;
  web_loads += o.web_loads;
  probe_retransmits += o.probe_retransmits;
  probe_timeouts += o.probe_timeouts;
  score_calls += o.score_calls;
  measure_events += o.measure_events;
  measure_allocs += o.measure_allocs;
  tx_packets += o.tx_packets;
  queue_offered += o.queue_offered;
  queue_dropped += o.queue_dropped;
  queue_marked += o.queue_marked;
  queue_peak = std::max(queue_peak, o.queue_peak);
  slab_growths += o.slab_growths;
  demux_entries += o.demux_entries;
  demux_probe_sum += o.demux_probe_sum;
  mailbox_packets += o.mailbox_packets;
}

namespace {

// ------------------------------------------------------------ digest

/// FNV-1a over the bit patterns of a cell's result fields: any change in
/// any simulated outcome changes the digest.
class Hasher {
 public:
  void raw(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= bytes[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void samples(const stats::Samples& s) {
    u64(s.count());
    for (double v : s.values()) f64(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t digest(const core::QosCell& c) {
  Hasher h;
  h.u64(0);
  for (double v : {c.mean_delay_down_ms, c.mean_delay_up_ms, c.util_down_mean,
                   c.util_down_sd, c.util_up_mean, c.util_up_sd, c.loss_down,
                   c.loss_up, c.mark_down, c.mark_up, c.concurrent_flows})
    h.f64(v);
  h.samples(c.util_down_bins);
  h.samples(c.util_up_bins);
  return h.value();
}

std::uint64_t digest(const core::VoipCell& c) {
  Hasher h;
  h.u64(1);
  for (const stats::Samples* s : {&c.mos_talks, &c.mos_listens, &c.loss_talks,
                                  &c.loss_listens, &c.delay_talks_ms,
                                  &c.delay_listens_ms})
    h.samples(*s);
  return h.value();
}

std::uint64_t digest(const core::WebCell& c) {
  Hasher h;
  h.u64(2);
  h.samples(c.plt_s);
  h.samples(c.mos);
  h.samples(c.retransmits);
  h.u64(static_cast<std::uint64_t>(c.timeouts));
  return h.value();
}

// ------------------------------------------------------------ validity

bool in_range(double v, double lo, double hi) {
  return std::isfinite(v) && v >= lo && v <= hi;
}

// Per-second utilization bins may exceed 1 by the one packet whose
// serialization straddles a bin edge.
constexpr double kMaxUtil = 1.05;

std::string check(const stats::Samples& s, double lo, double hi,
                  const char* what) {
  for (double v : s.values())
    if (!in_range(v, lo, hi)) return std::string(what) + " out of range";
  return {};
}

std::string validate(const core::QosCell& c) {
  for (double u : {c.util_down_mean, c.util_up_mean})
    if (!in_range(u, 0.0, kMaxUtil)) return "utilization out of range";
  for (double f : {c.loss_down, c.loss_up, c.mark_down, c.mark_up})
    if (!in_range(f, 0.0, 1.0)) return "loss/mark fraction out of range";
  for (double d : {c.mean_delay_down_ms, c.mean_delay_up_ms})
    if (!in_range(d, 0.0, 1e6)) return "queue delay out of range";
  if (c.util_down_bins.empty()) return "no utilization bins";
  std::string why = check(c.util_down_bins, 0.0, kMaxUtil, "utilization bin");
  if (why.empty()) why = check(c.util_up_bins, 0.0, kMaxUtil, "utilization bin");
  return why;
}

std::string validate(const core::VoipCell& c, int calls) {
  if (c.mos_listens.count() != static_cast<std::size_t>(calls) ||
      c.mos_talks.count() != static_cast<std::size_t>(calls))
    return "missing VoIP calls";
  std::string why = check(c.mos_listens, 1.0, 5.0, "VoIP MOS");
  if (why.empty()) why = check(c.mos_talks, 1.0, 5.0, "VoIP MOS");
  if (why.empty()) why = check(c.loss_listens, 0.0, 1.0, "VoIP loss");
  if (why.empty()) why = check(c.loss_talks, 0.0, 1.0, "VoIP loss");
  return why;
}

std::string validate(const core::WebCell& c, const core::ProbeBudget& b) {
  if (c.plt_s.count() != static_cast<std::size_t>(b.web_loads))
    return "missing web page loads";
  std::string why = check(c.plt_s, 1e-9, b.web_timeout.sec(), "PLT");
  if (why.empty()) why = check(c.mos, 1.0, 5.0, "web MOS");
  return why;
}

// ------------------------------------------------------------ sim time

// Simulated seconds of each cell type, derived from the budget and the
// cell result exactly as ExperimentRunner advances its clock. The traced
// path compares these against the clock it observes.

Time qos_end(const core::ProbeBudget& b) { return b.warmup + b.qos_duration; }

Time voip_end(const core::ProbeBudget& b) {
  const apps::VoipConfig voip;
  const Time per_call = voip.duration + b.probe_gap +
                        voip.jitter_buffer * 2.0 + Time::seconds(1);
  Time last_end = b.warmup;
  for (int i = 0; i < b.voip_calls; ++i) {
    const Time start = b.warmup + per_call * static_cast<double>(i);
    last_end = std::max(last_end, start + voip.duration +
                                      voip.jitter_buffer * 2.0 +
                                      Time::seconds(1));
  }
  return last_end + Time::seconds(1);
}

Time web_horizon(const core::ProbeBudget& b) {
  return b.warmup +
         (b.web_timeout + b.probe_gap) * static_cast<double>(b.web_loads) +
         Time::seconds(5);
}

/// run_web steps the clock in whole seconds until the last load is
/// recorded; loads run back to back, `probe_gap` apart.
Time web_end(const core::ProbeBudget& b, const core::WebCell& c) {
  double done = b.warmup.sec();
  for (double plt : c.plt_s.values()) done += plt;
  done += b.probe_gap.sec() * static_cast<double>(c.plt_s.count() - 1);
  return std::min(web_horizon(b), Time::seconds(std::ceil(done - 1e-9)));
}

// ------------------------------------------------------------ counters

void read_registry(const core::StatsRegistry& reg, Counters& c) {
  const Scheduler::Stats s = reg.scheduler.snapshot();
  c.events = s.fired;
  c.scheduled = s.scheduled;
  c.cancelled = s.cancelled;
  c.rescheduled = s.rescheduled;
  c.peak_depth = s.peak_queue_depth;
  const net::Node::Stats n = reg.nodes.snapshot();
  c.delivered = n.delivered;
  c.undelivered = n.undelivered;
  c.unrouted = n.unrouted;
  c.stray_late = n.stray_late;
  c.binds = n.binds;
  c.demux_rehashes = n.demux_rehashes;
  c.flows_opened = n.flows_opened;
  c.flow_peak_live = n.flow_peak_live;
  c.flow_hot_bytes = n.flow_hot_bytes;
  c.flow_cold_allocs = n.flow_cold_allocs;
}

void count_probes(const core::VoipCell& cell, Counters& c) {
  c.voip_calls = cell.mos_listens.count() + cell.mos_talks.count();
  c.score_calls = c.voip_calls;
}

void count_probes(const core::WebCell& cell, Counters& c) {
  c.web_loads = cell.plt_s.count();
  c.score_calls = c.web_loads;
  double rtx = 0.0;
  for (double r : cell.retransmits.values()) rtx += r;
  c.probe_retransmits = static_cast<std::uint64_t>(rtx);
  c.probe_timeouts = static_cast<std::uint64_t>(cell.timeouts);
}

/// A cell fails if it threw, blackholed packets, or broke a range check.
void finish_checks(CellResult& r) {
  if (r.failure.empty() &&
      (r.counters.undelivered != 0 || r.counters.unrouted != 0))
    r.failure = "blackholed packets (undelivered/unrouted > 0)";
}

/// Tx observers on every link of a topology plus the queue and pool
/// counters behind them. Each link's counter is written only by the
/// thread that owns the link.
class LinkTap {
 public:
  template <typename Topo>
  explicit LinkTap(Topo& topo) {
    for (std::size_t id = 0; id < topo.node_count(); ++id) {
      net::Node& node = topo.node(static_cast<net::NodeId>(id));
      for (std::size_t p = 0; p < node.port_count(); ++p)
        links_.push_back(node.port_link(p));
    }
    tx_.assign(links_.size(), 0);
    for (std::size_t i = 0; i < links_.size(); ++i) {
      std::uint64_t* counter = &tx_[i];
      links_[i]->add_tx_observer(
          [counter](const net::Packet&, Time) { ++*counter; });
    }
  }

  std::uint64_t slab_growths() const {
    std::uint64_t n = 0;
    for (const net::Link* l : links_) n += l->pool_stats().slab_growths;
    return n;
  }

  std::uint64_t tx_on(const std::unordered_set<const net::Link*>& set) const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < links_.size(); ++i)
      if (set.count(links_[i]) != 0) n += tx_[i];
    return n;
  }

  /// Adds the link/queue counters to `c`; returns a failure message if a
  /// queue does not conserve packets (offered = dequeued + dropped +
  /// resident, which holds for tail and dequeue-time drops alike).
  std::string read(Counters& c) const {
    std::string why;
    for (std::size_t i = 0; i < links_.size(); ++i) {
      const net::QueueDiscipline& q = links_[i]->queue();
      const net::QueueStats& s = q.stats();
      c.tx_packets += tx_[i];
      c.queue_offered += s.offered;
      c.queue_dropped += s.dropped;
      c.queue_marked += s.marked;
      c.queue_peak = std::max(c.queue_peak, s.max_packets_seen);
      if (s.offered != s.dequeued + s.dropped + q.packet_count())
        why = "queue conservation broken on " + links_[i]->name();
    }
    return why;
  }

 private:
  std::vector<net::Link*> links_;
  std::vector<std::uint64_t> tx_;
};

template <typename Topo>
void read_demux(Topo& topo, Counters& c) {
  for (std::size_t id = 0; id < topo.node_count(); ++id) {
    const auto ps = topo.node(static_cast<net::NodeId>(id)).demux_probe_stats();
    c.demux_entries += ps.entries;
    c.demux_probe_sum += ps.mean_len * static_cast<double>(ps.entries);
  }
}

/// Warm-up then measurement window; allocations and events are counted
/// in the measurement window only.
void run_phases(SpanLog& log, Simulation& sim, const LinkTap& tap,
                Time warmup_end, Time end, Counters& c) {
  {
    const Scoped span(log, "sim.warmup");
    sim.run_until(warmup_end);
  }
  const std::uint64_t fired0 = sim.scheduler().stats().fired;
  const std::uint64_t slabs0 = tap.slab_growths();
  {
    const Scoped span(log, "sim.measure");
    alloc::begin_thread_window();
    sim.run_until(end);
    c.measure_allocs = alloc::end_thread_window();
  }
  c.measure_events = sim.scheduler().stats().fired - fired0;
  c.slab_growths = tap.slab_growths() - slabs0;
}

// ------------------------------------------------------------ grid cells

CellResult untraced_cell(const CellSpec& spec, const core::ProbeBudget& b) {
  CellResult r;
  core::StatsRegistry reg;
  const core::ExperimentRunner runner(b, &reg);
  r.start_ns = now_ns();
  try {
    switch (spec.probe) {
      case Probe::kQos: {
        const core::QosCell cell = runner.run_qos(spec.cfg);
        r.end_ns = now_ns();
        r.digest = digest(cell);
        r.failure = validate(cell);
        r.sim_s = qos_end(b).sec();
        break;
      }
      case Probe::kVoip: {
        const core::VoipCell cell = runner.run_voip(spec.cfg, true);
        r.end_ns = now_ns();
        r.digest = digest(cell);
        r.failure = validate(cell, b.voip_calls);
        r.sim_s = voip_end(b).sec();
        count_probes(cell, r.counters);
        break;
      }
      case Probe::kWeb: {
        const core::WebCell cell = runner.run_web(spec.cfg);
        r.end_ns = now_ns();
        r.digest = digest(cell);
        r.failure = validate(cell, b);
        r.sim_s = web_end(b, cell).sec();
        count_probes(cell, r.counters);
        break;
      }
    }
  } catch (const std::exception& e) {
    r.end_ns = now_ns();
    r.failure = std::string("threw: ") + e.what();
  }
  r.host_s = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  read_registry(reg, r.counters);
  finish_checks(r);
  return r;
}

// The traced cells below repeat ExperimentRunner::run_qos / run_voip /
// run_web call for call (core/experiment.cpp), adding spans, link taps and
// allocation windows. Any divergence shows up as a digest mismatch.

void traced_qos(const CellSpec& spec, const core::ProbeBudget& b,
                SpanLog& log, CellResult& r, core::StatsRegistry& reg) {
  std::size_t s = log.begin("testbed.build");
  auto testbed = std::make_unique<core::Testbed>(spec.cfg, &reg);
  log.end(s);
  s = log.begin("workload.start");
  auto workload = std::make_unique<core::Workload>(*testbed);
  log.end(s);
  const LinkTap tap(testbed->topology());

  const Time end = qos_end(b);
  run_phases(log, testbed->sim(), tap, b.warmup, end, r.counters);

  core::QosCell cell;
  {
    const Scoped span(log, "monitor.read");
    cell.mean_delay_down_ms =
        testbed->down_monitor().mean_queue_delay_s() * 1e3;
    cell.mean_delay_up_ms = testbed->up_monitor().mean_queue_delay_s() * 1e3;
    cell.util_down_bins = testbed->down_monitor().utilization(b.warmup, end);
    cell.util_up_bins = testbed->up_monitor().utilization(b.warmup, end);
    cell.util_down_mean =
        cell.util_down_bins.empty() ? 0.0 : cell.util_down_bins.mean();
    cell.util_down_sd =
        cell.util_down_bins.empty() ? 0.0 : cell.util_down_bins.stddev();
    cell.util_up_mean =
        cell.util_up_bins.empty() ? 0.0 : cell.util_up_bins.mean();
    cell.util_up_sd =
        cell.util_up_bins.empty() ? 0.0 : cell.util_up_bins.stddev();
    cell.loss_down = testbed->down_monitor().loss_rate();
    cell.loss_up = testbed->up_monitor().loss_rate();
    cell.mark_down = testbed->down_monitor().mark_rate();
    cell.mark_up = testbed->up_monitor().mark_rate();
    cell.concurrent_flows = workload->mean_concurrent_flows(end);
  }
  r.digest = digest(cell);
  r.failure = validate(cell);
  r.sim_s = testbed->sim().now().sec();
  if (r.failure.empty()) r.failure = tap.read(r.counters);
  read_demux(testbed->topology(), r.counters);

  s = log.begin("cell.teardown");
  workload.reset();
  testbed.reset();
  log.end(s);
}

void traced_voip(const CellSpec& spec, const core::ProbeBudget& b,
                 SpanLog& log, CellResult& r, core::StatsRegistry& reg) {
  std::size_t s = log.begin("testbed.build");
  auto testbed = std::make_unique<core::Testbed>(spec.cfg, &reg);
  log.end(s);
  s = log.begin("workload.start");
  auto workload = std::make_unique<core::Workload>(*testbed);
  log.end(s);
  const LinkTap tap(testbed->topology());

  struct CallPair {
    std::unique_ptr<apps::VoipCall> listen;
    std::unique_ptr<apps::VoipCall> talk;
  };
  std::vector<CallPair> calls;
  Time last_end = b.warmup;
  s = log.begin("probe.setup");
  apps::VoipConfig voip;
  const Time per_call = voip.duration + b.probe_gap +
                        voip.jitter_buffer * 2.0 + Time::seconds(1);
  for (int i = 0; i < b.voip_calls; ++i) {
    const Time start = b.warmup + per_call * static_cast<double>(i);
    CallPair pair;
    pair.listen = std::make_unique<apps::VoipCall>(
        testbed->probe_server(), testbed->probe_client(), voip,
        static_cast<std::uint32_t>(2 * i));
    pair.listen->start(start);
    pair.talk = std::make_unique<apps::VoipCall>(
        testbed->probe_client(), testbed->probe_server(), voip,
        static_cast<std::uint32_t>(2 * i + 1));
    pair.talk->start(start);
    last_end = std::max(last_end, pair.listen->end_time());
    calls.push_back(std::move(pair));
  }
  log.end(s);

  run_phases(log, testbed->sim(), tap, b.warmup, last_end + Time::seconds(1),
             r.counters);

  core::VoipCell cell;
  {
    const Scoped span(log, "qoe.score");
    for (const auto& pair : calls) {
      auto m_listen = pair.listen->metrics();
      qoe::VoipCallMetrics m_talk = pair.talk->metrics();
      const Time ta =
          (m_listen.mouth_to_ear_delay + m_talk.mouth_to_ear_delay) / 2.0;
      auto scored_listen = m_listen;
      scored_listen.mouth_to_ear_delay = ta;
      cell.mos_listens.add(qoe::VoipQoe::score(scored_listen).mos);
      cell.loss_listens.add(m_listen.effective_loss());
      cell.delay_listens_ms.add(m_listen.mean_network_delay.ms());
      auto scored_talk = m_talk;
      scored_talk.mouth_to_ear_delay = ta;
      cell.mos_talks.add(qoe::VoipQoe::score(scored_talk).mos);
      cell.loss_talks.add(m_talk.effective_loss());
      cell.delay_talks_ms.add(m_talk.mean_network_delay.ms());
    }
  }
  r.digest = digest(cell);
  r.failure = validate(cell, b.voip_calls);
  r.sim_s = testbed->sim().now().sec();
  count_probes(cell, r.counters);
  if (r.failure.empty()) r.failure = tap.read(r.counters);
  read_demux(testbed->topology(), r.counters);

  s = log.begin("cell.teardown");
  calls.clear();
  workload.reset();
  testbed.reset();
  log.end(s);
}

void traced_web(const CellSpec& spec, const core::ProbeBudget& b,
                SpanLog& log, CellResult& r, core::StatsRegistry& reg) {
  std::size_t s = log.begin("testbed.build");
  auto testbed = std::make_unique<core::Testbed>(spec.cfg, &reg);
  log.end(s);
  s = log.begin("workload.start");
  auto workload = std::make_unique<core::Workload>(*testbed);
  log.end(s);
  const LinkTap tap(testbed->topology());

  s = log.begin("probe.setup");
  apps::WebPageConfig page;
  tcp::TcpConfig probe_tcp;
  probe_tcp.cc = spec.cfg.tcp_cc;
  probe_tcp.ecn = spec.cfg.ecn;
  auto server = std::make_unique<apps::WebServer>(testbed->probe_server(),
                                                  page, probe_tcp);
  const qoe::G1030 model = spec.cfg.testbed == TestbedType::kAccess
                               ? qoe::G1030::access_profile()
                               : qoe::G1030::backbone_profile();
  core::WebCell cell;
  std::vector<std::unique_ptr<apps::WebPageLoad>> loads;
  auto& sim = testbed->sim();

  struct Driver {
    const core::ProbeBudget* budget;
    core::Testbed* testbed;
    apps::WebPageConfig page;
    tcp::TcpConfig tcp;
    std::vector<std::unique_ptr<apps::WebPageLoad>>* loads;
    core::WebCell* cell;
    const qoe::G1030* model;
    SpanLog* log;
    int remaining = 0;

    void start_next() {
      if (remaining <= 0) return;
      --remaining;
      auto& sim = testbed->sim();
      auto* self = this;
      auto load = std::make_unique<apps::WebPageLoad>(
          testbed->probe_client(), testbed->probe_server().id(), page, tcp,
          [self](const apps::WebPageLoad& done) {
            self->record(done);
            self->testbed->sim().after(self->budget->probe_gap,
                                       [self] { self->start_next(); });
          });
      apps::WebPageLoad* raw = load.get();
      load->start(sim.now());
      sim.after(budget->web_timeout, [raw, self] {
        if (!raw->done()) {
          ++self->cell->timeouts;
          raw->cancel();
        }
      });
      loads->push_back(std::move(load));
    }

    void record(const apps::WebPageLoad& load) {
      const Time plt =
          load.failed() ? budget->web_timeout : load.page_load_time();
      cell->plt_s.add(plt.sec());
      {
        const Scoped span(*log, "qoe.score");
        cell->mos.add(model->mos(plt));
      }
      cell->retransmits.add(static_cast<double>(load.retransmits()));
    }
  };

  Driver driver{&b,    testbed.get(), page, probe_tcp, &loads,
                &cell, &model,        &log, b.web_loads};
  sim.at(b.warmup, [&driver] { driver.start_next(); });
  log.end(s);

  // run_web's loop, split at the warm-up boundary into two spans; the
  // sequence of run_until calls is unchanged.
  const Time horizon = web_horizon(b);
  const auto more = [&] {
    return sim.now() < horizon &&
           cell.plt_s.count() < static_cast<std::size_t>(b.web_loads);
  };
  {
    const Scoped span(log, "sim.warmup");
    while (more() && sim.now() < b.warmup)
      sim.run_until(std::min(horizon, sim.now() + Time::seconds(1)));
  }
  const std::uint64_t fired0 = sim.scheduler().stats().fired;
  const std::uint64_t slabs0 = tap.slab_growths();
  {
    const Scoped span(log, "sim.measure");
    alloc::begin_thread_window();
    while (more())
      sim.run_until(std::min(horizon, sim.now() + Time::seconds(1)));
    r.counters.measure_allocs = alloc::end_thread_window();
  }
  r.counters.measure_events = sim.scheduler().stats().fired - fired0;
  r.counters.slab_growths = tap.slab_growths() - slabs0;

  r.digest = digest(cell);
  r.failure = validate(cell, b);
  r.sim_s = sim.now().sec();
  if (r.failure.empty() && web_end(b, cell) != sim.now())
    r.failure = "web sim-time reconstruction disagrees with the clock";
  count_probes(cell, r.counters);
  if (r.failure.empty()) r.failure = tap.read(r.counters);
  read_demux(testbed->topology(), r.counters);

  s = log.begin("cell.teardown");
  loads.clear();
  server.reset();
  workload.reset();
  testbed.reset();
  log.end(s);
}

CellResult traced_cell(const CellSpec& spec, const core::ProbeBudget& b,
                       std::uint32_t id) {
  CellResult r;
  SpanLog log(id);
  core::StatsRegistry reg;
  r.start_ns = now_ns();
  const std::size_t cell_span = log.begin("cell");
  try {
    switch (spec.probe) {
      case Probe::kQos:
        traced_qos(spec, b, log, r, reg);
        if (r.failure.empty() && r.sim_s != qos_end(b).sec())
          r.failure = "qos sim-time disagrees with the clock";
        break;
      case Probe::kVoip:
        traced_voip(spec, b, log, r, reg);
        if (r.failure.empty() && r.sim_s != voip_end(b).sec())
          r.failure = "voip sim-time disagrees with the clock";
        break;
      case Probe::kWeb:
        traced_web(spec, b, log, r, reg);
        break;
    }
  } catch (const std::exception& e) {
    r.failure = std::string("threw: ") + e.what();
  }
  log.end(cell_span);
  r.end_ns = now_ns();
  r.host_s = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  read_registry(reg, r.counters);
  finish_checks(r);
  r.spans = log.spans();
  return r;
}

RepResult run_grid(const Workload& w, bool traced) {
  RepResult rep;
  const core::SweepRunner sweep(w.jobs);
  const std::uint64_t t0 = now_ns();
  rep.cells = sweep.map(w.cells.size(), [&](std::size_t i) {
    CellResult r = traced ? traced_cell(w.cells[i], w.budget,
                                        static_cast<std::uint32_t>(i))
                          : untraced_cell(w.cells[i], w.budget);
    r.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    return r;
  });
  rep.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  Hasher h;
  for (const CellResult& c : rep.cells) h.u64(c.digest);
  rep.digest = h.value();
  return rep;
}

// ------------------------------------------------------------ pdes_ring

// The bench_pdes scenario: an 8-pod ring. Each pod is a gateway, four
// servers on short fast links and four clients behind 100 Mbit/s links;
// neighbouring gateways are joined by 10 ms ring links, the only links
// that clear the 1 ms lookahead floor, so the quantum is 10 ms.

constexpr unsigned kPods = 8;
constexpr unsigned kServersPerPod = 4;
constexpr unsigned kClientsPerPod = 4;
constexpr unsigned kCrossFlowsPerPod = 2;
constexpr std::uint64_t kBulkBytes = 1ull << 50;
// bench_pdes --quick horizon: the shortest one whose VoIP probes finish.
const Time kRingHorizon = Time::seconds(2.5);
const Time kRingWarmup = Time::seconds(0.5);  // a whole number of quanta

net::LinkSpec link_spec(double rate_bps, Time delay, std::size_t buffer) {
  net::LinkSpec s;
  s.rate_bps = rate_bps;
  s.delay = delay;
  s.buffer_packets = buffer;
  return s;
}

class Ring {
 public:
  Ring(unsigned shards, std::uint64_t seed, core::StatsRegistry* reg)
      : engine_(config(shards, seed, reg)) {
    for (unsigned p = 0; p < kPods; ++p) {
      const std::string prefix = "p" + std::to_string(p) + ".";
      pods_[p].gw = engine_.add_node(prefix + "gw", 2.0);
      for (unsigned j = 0; j < kServersPerPod; ++j)
        pods_[p].srv[j] = engine_.add_node(prefix + "s" + std::to_string(j));
      for (unsigned j = 0; j < kClientsPerPod; ++j)
        pods_[p].cli[j] = engine_.add_node(prefix + "c" + std::to_string(j));
    }
    const net::LinkSpec srv = link_spec(1e9, Time::microseconds(200), 512);
    const net::LinkSpec down = link_spec(100e6, Time::milliseconds(0.5), 128);
    const net::LinkSpec up = link_spec(100e6, Time::milliseconds(0.5), 128);
    const net::LinkSpec ring = link_spec(1e9, Time::milliseconds(10), 2048);
    std::array<std::array<std::size_t, kClientsPerPod>, kPods> down_decl{};
    std::array<std::size_t, kPods> ring_decl{};
    for (unsigned p = 0; p < kPods; ++p) {
      for (unsigned j = 0; j < kServersPerPod; ++j)
        engine_.connect(pods_[p].srv[j], pods_[p].gw, srv, srv);
      for (unsigned j = 0; j < kClientsPerPod; ++j)
        down_decl[p][j] =
            engine_.connect(pods_[p].gw, pods_[p].cli[j], down, up);
    }
    for (unsigned p = 0; p < kPods; ++p)
      ring_decl[p] = engine_.connect(pods_[p].gw,
                                     pods_[(p + 1) % kPods].gw, ring, ring);
    engine_.build();
    for (unsigned p = 0; p < kPods; ++p) {
      for (unsigned j = 0; j < kClientsPerPod; ++j)
        down_mon_.push_back(std::make_unique<net::LinkMonitor>(
            *engine_.link(down_decl[p][j], true)));
      ring_mon_.push_back(std::make_unique<net::LinkMonitor>(
          *engine_.link(ring_decl[p], true)));
    }
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  void start_traffic() {
    tcp::TcpConfig tcp_cfg;
    tcp_cfg.cc = tcp::CcKind::kCubic;
    for (unsigned p = 0; p < kPods; ++p) {
      PodTraffic& pod = traffic_[p];
      pod.accepted.reserve(kClientsPerPod + kCrossFlowsPerPod);
      pod.clients.reserve(kClientsPerPod + kCrossFlowsPerPod);
      for (unsigned j = 0; j < kServersPerPod; ++j) {
        pod.servers.push_back(std::make_unique<tcp::TcpServer>(
            engine_.node(pods_[p].srv[j]), 5000 + j, tcp_cfg,
            [&pod](std::shared_ptr<tcp::TcpSocket> sock) {
              sock->send(kBulkBytes);
              pod.accepted.push_back(std::move(sock));
            }));
      }
    }
    for (unsigned p = 0; p < kPods; ++p) {
      PodTraffic& pod = traffic_[p];
      for (unsigned j = 0; j < kClientsPerPod; ++j)
        connect_at(pod, Time::milliseconds(10 + 3 * p + 7 * j),
                   pods_[p].cli[j], pods_[p].srv[j], 5000 + j, tcp_cfg);
      for (unsigned j = 0; j < kCrossFlowsPerPod; ++j)
        connect_at(pod, Time::milliseconds(150 + 5 * p + 11 * j),
                   pods_[p].cli[j], pods_[(p + 3) % kPods].srv[j + 2],
                   5000 + j + 2, tcp_cfg);
      apps::VoipConfig vcfg;
      vcfg.duration = Time::nanoseconds(kRingHorizon.ns() * 2 / 5);
      pod.voip = std::make_unique<apps::VoipCall>(
          engine_.node(pods_[p].srv[0]), engine_.node(pods_[p].cli[0]), vcfg,
          p);
      pod.voip->start(Time::nanoseconds(kRingHorizon.ns() / 10));
    }
  }

  core::ShardedEngine& engine() { return engine_; }

  /// Per-pod table values (as bench_pdes prints them), hashed; fills the
  /// failure message on an out-of-range value.
  std::uint64_t read(SpanLog* log, std::string& failure,
                     std::uint64_t& score_calls) {
    Hasher h;
    std::size_t s = log ? log->begin("monitor.read") : 0;
    for (unsigned p = 0; p < kPods; ++p) {
      double util = 0.0, loss = 0.0, qdelay = 0.0;
      for (unsigned j = 0; j < kClientsPerPod; ++j) {
        const net::LinkMonitor& m = *down_mon_[p * kClientsPerPod + j];
        util += m.mean_utilization(Time::zero(), kRingHorizon);
        loss += m.loss_rate();
        qdelay += m.mean_queue_delay_s();
      }
      util /= kClientsPerPod;
      loss /= kClientsPerPod;
      qdelay /= kClientsPerPod;
      h.f64(util);
      h.f64(loss);
      h.f64(qdelay);
      h.u64(ring_mon_[p]->tx_bytes());
      if (!in_range(util, 0.0, kMaxUtil) || !in_range(loss, 0.0, 1.0))
        failure = "pod utilization/loss out of range";
    }
    if (log) log->end(s);
    s = log ? log->begin("qoe.score") : 0;
    for (unsigned p = 0; p < kPods; ++p) {
      const apps::VoipCall& voip = *traffic_[p].voip;
      if (!voip.finished()) {
        failure = "VoIP probe did not finish";
        continue;
      }
      const double mos = qoe::PesqSurrogate::listening_mos(voip.metrics());
      ++score_calls;
      h.f64(mos);
      if (!in_range(mos, 1.0, 5.0)) failure = "VoIP MOS out of range";
    }
    if (log) log->end(s);
    return h.value();
  }

 private:
  struct PodNodes {
    net::NodeId gw = 0;
    std::array<net::NodeId, kServersPerPod> srv{};
    std::array<net::NodeId, kClientsPerPod> cli{};
  };
  /// Touched only by its pod's shard: accepts run on the server's
  /// scheduler, connects on the client's.
  struct PodTraffic {
    std::vector<std::unique_ptr<tcp::TcpServer>> servers;
    std::vector<std::shared_ptr<tcp::TcpSocket>> accepted;
    std::vector<std::shared_ptr<tcp::TcpSocket>> clients;
    std::unique_ptr<apps::VoipCall> voip;
  };

  static core::ShardedEngine::Config config(unsigned shards,
                                            std::uint64_t seed,
                                            core::StatsRegistry* reg) {
    core::ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.lookahead_floor = Time::milliseconds(1);
    cfg.seed = seed;
    cfg.node_stats = reg != nullptr ? &reg->nodes : nullptr;
    return cfg;
  }

  void connect_at(PodTraffic& pod, Time at, net::NodeId client_id,
                  net::NodeId server, std::uint32_t port,
                  const tcp::TcpConfig& tcp_cfg) {
    net::Node& client = engine_.node(client_id);
    engine_.sim_of(client_id).at(at, [&pod, &client, server, port, tcp_cfg] {
      pod.clients.push_back(
          tcp::TcpSocket::connect(client, server, port, tcp_cfg));
    });
  }

  core::ShardedEngine engine_;
  std::array<PodNodes, kPods> pods_;
  std::vector<std::unique_ptr<net::LinkMonitor>> down_mon_;
  std::vector<std::unique_ptr<net::LinkMonitor>> ring_mon_;
  std::array<PodTraffic, kPods> traffic_;
};

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

RepResult run_ring(const Workload& w, bool traced, unsigned shards) {
  RepResult rep;
  CellResult r;
  SpanLog log(0);
  SpanLog* tlog = traced ? &log : nullptr;
  core::StatsRegistry reg;
  r.start_ns = now_ns();
  const std::size_t cell_span = tlog ? log.begin("cell") : 0;
  try {
    std::size_t s = tlog ? log.begin("pdes.build") : 0;
    auto ring = std::make_unique<Ring>(shards, w.seed, &reg);
    if (tlog) log.end(s);
    s = tlog ? log.begin("probe.setup") : 0;
    ring->start_traffic();
    if (tlog) log.end(s);
    core::ShardedEngine& engine = ring->engine();
    std::unique_ptr<LinkTap> tap;
    if (traced) tap = std::make_unique<LinkTap>(engine.topology());

    std::uint64_t fired0 = 0;
    if (traced) {
      {
        const Scoped span(log, "sim.warmup");
        engine.run_until(kRingWarmup);
      }
      fired0 = engine.scheduler_stats().fired;
    }
    const std::uint64_t slabs0 = tap ? tap->slab_growths() : 0;
    s = tlog ? log.begin("pdes.run") : 0;
    const double cpu0 = cpu_seconds();
    const std::uint64_t wall0 = now_ns();
    if (traced) alloc::begin_global_window();
    engine.run_until(kRingHorizon);
    if (traced) r.counters.measure_allocs = alloc::end_global_window();
    rep.pdes.run_wall_s = static_cast<double>(now_ns() - wall0) * 1e-9;
    rep.pdes.run_cpu_s = cpu_seconds() - cpu0;
    if (tlog) log.end(s);

    r.digest = ring->read(tlog, r.failure, r.counters.score_calls);
    r.counters.voip_calls = r.counters.score_calls;
    r.sim_s = kRingHorizon.sec();

    const Scheduler::Stats st = engine.scheduler_stats();
    rep.pdes.shards = engine.shard_count();
    const Time q = engine.quantum();
    rep.pdes.epochs = static_cast<std::uint64_t>(
        (kRingHorizon.ns() + q.ns() - 1) / q.ns());
    net::ShardedTopology& topo = engine.topology();
    std::unordered_set<const net::Link*> crossing;
    for (const auto& c : topo.crossings()) {
      crossing.insert(c.link);
      if (c.src_shard != c.dst_shard) ++rep.pdes.cut_links;
    }
    rep.pdes.shard_events.assign(rep.pdes.shards, 0);
    std::vector<bool> seen(rep.pdes.shards, false);
    for (std::size_t id = 0; id < topo.node_count(); ++id) {
      const auto nid = static_cast<net::NodeId>(id);
      const std::uint32_t shard = topo.shard_of(nid);
      if (seen[shard]) continue;
      seen[shard] = true;
      rep.pdes.shard_events[shard] = topo.sim_of(nid).scheduler().stats().fired;
    }
    if (traced) {
      r.counters.measure_events = st.fired - fired0;
      r.counters.slab_growths = tap->slab_growths() - slabs0;
      r.counters.mailbox_packets = tap->tx_on(crossing);
      if (r.failure.empty()) r.failure = tap->read(r.counters);
      read_demux(topo, r.counters);
    }
    s = tlog ? log.begin("cell.teardown") : 0;
    tap.reset();
    ring.reset();
    if (tlog) log.end(s);
    // Per-shard schedulers have no fold installed; use the combined,
    // partition-invariant counters (as bench_pdes does).
    reg.scheduler.fold(st);
  } catch (const std::exception& e) {
    r.failure = std::string("threw: ") + e.what();
  }
  if (tlog) log.end(cell_span);
  r.end_ns = now_ns();
  r.host_s = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  read_registry(reg, r.counters);
  finish_checks(r);
  r.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  r.spans = log.spans();
  rep.wall_s = r.host_s;
  rep.digest = r.digest;
  rep.cells.push_back(std::move(r));
  return rep;
}

// ------------------------------------------------------------ catalog

CellSpec cell(TestbedType testbed, WorkloadType workload,
              CongestionDirection dir, std::size_t buffer,
              std::uint64_t seed, Probe probe, unsigned replica = 0) {
  CellSpec c;
  c.cfg.testbed = testbed;
  c.cfg.workload = workload;
  c.cfg.direction = dir;
  c.cfg.buffer_packets = buffer;
  c.cfg.tcp_cc = core::default_cc(testbed);
  // Replica 0 is the figure benches' cell; the direction salt is < 3.
  c.cfg.seed = core::cell_seed(
      seed, workload, buffer, static_cast<std::uint64_t>(dir) + 3 * replica);
  c.probe = probe;
  return c;
}

/// The figure benches' --quick budget, fixed here so QOESIM_SCALE cannot
/// change the benchmark's work.
core::ProbeBudget quarter_budget() { return core::ProbeBudget{}.scaled(0.25); }

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.budget = quarter_budget();
  if (name == "access_sweep") {
    // Fig 4 + Fig 7 grid: 3 directions x 4 workloads x 6 buffers, one QoS
    // and one bidirectional VoIP cell each; CUBIC, drop-tail.
    w.jobs = 4;
    for (auto dir : {CongestionDirection::kDownstream,
                     CongestionDirection::kUpstream,
                     CongestionDirection::kBidirectional})
      for (WorkloadType wl : core::access_workloads())
        for (std::size_t buf : core::access_buffer_sizes())
          for (Probe p : {Probe::kQos, Probe::kVoip})
            w.cells.push_back(
                cell(TestbedType::kAccess, wl, dir, buf, seed, p));
  } else if (name == "backbone_web") {
    // Fig 11 grid: the four short-* Harpoon workloads x backbone buffers,
    // Reno. The churn of a few heavy-tailed overload cells varies by
    // +-15% in events between seeds, so four replicas of the grid
    // (independent cell seeds) run with a 5 s warm-up and one page load
    // per cell. Four workers, not one: a single-threaded pass follows the
    // contention on whichever core it runs on, which moved its event rate
    // by 1.5x within minutes on a shared host.
    w.jobs = 4;
    w.budget.warmup = Time::seconds(5);
    w.budget.web_loads = 1;
    for (unsigned replica = 0; replica < 4; ++replica)
      for (WorkloadType wl :
           {WorkloadType::kShortLow, WorkloadType::kShortMedium,
            WorkloadType::kShortHigh, WorkloadType::kShortOverload})
        for (std::size_t buf : core::backbone_buffer_sizes())
          w.cells.push_back(cell(TestbedType::kBackbone, wl,
                                 CongestionDirection::kDownstream, buf, seed,
                                 Probe::kWeb, replica));
  } else if (name == "pdes_ring") {
    w.jobs = 1;
    w.shards = 4;
  } else if (name == "access_aqm") {
    // Downstream long-many under {RED, CoDel} x {drop, ECN} x {CUBIC, BBR}
    // x {64, 256}; QoS, VoIP and web probes per configuration.
    w.jobs = 4;
    for (net::QueueKind q : {net::QueueKind::kRed, net::QueueKind::kCoDel})
      for (bool ecn : {false, true})
        for (tcp::CcKind cc : {tcp::CcKind::kCubic, tcp::CcKind::kBbr})
          for (std::size_t buf : {std::size_t{64}, std::size_t{256}})
            for (Probe p : {Probe::kQos, Probe::kVoip, Probe::kWeb}) {
              CellSpec c = cell(TestbedType::kAccess, WorkloadType::kLongMany,
                                CongestionDirection::kDownstream, buf, seed, p);
              c.cfg.queue = q;
              c.cfg.ecn = ecn;
              c.cfg.tcp_cc = cc;
              w.cells.push_back(c);
            }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

RepResult run_rep(const Workload& w, bool traced, unsigned shards) {
  if (w.cells.empty()) return run_ring(w, traced, shards ? shards : w.shards);
  return run_grid(w, traced);
}

double measure_setup(const Workload& w) {
  double total = 0.0;
  if (w.cells.empty()) {
    const std::uint64_t t0 = now_ns();
    auto ring = std::make_unique<Ring>(w.shards, w.seed, nullptr);
    ring->start_traffic();
    total = static_cast<double>(now_ns() - t0) * 1e-9;
    return total;
  }
  for (const CellSpec& spec : w.cells) {
    const std::uint64_t t0 = now_ns();
    auto testbed = std::make_unique<core::Testbed>(spec.cfg);
    auto workload = std::make_unique<core::Workload>(*testbed);
    std::vector<std::unique_ptr<apps::VoipCall>> calls;
    std::unique_ptr<apps::WebServer> server;
    if (spec.probe == Probe::kVoip) {
      const apps::VoipConfig voip;
      for (int i = 0; i < w.budget.voip_calls; ++i) {
        for (std::uint32_t leg = 0; leg < 2; ++leg) {
          net::Node& from =
              leg == 0 ? testbed->probe_server() : testbed->probe_client();
          net::Node& to =
              leg == 0 ? testbed->probe_client() : testbed->probe_server();
          calls.push_back(std::make_unique<apps::VoipCall>(
              from, to, voip, static_cast<std::uint32_t>(2 * i) + leg));
          calls.back()->start(w.budget.warmup);
        }
      }
    } else if (spec.probe == Probe::kWeb) {
      tcp::TcpConfig probe_tcp;
      probe_tcp.cc = spec.cfg.tcp_cc;
      probe_tcp.ecn = spec.cfg.ecn;
      server = std::make_unique<apps::WebServer>(testbed->probe_server(),
                                                 apps::WebPageConfig{},
                                                 probe_tcp);
    }
    total += static_cast<double>(now_ns() - t0) * 1e-9;
  }
  return total;
}

}  // namespace qoebench
