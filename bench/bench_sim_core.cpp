// google-benchmark microbenchmarks for the simulator substrate itself:
// event scheduling, queue operations, link forwarding, and end-to-end TCP
// simulation throughput (events/second), so performance regressions in the
// core are visible independent of the figure benches.
//
// `--quick` (used by CI as a forwarding smoke step) maps to a filter on the
// forwarding/queue benchmarks with a short measurement time.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_churn.hpp"
#include "bench_common.hpp"
#include "net/drop_tail.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"
#include "trafficgen/harpoon.hpp"

namespace qoesim {
namespace {

void BM_SchedulerScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler sched;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(Time::microseconds(i), [&fired] { ++fired; });
    }
    sched.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerScheduleFire);

void BM_SchedulerCancel(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler sched;
    std::vector<EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sched.schedule_at(Time::microseconds(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCancel);

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  const ShardGuard guard;
  net::PacketPool pool;
  net::DropTailQueue q(256);
  q.attach(pool);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    net::Packet p;
    p.size_bytes = 1500;
    q.enqueue(pool.acquire(std::move(p)), Time::zero());
    const net::PacketPool::SlotId slot = q.dequeue(Time::zero());
    benchmark::DoNotOptimize(slot);
    pool.discard(slot);
    ++ops;
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_DropTailEnqueueDequeue);

// Steady-state packet forwarding through one link: a fixed population of
// packets recirculates (the sink re-offers every delivery), so the
// transmitter never idles. This exercises the full per-packet-hop path
// (dequeue, serialization event, propagation/delivery, re-enqueue). The
// argument is the propagation delay in microseconds: at 1 Gbit/s a
// 1500-byte packet serializes in 12 us, so 10 us keeps at most one packet
// in flight on the wire while 1000 us keeps ~80 in flight.
void BM_LinkForwarding(benchmark::State& state) {
  const Time prop = Time::microseconds(static_cast<double>(state.range(0)));
  std::uint64_t total_delivered = 0;
  for (auto _ : state) {
    Simulation sim;
    net::Link link(sim, "fwd", 1e9, prop,
                   std::make_unique<net::DropTailQueue>(64));
    std::uint64_t delivered = 0;
    link.set_sink([&](net::Packet&& p) {
      ++delivered;
      link.send(std::move(p));
    });
    for (int i = 0; i < 32; ++i) {
      net::Packet p;
      p.size_bytes = 1500;
      link.send(std::move(p));
    }
    sim.run_until(Time::milliseconds(100));
    benchmark::DoNotOptimize(delivered);
    total_delivered += delivered;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_delivered));
}
BENCHMARK(BM_LinkForwarding)->Arg(10)->Arg(1000);

void BM_TcpBulkTransfer(benchmark::State& state) {
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    net::Topology topo(sim, &bench::stats_registry().nodes);
    auto& a = topo.add_node("a");
    auto& b = topo.add_node("b");
    net::LinkSpec spec;
    spec.rate_bps = 100e6;
    spec.delay = Time::milliseconds(5);
    spec.buffer_packets = 256;
    topo.connect(a, b, spec, spec);
    topo.compute_routes();

    tcp::TcpServer server(b, 80, {}, [](std::shared_ptr<tcp::TcpSocket> s) {
      auto weak = std::weak_ptr(s);
      s->set_callbacks({.on_connected = {},
                        .on_data = {},
                        .on_remote_close =
                            [weak] {
                              if (auto x = weak.lock()) x->close();
                            },
                        .on_closed = {}});
    });
    auto client = tcp::TcpSocket::connect(a, b.id(), 80, {}, {});
    client->send(bytes);
    client->close();
    sim.run_until(Time::seconds(60));
    benchmark::DoNotOptimize(client->stats().bytes_acked);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(sim.scheduler().fired_events()),
        benchmark::Counter::kIsIterationInvariantRate);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_TcpBulkTransfer)->Arg(1 << 20)->Arg(16 << 20);

// Pure transport-demux dispatch: one host with N exact 4-tuple bindings
// receives packets round-robin across the flows, so every delivered packet
// pays exactly one connection lookup plus one handler invocation. The
// handler captures a shared_ptr (like every TcpSocket handler does), so the
// per-packet handler-copy cost of the dispatch path is part of the measured
// work. The argument is the number of live flows.
void BM_Demux(benchmark::State& state) {
  const auto flows = static_cast<std::uint32_t>(state.range(0));
  Simulation sim;
  net::Topology topo(sim, &bench::stats_registry().nodes);
  auto& host = topo.add_node("host");
  auto delivered = std::make_shared<std::uint64_t>(0);
  for (std::uint32_t i = 0; i < flows; ++i) {
    host.bind_connection(net::Protocol::kTcp, 49152 + i, /*remote=*/1, 80,
                         [delivered](net::Packet&&) { ++*delivered; });
  }
  std::uint32_t next = 0;
  for (auto _ : state) {
    net::Packet p;
    p.src = 1;
    p.dst = host.id();
    p.proto = net::Protocol::kTcp;
    p.size_bytes = 1500;
    p.tcp.src_port = 80;
    p.tcp.dst_port = 49152 + next;
    if (++next == flows) next = 0;
    host.receive(std::move(p));
  }
  if (*delivered != static_cast<std::uint64_t>(state.iterations()))
    state.SkipWithError("demux miss");
  state.SetItemsProcessed(static_cast<int64_t>(*delivered));
}
BENCHMARK(BM_Demux)->Arg(64)->Arg(1024)->Arg(4096);

// Flow churn at scale: N Harpoon sessions push short transfers through a
// shared 10 Gbit/s bottleneck, so every flow pays connect (ephemeral port +
// bind), handshake, transfer, teardown (unbind). items/s is completed
// flows/s; the events/s counter is the end-to-end simulator rate.
void BM_FlowChurn(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  std::uint64_t flows = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    Simulation sim(11);
    net::Topology topo(sim, &bench::stats_registry().nodes);
    auto& src = topo.add_node("src");
    auto& dst = topo.add_node("dst");
    const net::LinkSpec spec = bench::churn_link_spec();
    topo.connect(src, dst, spec, spec);
    topo.compute_routes();
    trafficgen::HarpoonGenerator gen(sim, {&src}, {&dst},
                                     bench::churn_harpoon_config(sessions),
                                     sim.rng("churn"));
    gen.start();
    sim.run_until(Time::seconds(2));
    flows += gen.flows_completed();
    events += sim.scheduler().fired_events();
  }
  state.SetItemsProcessed(static_cast<int64_t>(flows));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FlowChurn)->Arg(64)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_HarpoonScenarioSecond(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim(7);
    net::Topology topo(sim, &bench::stats_registry().nodes);
    auto& a = topo.add_node("src");
    auto& b = topo.add_node("dst");
    net::LinkSpec spec;
    spec.rate_bps = 100e6;
    spec.delay = Time::milliseconds(10);
    spec.buffer_packets = 256;
    topo.connect(a, b, spec, spec);
    topo.compute_routes();
    trafficgen::HarpoonConfig cfg;
    cfg.sessions = 30;
    cfg.interarrival = std::make_shared<trafficgen::ExponentialDist>(0.5);
    cfg.file_size = trafficgen::paper_file_sizes();
    trafficgen::HarpoonGenerator gen(sim, {&a}, {&b}, cfg, sim.rng("h"));
    gen.start();
    sim.run_until(Time::seconds(5));
    benchmark::DoNotOptimize(gen.flows_completed());
  }
}
BENCHMARK(BM_HarpoonScenarioSecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qoesim

// BENCHMARK_MAIN with a `--quick` alias so CI can run the forwarding and
// queue benchmarks as a short smoke step without spelling gbench flags.
// `--no-color` (part of the shared bench flag set the CI passes uniformly)
// maps to gbench's color_print=false.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool quick = false;
  std::string no_color = "--benchmark_color=false";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--no-color") == 0) {
      args.push_back(no_color.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string filter =
      "--benchmark_filter=LinkForwarding|DropTail|Demux|FlowChurn/64$";
  std::string min_time = "--benchmark_min_time=0.05";
  if (quick) {
    args.push_back(filter.data());
    args.push_back(min_time.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Same zero-blackhole gate as the figure benches (exit 1 on violation):
  // the churn/demux benchmarks must account for every packet.
  qoesim::bench::emit_node_summary();
  return 0;
}
