// Reproduces Figure 4: mean queueing delay (ms) at the access bottleneck
// for each buffer size x workload, split by congestion direction
// ((a) downstream-only, (b) bidirectional, (c) upstream-only), with each
// heatmap showing the uplink and downlink buffers separately. Cells are
// colored by ITU-T G.114 delay classes, as in the paper.
// --trace <path> additionally streams a binary per-packet trace of every
// cell's bottleneck links (downlink point 0, uplink point 1) to <path>:
// the buffers' enqueue/drop/mark events and the links' transmit/deliver
// events, 1 in 8 packets sampled; see net/trace_binary.hpp for the format
// and tools/trace for conversion.
#include <algorithm>
#include <fstream>

#include "bench_common.hpp"
#include "net/trace_binary.hpp"
#include "qoe/g114.hpp"

namespace qoesim {
namespace {

using namespace core;

const char* pick_trace_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) return argv[i + 1];
  }
  return nullptr;
}

void run(const bench::BenchOptions& opt, const char* trace_path) {
  ExperimentRunner runner = opt.runner();
  const auto sweep = opt.sweep();
  const auto buffers = access_buffer_sizes();
  const auto workloads = access_workloads();

  // One tracer per cell: cells run in parallel under --jobs, but each
  // cell's packet stream is deterministic, so concatenating the bodies in
  // sweep (row-major grid) order after the barrier gives a byte-identical
  // file for any worker count. Sampled 1-in-8 by packet uid to keep the
  // full sweep's memory bounded (~2 MB per cell at this capacity).
  std::ofstream trace_out;
  if (trace_path != nullptr) {
    trace_out.open(trace_path, std::ios::binary | std::ios::trunc);
    if (!trace_out) {
      std::fprintf(stderr, "cannot open trace file: %s\n", trace_path);
      std::exit(2);
    }
    net::BinaryTracer::write_header(trace_out);
  }
  net::BinaryTracer::Config trace_cfg;
  trace_cfg.capacity_records = 1 << 15;
  trace_cfg.sample_every = 8;

  struct DirCase {
    CongestionDirection dir;
    const char* title;
  };
  const DirCase cases[] = {
      {CongestionDirection::kDownstream,
       "Fig 4a: mean queueing delay (ms), only downstream workload"},
      {CongestionDirection::kBidirectional,
       "Fig 4b: mean queueing delay (ms), up and downstream workloads"},
      {CongestionDirection::kUpstream,
       "Fig 4c: mean queueing delay (ms), only upstream workload"},
  };

  for (const auto& c : cases) {
    // Collect both directions from a single run per cell; cells are
    // independent, so the grid sweeps in parallel under --jobs.
    std::vector<net::BinaryTracer> tracers;
    if (trace_path != nullptr) {
      // Sized up front: cells index into it concurrently, so it must
      // never reallocate during the sweep.
      tracers.reserve(workloads.size() * buffers.size());
      for (std::size_t i = 0; i < workloads.size() * buffers.size(); ++i)
        tracers.emplace_back(trace_cfg);
    }
    const auto cells =
        sweep.grid(workloads, buffers, [&](WorkloadType workload,
                                           std::size_t buffer) {
          auto cfg = bench::make_scenario(TestbedType::kAccess, workload,
                                          c.dir, buffer, opt.seed);
          net::BinaryTracer* tracer = nullptr;
          if (!tracers.empty()) {
            const std::size_t row =
                static_cast<std::size_t>(std::find(workloads.begin(),
                                                   workloads.end(), workload) -
                                         workloads.begin());
            const std::size_t col =
                static_cast<std::size_t>(std::find(buffers.begin(),
                                                   buffers.end(), buffer) -
                                         buffers.begin());
            tracer = &tracers[row * buffers.size() + col];
          }
          return runner.run_qos(cfg, tracer);
        });
    std::uint64_t trace_overflow = 0;
    for (const auto& tracer : tracers) {
      trace_out.write(reinterpret_cast<const char*>(tracer.data()),
                      static_cast<std::streamsize>(tracer.size_bytes()));
      trace_overflow += tracer.overflow();
    }
    if (!tracers.empty() && trace_overflow > 0) {
      // Truncation is deterministic (per-cell buffers, same stream every
      // run) but must not pass silently as full coverage.
      std::fprintf(stderr, "[trace] %llu records dropped at capacity\n",
                   static_cast<unsigned long long>(trace_overflow));
    }

    stats::HeatmapTable table(c.title, buffer_columns(buffers));
    table.add_group("uplink buffer");
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      std::vector<stats::HeatCell> row;
      for (std::size_t bi = 0; bi < buffers.size(); ++bi) {
        const double ms = cells.at(wi, bi).mean_delay_up_ms;
        row.push_back({format_ms(ms), qoe::g114_tone(Time::milliseconds(ms))});
      }
      table.add_row(to_string(workloads[wi]), std::move(row));
    }
    table.add_group("downlink buffer");
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      std::vector<stats::HeatCell> row;
      for (std::size_t bi = 0; bi < buffers.size(); ++bi) {
        const double ms = cells.at(wi, bi).mean_delay_down_ms;
        row.push_back({format_ms(ms), qoe::g114_tone(Time::milliseconds(ms))});
      }
      table.add_row(to_string(workloads[wi]), std::move(row));
    }
    bench::emit(table, opt);
  }
  std::puts(
      "Paper shape: uplink delays reach seconds for large buffers whenever"
      " the upstream carries workload\n(Fig 4b/4c: ~3s at 256 packets,"
      " nearly workload-independent); downlink delays stay <200 ms.");
}

}  // namespace
}  // namespace qoesim

int main(int argc, char** argv) {
  const auto opt = qoesim::bench::BenchOptions::parse(argc, argv, {"--trace"});
  qoesim::run(opt, qoesim::pick_trace_path(argc, argv));
  return 0;
}
