// qoebench -- runs one benchmark workload and prints one JSON record.
//
//   qoebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
//
// --trace 0 repeats the workload's fixed work through the public API
// until --seconds have passed and reports the end-to-end metrics as
// medians over the repetitions. --trace 1 runs the work once untraced and
// once traced (re-composed cells with spans, link taps and the counting
// allocator), then the PDES ring, and reports the per-layer metrics.
// run.py builds this binary and turns the record into the benchmark's
// result line; see METRICS.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace {

using qoebench::CellResult;
using qoebench::Counters;
using qoebench::RepResult;

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitizer = true;
#else
constexpr bool kSanitizer = false;
#endif
#else
constexpr bool kSanitizer = false;
#endif

/// Repetitions the timed loop always makes, however short --seconds is.
constexpr int kMinReps = 2;
/// Host time of set-up passes made before each repetition; setup_s is
/// the median pass, so its samples span the whole run like wall_s.
constexpr double kSetupSliceS = 0.05;
constexpr int kMinSetupPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qoebench: %s\nusage: qoebench --workload <name> --seed <n>"
               " --seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (v[0] == '-' || end == v || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600)
        usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace expects 0 or 1");
      a.trace = v[0] - '0';
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux: KiB
}

double current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE))
                : 0.0;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Minimal JSON object writer (flat keys, numbers, strings, lists).
class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    field(key, quote(v));
  }
  void boolean(const std::string& key, bool v) {
    field(key, v ? "true" : "false");
  }
  void raw(const std::string& key, const std::string& json) { field(key, json); }
  std::string done() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out += c;
    }
    return out + "\"";
  }

 private:
  void field(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key) + ": " + v;
  }
  std::string body_;
};

Counters total(const RepResult& rep) {
  Counters c;
  for (const CellResult& cell : rep.cells) c.add(cell.counters);
  return c;
}

int failed_cells(const RepResult& rep, std::vector<std::string>& why) {
  int n = 0;
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    if (rep.cells[i].failure.empty()) continue;
    ++n;
    if (why.size() < 8)
      why.push_back("cell " + std::to_string(i) + ": " + rep.cells[i].failure);
  }
  return n;
}

/// Per-worker busy window of a sweep: [first cell start, last cell end].
struct Worker {
  std::uint64_t start = UINT64_MAX;
  std::uint64_t end = 0;
  std::uint64_t busy = 0;
};

std::map<std::size_t, Worker> workers(const RepResult& rep) {
  std::map<std::size_t, Worker> w;
  for (const CellResult& c : rep.cells) {
    Worker& k = w[c.thread];
    k.start = std::min(k.start, c.start_ns);
    k.end = std::max(k.end, c.end_ns);
    k.busy += c.end_ns - c.start_ns;
  }
  return w;
}

/// The exact counters that must agree between the untraced and traced
/// passes (and across runs of one seed).
std::vector<std::pair<const char*, std::uint64_t>> exact(const Counters& c) {
  return {{"sim.events", c.events},
          {"sim.peak_depth", c.peak_depth},
          {"sim.scheduled", c.scheduled},
          {"sim.cancelled", c.cancelled},
          {"sim.rescheduled", c.rescheduled},
          {"node.delivered", c.delivered},
          {"node.binds", c.binds},
          {"node.stray_late", c.stray_late},
          {"node.demux_rehashes", c.demux_rehashes},
          {"flow.opened", c.flows_opened},
          {"flow.peak_live", c.flow_peak_live},
          {"flow.cold_allocs", c.flow_cold_allocs},
          {"apps.voip_calls", c.voip_calls},
          {"apps.web_loads", c.web_loads},
          {"tcp.probe_retransmits", c.probe_retransmits},
          {"tcp.probe_timeouts", c.probe_timeouts}};
}

std::string stamp_json() {
  Json j;
  j.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  j.str("compiler", QOEBENCH_COMPILER);
  j.str("build_type", QOEBENCH_BUILD_TYPE);
  j.boolean("ndebug", kNdebug);
  j.boolean("sanitizer", kSanitizer);
  return j.done();
}

std::string list_json(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", " : "") + Json::quote(items[i]);
  return out + "]";
}

std::string num_list(const std::vector<double>& v) {
  std::string out = "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

void write_spans(const std::string& path, const RepResult& rep) {
  std::ofstream out(path);
  for (const CellResult& c : rep.cells)
    for (const qoebench::Span& s : c.spans)
      out << "{\"name\": \"" << s.name << "\", \"cell\": " << s.cell
          << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"self_ns\": " << s.self_ns()
          << "}\n";
  for (const auto& [thread, w] : workers(rep))
    out << "{\"name\": \"sweep.worker\", \"thread\": " << thread
        << ", \"start_ns\": " << w.start << ", \"end_ns\": " << w.end
        << ", \"self_ns\": " << (w.end - w.start - w.busy) << "}\n";
}

// ------------------------------------------------------------ trace 0

void run_timed(const Args& a, const qoebench::Workload& w, Json& rec,
               std::vector<std::string>& checks) {
  std::vector<double> walls, rates, cell_ms, setup;
  std::uint64_t digest = 0, events = 0;
  int attempted = 0, failed = 0;
  std::vector<std::string> why;
  const std::uint64_t t0 = qoebench::now_ns();
  const auto elapsed = [t0] {
    return static_cast<double>(qoebench::now_ns() - t0) * 1e-9;
  };
  for (int rep_i = 0;; ++rep_i) {
    // Stop before a repetition that would end past --seconds.
    if (rep_i >= kMinReps &&
        elapsed() * (rep_i + 1) / rep_i > a.seconds)
      break;
    const double slice_end = elapsed() + kSetupSliceS;
    for (int i = 0; i < kMinSetupPasses || elapsed() < slice_end; ++i)
      setup.push_back(qoebench::measure_setup(w));
    const RepResult rep = qoebench::run_rep(w, false);
    if (rep_i == 0) {
      digest = rep.digest;
      events = total(rep).events;
    }
    if (rep.digest != digest)
      checks.push_back("digest differs between repetitions " +
                       std::to_string(rep_i) + " and 0");
    attempted += static_cast<int>(rep.cells.size());
    failed += failed_cells(rep, why);
    double sim = 0.0, host = 0.0;
    for (const CellResult& c : rep.cells) {
      cell_ms.push_back(c.host_s * 1e3);
      sim += c.sim_s;
      host += c.host_s;
    }
    walls.push_back(rep.wall_s);
    rates.push_back(host > 0.0 ? sim / host : 0.0);
  }
  rec.str("digest", hex(digest));
  rec.num("events", static_cast<double>(events));
  rec.num("reps", static_cast<double>(walls.size()));
  rec.num("cells_per_rep", static_cast<double>(attempted) /
                               static_cast<double>(walls.size()));
  rec.num("attempted", attempted);
  rec.num("failed", failed);
  rec.raw("failures", list_json(why));
  rec.raw("rep_wall_s", num_list(walls));
  rec.num("cell_samples", static_cast<double>(cell_ms.size()));
  rec.num("setup_samples", static_cast<double>(setup.size()));
  // Not a BENCHMARK.json metric: only access_sweep has >= 10 distinct
  // cells beyond its 90th percentile.
  rec.num("cell_ms_p90", percentile(cell_ms, 90.0));
  Json m;
  m.num("wall_s", median(walls));
  m.num("sim_s_per_s", median(rates));
  m.num("cell_ms_p50", percentile(cell_ms, 50.0));
  m.num("setup_s", median(setup));
  rec.raw("metrics", m.done());
}

// ------------------------------------------------------------ trace 1

void run_traced(const Args& a, const qoebench::Workload& w, Json& rec,
                std::vector<std::string>& checks) {
  // Traced pass first, so the RSS it adds is measured from a clean base.
  const double rss0 = current_rss_bytes();
  const RepResult tr = qoebench::run_rep(w, true);
  const double rss_peak = peak_rss_bytes();
  const RepResult un = qoebench::run_rep(w, false);

  if (tr.digest != un.digest)
    checks.push_back("traced digest " + hex(tr.digest) +
                     " != untraced digest " + hex(un.digest));
  const Counters c = total(tr);
  const Counters cu = total(un);
  const auto ex_t = exact(c);
  const auto ex_u = exact(cu);
  for (std::size_t i = 0; i < ex_t.size(); ++i)
    if (ex_t[i].second != ex_u[i].second)
      checks.push_back(std::string(ex_t[i].first) +
                       " differs between traced and untraced passes");

  // The sharded-engine layer is measured on the 8-pod ring in every
  // traced run: traced and untraced at 4 shards, plus a 1-shard reference.
  // Its end-to-end times are not a workload of their own because its four
  // barrier-synchronized threads slow down 2-3x whenever the host is
  // contended, which no bound of 0.25 survives.
  const bool sweep = !w.cells.empty();
  const qoebench::Workload ring =
      sweep ? qoebench::make_workload("pdes_ring", a.seed) : w;
  const RepResult ring_tr = sweep ? qoebench::run_rep(ring, true) : tr;
  const RepResult ring_un = sweep ? qoebench::run_rep(ring, false) : un;
  const RepResult ring_1 = qoebench::run_rep(ring, false, 1);

  std::vector<std::string> why;
  int failed = failed_cells(tr, why) + failed_cells(un, why) +
               failed_cells(ring_1, why);
  std::size_t attempted = tr.cells.size() + un.cells.size() + 1;
  if (sweep) {
    failed += failed_cells(ring_tr, why) + failed_cells(ring_un, why);
    attempted += 2;
    if (ring_tr.digest != ring_un.digest)
      checks.push_back("traced ring digest differs from untraced");
  }
  rec.str("digest", hex(un.digest));
  rec.str("ring_digest", hex(ring_un.digest));
  rec.num("reps", 2);
  rec.num("cells_per_rep", static_cast<double>(un.cells.size()));
  rec.num("attempted", static_cast<double>(attempted));
  rec.num("failed", failed);
  rec.raw("failures", list_json(why));

  // Span self time, summed per name, and per-instance means.
  std::map<std::string, double> self_ms, dur_ms;
  std::map<std::string, double> count;
  const auto add_span = [&](const qoebench::Span& s) {
    self_ms[s.name] += static_cast<double>(s.self_ns()) * 1e-6;
    dur_ms[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    count[s.name] += 1.0;
  };
  for (const CellResult& cell : tr.cells)
    for (const qoebench::Span& s : cell.spans) add_span(s);
  const double run_ms = dur_ms["sim.warmup"] + dur_ms["sim.measure"] +
                        dur_ms["pdes.run"];
  if (sweep)
    for (const qoebench::Span& s : ring_tr.cells.front().spans)
      if (std::strncmp(s.name, "pdes.", 5) == 0) add_span(s);
  const auto ww = workers(tr);
  if (sweep)
    for (const auto& [thread, k] : ww)
      self_ms["sweep.worker"] +=
          static_cast<double>(k.end - k.start - k.busy) * 1e-6;
  const auto mean_ms = [&](const char* name) {
    return count[name] > 0.0 ? dur_ms[name] / count[name] : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  // Sweep balance comes from the untraced pass, like wall_s.
  double busy = 0.0, tail = 0.0;
  if (sweep) {
    const auto wu = workers(un);
    std::uint64_t sweep_end = 0;
    for (const auto& [thread, k] : wu) sweep_end = std::max(sweep_end, k.end);
    for (const auto& [thread, k] : wu) {
      busy += static_cast<double>(k.busy) * 1e-9;
      tail += static_cast<double>(sweep_end - k.end) * 1e-9;
    }
    busy /= static_cast<double>(w.jobs) * un.wall_s;
    tail /= static_cast<double>(w.jobs);
  }

  double sim_s = 0.0;
  for (const CellResult& cell : tr.cells) sim_s += cell.sim_s;

  Json m;
  m.num("sweep.busy_frac", busy);
  m.num("sweep.tail_idle_s", tail);
  m.num("testbed.build_ms", mean_ms("testbed.build"));
  m.num("workload.start_ms", mean_ms("workload.start"));
  m.num("probe.setup_ms", mean_ms("probe.setup"));
  m.num("cell.teardown_ms", mean_ms("cell.teardown"));
  m.num("sim.warmup_frac", ratio(dur_ms["sim.warmup"], run_ms));
  m.num("sim.events", static_cast<double>(c.events));
  m.num("sim.scheduled", static_cast<double>(c.scheduled));
  m.num("sim.cancelled", static_cast<double>(c.cancelled));
  m.num("sim.rescheduled", static_cast<double>(c.rescheduled));
  m.num("sim.peak_depth", static_cast<double>(c.peak_depth));
  m.num("sim.events_per_sim_s", ratio(static_cast<double>(c.events), sim_s));
  m.num("sim.ns_per_event", ratio(run_ms * 1e6, static_cast<double>(c.events)));
  m.num("link.tx_packets", static_cast<double>(c.tx_packets));
  m.num("link.ns_per_packet",
        ratio(run_ms * 1e6, static_cast<double>(c.tx_packets)));
  m.num("queue.offered", static_cast<double>(c.queue_offered));
  m.num("queue.dropped", static_cast<double>(c.queue_dropped));
  m.num("queue.marked", static_cast<double>(c.queue_marked));
  m.num("queue.peak_depth", static_cast<double>(c.queue_peak));
  m.num("pool.slab_growths", static_cast<double>(c.slab_growths));
  m.num("mem.allocs_per_kevent",
        ratio(static_cast<double>(c.measure_allocs) * 1e3,
              static_cast<double>(c.measure_events)));
  m.num("mem.peak_rss_mb", peak_rss_bytes() / (1024.0 * 1024.0));
  m.num("mem.rss_per_live_flow_b",
        ratio(rss_peak - rss0, static_cast<double>(c.flow_peak_live)));
  m.num("node.delivered", static_cast<double>(c.delivered));
  m.num("node.binds", static_cast<double>(c.binds));
  m.num("node.stray_late", static_cast<double>(c.stray_late));
  m.num("node.demux_rehashes", static_cast<double>(c.demux_rehashes));
  m.num("node.demux_probe_mean",
        ratio(c.demux_probe_sum, static_cast<double>(c.demux_entries)));
  m.num("flow.opened", static_cast<double>(c.flows_opened));
  m.num("flow.peak_live", static_cast<double>(c.flow_peak_live));
  m.num("flow.hot_bytes", static_cast<double>(c.flow_hot_bytes));
  m.num("flow.cold_allocs", static_cast<double>(c.flow_cold_allocs));
  m.num("tcp.probe_retransmits", static_cast<double>(c.probe_retransmits));
  m.num("tcp.probe_timeouts", static_cast<double>(c.probe_timeouts));
  m.num("apps.voip_calls", static_cast<double>(c.voip_calls));
  m.num("apps.web_loads", static_cast<double>(c.web_loads));
  m.num("qoe.score_us",
        ratio(dur_ms["qoe.score"] * 1e3, static_cast<double>(c.score_calls)));

  const qoebench::PdesStats& p = ring_tr.pdes;
  double sum = 0.0, mx = 0.0;
  std::uint64_t shard_sum = 0;
  for (std::uint64_t e : p.shard_events) {
    sum += static_cast<double>(e);
    mx = std::max(mx, static_cast<double>(e));
    shard_sum += e;
  }
  if (ring_1.digest != ring_un.digest)
    checks.push_back("1-shard ring digest differs from the sharded run");
  if (shard_sum != total(ring_1).events)
    checks.push_back("per-shard events do not sum to the 1-shard total");
  const qoebench::PdesStats& p4 = ring_un.pdes;
  m.num("pdes.shards", p.shards);
  m.num("pdes.epochs", static_cast<double>(p.epochs));
  m.num("pdes.cut_links", static_cast<double>(p.cut_links));
  m.num("pdes.mailbox_packets",
        static_cast<double>(total(ring_tr).mailbox_packets));
  m.num("pdes.shard_events_max_over_mean",
        ratio(mx, sum / static_cast<double>(p.shard_events.size())));
  m.num("pdes.cpu_busy_frac",
        ratio(p4.run_cpu_s, p4.run_wall_s * static_cast<double>(p4.shards)));
  m.num("pdes.build_ms", mean_ms("pdes.build"));
  m.num("pdes.speedup", ratio(ring_1.pdes.run_wall_s, p4.run_wall_s));
  m.num("trace.overhead_s", tr.wall_s - un.wall_s);
  for (const char* name :
       {"cell", "testbed.build", "workload.start", "probe.setup",
        "sim.warmup", "sim.measure", "monitor.read", "qoe.score",
        "cell.teardown", "sweep.worker", "pdes.build", "pdes.run"})
    m.num(std::string("span.") + name + ".self_ms", self_ms[name]);
  rec.raw("metrics", m.done());

  if (!a.trace_out.empty()) write_spans(a.trace_out, tr);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  qoebench::Workload w;
  try {
    w = qoebench::make_workload(a.workload, a.seed);
  } catch (const std::exception& e) {
    usage(e.what());
  }

  Json rec;
  rec.str("workload", a.workload);
  rec.num("seed", static_cast<double>(a.seed));
  rec.num("trace", a.trace);
  rec.raw("stamp", stamp_json());
  if (!kNdebug || kSanitizer ||
      std::strcmp(QOEBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "qoebench: refusing to time a %s build (NDEBUG=%d,"
                 " sanitizer=%d); build with -DCMAKE_BUILD_TYPE=Release\n",
                 QOEBENCH_BUILD_TYPE, kNdebug ? 1 : 0, kSanitizer ? 1 : 0);
    return 3;
  }

  std::vector<std::string> checks;
  if (a.trace == 0) {
    run_timed(a, w, rec, checks);
  } else {
    run_traced(a, w, rec, checks);
  }
  rec.raw("checks", list_json(checks));
  std::printf("%s\n", rec.done().c_str());
  return 0;
}
