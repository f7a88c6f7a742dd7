// Raw scheduler throughput bench: schedule/fire, cancel, and reschedule
// rates of the event-arena core, independent of any network simulation.
// This is the micro-counterpart of the figure benches' events/sec column;
// regressions here show up in every other bench.
//
// Patterns measured (all single-threaded, as in one sweep cell):
//   steady fire   -- bounded queue (depth 512), each firing schedules its
//                    successor: the inner loop of every simulation.
//   bulk fire     -- schedule a full batch, then drain it (startup shape).
//   cancel        -- schedule a batch, cancel every event (timer teardown).
//   reschedule    -- one pending timer moved repeatedly (TCP RTO re-arm
//                    fast path).
//   rearm         -- cancel + fresh schedule per move (the pre-reschedule
//                    idiom, kept for comparison).
//   chain + RTO   -- 64 self-rearming chains (a link's tx-complete: one
//                    push from each firing) plus one far-future timer per
//                    chain that every firing of its chain moves later (a
//                    TCP RTO pushed back on each ACK). The chain's re-arm
//                    is the push that refills the fired event's vacant
//                    heap root; the reschedule is a sift on a deep entry.
//
// Accepts the shared bench flags plus --quick (CI smoke: ~10x fewer ops).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "sim/event.hpp"
#include "stats/table.hpp"

namespace qoesim {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string mops(double ops_per_sec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", ops_per_sec / 1e6);
  return buf;
}

// Self-perpetuating timer: the real call-site shape (small capturing
// callable, stored inline in the event arena).
struct Ticker {
  Scheduler* sched;
  long* fired;
  long limit;
  int depth;
  void operator()() const {
    if (++*fired + depth <= limit) {
      sched->schedule_in(Time::microseconds(depth), *this);
    }
  }
};

// One link-like chain: re-arms itself, then moves its RTO-like timer.
struct ChainLink {
  Scheduler* sched;
  long* fired;
  long limit;
  EventHandle* rto;
  void operator()() const {
    if (++*fired > limit) return;
    sched->schedule_in(Time::microseconds(10), *this);
    rto->reschedule(sched->now() + Time::seconds(1));
  }
};

double chain_with_rto(long fires, int chains) {
  Scheduler sched;
  sched.set_stats_fold(&bench::stats_registry().scheduler);
  long fired = 0;
  std::vector<EventHandle> rtos(static_cast<std::size_t>(chains));
  for (int i = 0; i < chains; ++i) {
    EventHandle& rto = rtos[static_cast<std::size_t>(i)];
    rto = sched.schedule_at(Time::seconds(1), [] {});
    sched.schedule_at(Time::nanoseconds(i),
                      ChainLink{&sched, &fired, fires, &rto});
  }
  const auto t0 = Clock::now();
  // The chains stop after `fires` firings; the timers then fire once.
  sched.run();
  return static_cast<double>(std::min(fired, fires)) / seconds_since(t0);
}

double steady_fire(long fires, int depth) {
  Scheduler sched;
  sched.set_stats_fold(&bench::stats_registry().scheduler);
  long fired = 0;
  for (int i = 0; i < depth; ++i) {
    sched.schedule_at(Time::microseconds(i), Ticker{&sched, &fired, fires, depth});
  }
  const auto t0 = Clock::now();
  sched.run();
  return static_cast<double>(fired) / seconds_since(t0);
}

double bulk_fire(long total, int batch) {
  long fired = 0;
  const auto t0 = Clock::now();
  for (long done = 0; done < total; done += batch) {
    Scheduler sched;
    sched.set_stats_fold(&bench::stats_registry().scheduler);
    for (int i = 0; i < batch; ++i) {
      sched.schedule_at(Time::microseconds(i), [&fired] { ++fired; });
    }
    sched.run();
  }
  return static_cast<double>(fired) / seconds_since(t0);
}

double cancel_all(long total, int batch) {
  std::vector<EventHandle> handles;
  handles.reserve(static_cast<std::size_t>(batch));
  const auto t0 = Clock::now();
  for (long done = 0; done < total; done += batch) {
    Scheduler sched;
    sched.set_stats_fold(&bench::stats_registry().scheduler);
    handles.clear();
    for (int i = 0; i < batch; ++i) {
      handles.push_back(sched.schedule_at(Time::microseconds(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    sched.run();
  }
  return static_cast<double>(total) / seconds_since(t0);
}

double reschedule_one(long moves) {
  Scheduler sched;
  sched.set_stats_fold(&bench::stats_registry().scheduler);
  // A far-out timer plus queue background, like an RTO behind data events.
  for (int i = 0; i < 64; ++i) sched.schedule_at(Time::seconds(2), [] {});
  EventHandle timer = sched.schedule_at(Time::seconds(1), [] {});
  const auto t0 = Clock::now();
  for (long i = 0; i < moves; ++i) {
    timer.reschedule(Time::seconds(1) + Time::nanoseconds(i));
  }
  const double secs = seconds_since(t0);
  sched.run();
  return static_cast<double>(moves) / secs;
}

double rearm_one(long moves) {
  Scheduler sched;
  sched.set_stats_fold(&bench::stats_registry().scheduler);
  for (int i = 0; i < 64; ++i) sched.schedule_at(Time::seconds(2), [] {});
  EventHandle timer;
  const auto t0 = Clock::now();
  for (long i = 0; i < moves; ++i) {
    timer.cancel();
    timer = sched.schedule_at(Time::seconds(1) + Time::nanoseconds(i), [] {});
  }
  const double secs = seconds_since(t0);
  sched.run();
  return static_cast<double>(moves) / secs;
}

void run(const bench::BenchOptions& opt) {
  // --quick is the CI smoke preset: ~10x fewer ops (opt.scale still
  // multiplies the op counts, not the probe budget -- this bench has none).
  const long base =
      static_cast<long>((opt.quick ? 400000.0 : 4000000.0) * opt.scale);

  stats::TextTable table;
  table.set_header({"pattern", "ops", "M ops/s"});
  table.add_row({"steady schedule+fire (depth 512)", std::to_string(base),
                 mops(steady_fire(base, 512))});
  table.add_row({"bulk schedule+fire (batch 8192)", std::to_string(base),
                 mops(bulk_fire(base, 8192))});
  table.add_row({"schedule+cancel (batch 8192)", std::to_string(base),
                 mops(cancel_all(base, 8192))});
  table.add_row({"reschedule pending timer", std::to_string(base),
                 mops(reschedule_one(base))});
  table.add_row({"cancel+schedule rearm", std::to_string(base),
                 mops(rearm_one(base))});
  table.add_row({"chain rearm + RTO reschedule (64 chains)",
                 std::to_string(base), mops(chain_with_rto(base, 64))});
  bench::emit(table, opt, "Scheduler throughput");
}

}  // namespace
}  // namespace qoesim

int main(int argc, char** argv) {
  const auto opt = qoesim::bench::BenchOptions::parse(argc, argv);
  qoesim::run(opt);
  return 0;
}
