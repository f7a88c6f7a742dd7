// qoesim -- packet event tracing (ns-3-style ASCII/CSV traces).
//
// A PacketTracer subscribes to links and queues and records timestamped
// per-packet events (enqueue, drop, transmit) with protocol metadata --
// the raw material for the packet-level analyses the paper performs on
// its tcpdump captures (§9.1: "we rely on full packet traces capturing
// the HTTP transactions"). Traces can be kept in memory for programmatic
// analysis or streamed to CSV.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"

namespace qoesim::net {

enum class TraceEvent : std::uint8_t {
  kEnqueue,
  kDrop,
  kTransmit,  ///< serialization complete, packet on the wire
  kMark,      ///< AQM applied an ECN CE mark
  kDeliver,   ///< propagation complete, packet handed to the link sink
};

const char* to_string(TraceEvent e);

struct TraceRecord {
  Time at;
  TraceEvent event = TraceEvent::kTransmit;
  std::string point;  ///< link/queue name
  std::uint64_t packet_uid = 0;
  Protocol proto = Protocol::kUdp;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t size_bytes = 0;
  std::uint64_t seq = 0;      ///< TCP seq or app seq
  AppKind app = AppKind::kNone;
};

/// Collects packet events; attach to links via observe_link(). Queue
/// enqueue/drop events require a TracingQueue wrapper (below).
class PacketTracer {
 public:
  /// Keep at most `capacity` records (older records are kept, newer ones
  /// dropped once full, with a counter -- bounded memory for long runs).
  explicit PacketTracer(std::size_t capacity = 1 << 20)
      : capacity_(capacity) {}

  /// Record transmissions on `link`.
  void observe_link(Link& link);

  void record(const TraceRecord& r);

  const std::vector<TraceRecord>& records() const { return records_; }
  std::uint64_t overflow() const { return overflow_; }

  /// Write all records as CSV (header + one row per event).
  void write_csv(std::ostream& out) const;

  /// Count records matching a predicate.
  std::size_t count(const std::function<bool(const TraceRecord&)>& pred) const;

 private:
  std::size_t capacity_;
  std::vector<TraceRecord> records_;
  std::uint64_t overflow_ = 0;
};

/// Queue wrapper that reports enqueue/drop events of an inner discipline
/// to a tracer. Use in custom topologies:
///   link spec with make_unique<TracingQueue>(make_queue(...), tracer, "x")
class TracingQueue final : public QueueDiscipline {
 public:
  TracingQueue(std::unique_ptr<QueueDiscipline> inner, PacketTracer& tracer,
               std::string point);

  std::size_t packet_count() const override { return inner_->packet_count(); }
  std::size_t byte_count() const override { return inner_->byte_count(); }
  std::string name() const override { return "Tracing+" + inner_->name(); }
  void attach(PacketPool& pool) override {
    QueueDiscipline::attach(pool);
    inner_->attach(pool);
  }
  void set_drain_rate(double bps) override { inner_->set_drain_rate(bps); }
  void set_ecn_marking(bool on) override {
    QueueDiscipline::set_ecn_marking(on);
    inner_->set_ecn_marking(on);
  }

 protected:
  bool do_enqueue(SlotId slot, Time now) override;
  SlotId do_dequeue(Time now) override;

 private:
  TraceRecord make_record(const Packet& p, Time now, TraceEvent e) const;
  std::unique_ptr<QueueDiscipline> inner_;
  PacketTracer& tracer_;
  std::string point_;
};

}  // namespace qoesim::net
