#include "net/tracer.hpp"

namespace qoesim::net {

const char* to_string(TraceEvent e) {
  switch (e) {
    case TraceEvent::kEnqueue: return "enqueue";
    case TraceEvent::kDrop: return "drop";
    case TraceEvent::kTransmit: return "transmit";
    case TraceEvent::kMark: return "mark";
    case TraceEvent::kDeliver: return "deliver";
  }
  return "?";
}

namespace {

TraceRecord from_packet(const Packet& p, Time now, TraceEvent e,
                        std::string point) {
  TraceRecord r;
  r.at = now;
  r.event = e;
  r.point = std::move(point);
  r.packet_uid = p.uid;
  r.proto = p.proto;
  r.src = p.src;
  r.dst = p.dst;
  r.size_bytes = p.size_bytes;
  r.seq = p.proto == Protocol::kTcp ? p.tcp.seq : p.app.seq;
  r.app = p.app.kind;
  return r;
}

}  // namespace

void PacketTracer::observe_link(Link& link) {
  const std::string point = link.name();
  link.add_tx_observer([this, point](const Packet& p, Time now) {
    record(from_packet(p, now, TraceEvent::kTransmit, point));
  });
}

void PacketTracer::record(const TraceRecord& r) {
  if (records_.size() >= capacity_) {
    ++overflow_;
    return;
  }
  records_.push_back(r);
}

void PacketTracer::write_csv(std::ostream& out) const {
  out << "time_s,event,point,uid,proto,src,dst,size,seq,app\n";
  for (const auto& r : records_) {
    out << r.at.sec() << ',' << to_string(r.event) << ',' << r.point << ','
        << r.packet_uid << ','
        << (r.proto == Protocol::kTcp ? "tcp" : "udp") << ',' << r.src << ','
        << r.dst << ',' << r.size_bytes << ',' << r.seq << ','
        << static_cast<int>(r.app) << '\n';
  }
}

std::size_t PacketTracer::count(
    const std::function<bool(const TraceRecord&)>& pred) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (pred(r)) ++n;
  }
  return n;
}

TracingQueue::TracingQueue(std::unique_ptr<QueueDiscipline> inner,
                           PacketTracer& tracer, std::string point)
    : QueueDiscipline(inner->capacity_packets()),
      inner_(std::move(inner)),
      tracer_(tracer),
      point_(std::move(point)) {}

TraceRecord TracingQueue::make_record(const Packet& p, Time now,
                                      TraceEvent e) const {
  return from_packet(p, now, e, point_);
}

bool TracingQueue::do_enqueue(SlotId slot, Time now) {
  // Record before handing over (a drop returns the slot to the pool).
  TraceRecord pending = make_record(packet(slot), now, TraceEvent::kEnqueue);
  const std::uint64_t marks_before = inner_->stats().marked;
  const bool accepted = inner_->enqueue(slot, now);
  if (accepted) {
    tracer_.record(pending);
    // An admission that bumped the inner mark counter was an ECN CE mark
    // applied in place of an early drop (RED marks at enqueue).
    if (inner_->stats().marked > marks_before) {
      pending.event = TraceEvent::kMark;
      tracer_.record(pending);
      stats_.marked += inner_->stats().marked - marks_before;
    }
  } else {
    pending.event = TraceEvent::kDrop;
    tracer_.record(pending);
    // Mirror the inner drop into our own stats block.
    stats_.dropped += 1;
    stats_.bytes_dropped += pending.size_bytes;
  }
  return accepted;
}

TracingQueue::SlotId TracingQueue::do_dequeue(Time now) {
  const QueueStats& is = inner_->stats();
  const std::uint64_t marks_before = is.marked;
  const std::uint64_t drops_before = is.dropped;
  const std::uint64_t drop_bytes_before = is.bytes_dropped;
  const SlotId slot = inner_->dequeue(now);
  // CoDel marks at dequeue: the delivered head carries the fresh CE mark.
  if (slot != PacketPool::kNil && is.marked > marks_before) {
    tracer_.record(make_record(packet(slot), now, TraceEvent::kMark));
    stats_.marked += is.marked - marks_before;
  }
  // Mirror dequeue-time AQM drops (CoDel head drops) into the wrapper's
  // stats block like the enqueue-time ones above. The inner discipline
  // returned the dropped slots to the pool itself, so no per-packet kDrop
  // trace record can be emitted for them -- only the counters survive.
  if (is.dropped > drops_before) {
    stats_.dropped += is.dropped - drops_before;
    stats_.bytes_dropped += is.bytes_dropped - drop_bytes_before;
  }
  return slot;
}

}  // namespace qoesim::net
