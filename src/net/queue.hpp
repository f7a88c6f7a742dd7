// qoesim -- queue discipline interface.
//
// A QueueDiscipline sits in front of a link transmitter; it decides, per
// packet, whether to admit, drop, or (for AQM schemes) mark-by-drop. All
// disciplines share a stats block so the experiment harness can read loss
// rates uniformly. The paper's testbeds use drop-tail buffers sized in
// packets; RED and CoDel are provided for the AQM ablation benchmark.
//
// A discipline never stores packets itself. The packets live in the
// PacketPool of the Link the discipline is attached to (see
// packet_pool.hpp); the discipline holds their 4-byte slot ids in a Ring,
// reads or CE-marks a packet in place through the pool, and returns the
// slot to the pool when it drops the packet, at the tail or at dequeue.
//
// The base class is also the one place queue events are traced: with a
// BinaryTracer set (BinaryTracer::observe_link does it for a link's
// queue), enqueue(), drop() and apply_mark() record kEnqueue, kDrop and
// kMark, so every discipline's tail, early and head drops are traced
// alike. Without a tracer the cost is one null-pointer branch each.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/annotations.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/trace_binary.hpp"
#include "sim/time.hpp"

namespace qoesim::net {

struct QueueStats {
  std::uint64_t offered = 0;         ///< enqueue attempts
  std::uint64_t enqueued = 0;        ///< accepted packets
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;         ///< tail drops + AQM drops
  std::uint64_t marked = 0;          ///< CE marks applied instead of drops
  std::uint64_t bytes_offered = 0;
  std::uint64_t bytes_dropped = 0;
  std::uint64_t max_packets_seen = 0;

  double drop_rate() const {
    return offered ? static_cast<double>(dropped) / static_cast<double>(offered)
                   : 0.0;
  }
  double mark_rate() const {
    return offered ? static_cast<double>(marked) / static_cast<double>(offered)
                   : 0.0;
  }
};

class QueueDiscipline {
 public:
  using SlotId = PacketPool::SlotId;

  explicit QueueDiscipline(std::size_t capacity_packets)
      : capacity_(capacity_packets) {}
  virtual ~QueueDiscipline() = default;

  QueueDiscipline(const QueueDiscipline&) = delete;
  QueueDiscipline& operator=(const QueueDiscipline&) = delete;

  /// Bind the pool holding this discipline's packets. The Link does this
  /// when it is built; a discipline driven on its own needs a pool
  /// attached before its first enqueue.
  void attach(PacketPool& pool) { pool_ = &pool; }

  /// Record this discipline's enqueue/drop/mark events into `tracer`
  /// (nullptr stops tracing), tagged with tap point `point`. The tracer
  /// must outlive every later enqueue/dequeue.
  void set_tracer(BinaryTracer* tracer, std::uint16_t point) {
    tracer_ = tracer;
    trace_point_ = point;
  }

  /// Offer the packet in pool slot `slot` at time `now`. Returns true if
  /// admitted; on admission the packet's `enqueued_at` is stamped for
  /// delay accounting. A dropped packet's slot goes back to the pool.
  bool enqueue(SlotId slot, Time now);

  /// Remove the next packet to transmit and return its slot, or
  /// PacketPool::kNil if empty. The caller owns the returned slot. AQM
  /// schemes may drop head packets here (counted in stats, slots
  /// returned to the pool).
  SlotId dequeue(Time now);

  virtual std::size_t packet_count() const = 0;
  virtual std::size_t byte_count() const = 0;
  bool empty() const { return packet_count() == 0; }

  /// Called by the Link this discipline is attached to with the drain rate
  /// of its transmitter. Disciplines that convert times to packet counts
  /// (RED's idle decay) use it; others ignore it.
  virtual void set_drain_rate(double /*bps*/) {}

  /// Enable ECN: AQM schemes (RED, CoDel) CE-mark ECT packets where they
  /// would otherwise early-drop (RFC 3168 §5 / RFC 8289 §4.2). Hard tail
  /// drops of a full buffer still drop, and Not-ECT packets are always
  /// dropped. Disciplines without an early-drop decision ignore the flag.
  void set_ecn_marking(bool on) { ecn_marking_ = on; }
  bool ecn_marking() const { return ecn_marking_; }

  std::size_t capacity_packets() const { return capacity_; }
  const QueueStats& stats() const { return stats_; }
  virtual std::string name() const = 0;

 protected:
  /// Admission decision + storage; return true if stored. A discipline
  /// that refuses the packet calls drop(slot, now) before returning false.
  virtual bool do_enqueue(SlotId slot, Time now) = 0;
  virtual SlotId do_dequeue(Time now) = 0;

  /// The packet in `slot` of the attached pool. Static-only shard bridge
  /// (the virtual interface carries no annotation): callers were checked
  /// upstream in Link::send / the Link's tx event.
  Packet& packet(SlotId slot) const {
    shard_plane.assert_held();
    return pool_->at(slot);
  }

  /// Count (and trace) the packet in `slot` as dropped at `now` and
  /// return the slot to the pool.
  void drop(SlotId slot, Time now) {
    shard_plane.assert_held();
    const Packet& p = pool_->at(slot);
    ++stats_.dropped;
    stats_.bytes_dropped += p.size_bytes;
    if (tracer_ != nullptr) {
      tracer_->record(p, now, TraceEvent::kDrop, trace_point_);
    }
    pool_->discard(slot);
  }

  /// True when this packet may be CE-marked instead of dropped.
  bool can_mark(const Packet& p) const {
    return ecn_marking_ && is_ect(p.ecn);
  }

  /// Apply a CE mark at `now` in place of a drop (caller keeps/delivers
  /// the packet).
  void apply_mark(Packet& p, Time now) {
    p.ecn = Ecn::kCe;
    ++stats_.marked;
    if (tracer_ != nullptr) {
      tracer_->record(p, now, TraceEvent::kMark, trace_point_);
    }
  }

  std::size_t capacity_;
  QueueStats stats_;
  bool ecn_marking_ = false;
  PacketPool* pool_ = nullptr;
  BinaryTracer* tracer_ = nullptr;
  std::uint16_t trace_point_ = 0;
};

/// Which discipline to instantiate (scenario configuration).
enum class QueueKind { kDropTail, kRed, kCoDel, kPriority };

/// Seed for randomized disciplines when no per-scenario seed is plumbed
/// through make_queue (RedQueue::kDefaultSeed aliases it).
inline constexpr std::uint64_t kDefaultQueueSeed = 0x52454421ull;

/// Instantiate a discipline. `seed` feeds the randomized schemes (RED's
/// drop lottery); callers building per-scenario topologies should derive
/// it from the scenario seed (Topology does) so sweep cells do not share
/// one drop sequence. The default keeps seedless call sites reproducible.
std::unique_ptr<QueueDiscipline> make_queue(
    QueueKind kind, std::size_t capacity_packets,
    std::uint64_t seed = kDefaultQueueSeed);

const char* to_string(QueueKind kind);

}  // namespace qoesim::net
