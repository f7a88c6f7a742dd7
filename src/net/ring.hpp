// qoesim -- growable power-of-two FIFO ring.
//
// Ring<T> is the one FIFO container of the packet hot path: queue
// disciplines keep their PacketPool slot ids in it, a Link keeps its
// propagating packets in it (WireRing), and a mailbox inbox keeps its
// admitted cross-shard records in it. Capacity starts empty, doubles
// lazily when a push finds the ring full, and never shrinks, so a ring
// stops allocating once it has held its peak population. Index math is a
// mask, not a modulo.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace qoesim::net {

/// A plain container like std::vector: the shard-plane owner holding it
/// carries the shard contract.
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Oldest element. Precondition: !empty().
  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  void push(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Drop the oldest element. Precondition: !empty().
  void pop() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  // The cold branch of push().
  void grow() {
    // Unroll into the doubled buffer so the live elements occupy
    // [0, size_).
    // qoesim-lint: allow(hot-alloc) -- geometric growth, bounded by the owner's peak population; free once reached
    std::vector<T> bigger(buf_.empty() ? 8 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace qoesim::net
