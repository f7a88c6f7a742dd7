// qoesim -- pooled per-flow state arena (fixed-size block pools with slab
// growth and LIFO free-list reuse).
//
// The transport plane's answer to the slab/free-list pattern the scheduler
// arena, packet pool and flat demux table proved out: every node owns one
// FlowArena, and every TcpSocket the node originates or accepts lives
// inside it -- control block and object in one fixed-size pooled block
// (std::allocate_shared through FlowArena::Allocator), so steady-state
// flow churn allocates nothing once the slabs are warm.
//
// The arena holds two instances of one block pool: the hot pool for the
// socket blocks, and the cold pool for lazily attached cold flow state
// (SACK scoreboard, out-of-order set, retransmit marks) -- grabbed on the
// first loss or reorder event, handed back when the flow returns to steady
// state. The arena owns memory only: a socket's one owner is its
// shared_ptr (held by the node's demux binding while bound, and by the
// application if it keeps one).
//
// Lifetime: the pools live in a shared Core, so a socket an application
// still references after its node died can return its blocks safely --
// every allocator copy inside a control block, and every Ref, keeps the
// Core alive.
//
// Single-shard ownership: like the rest of a node, the arena is mutated
// only from the shard running the node's simulation; it carries no locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

namespace qoesim::core {

class FlowArena {
 private:
  struct Core;  // pools + stats; shared with every Ref/Allocator

 public:
  struct Stats {
    std::uint64_t flows_opened = 0;   ///< hot blocks allocated
    std::uint64_t flows_closed = 0;   ///< note_closed() + close_all()
    std::uint64_t live = 0;           ///< opened, not yet closed
    std::uint64_t peak_live = 0;
    std::uint64_t slab_growths = 0;   ///< hot slab allocations
    std::uint64_t slot_bytes = 0;     ///< hot block size (control block + socket)
    std::uint64_t cold_allocs = 0;
    std::uint64_t cold_frees = 0;
    std::uint64_t cold_live = 0;
    std::uint64_t cold_peak_live = 0;
    std::uint64_t cold_slot_bytes = 0;
  };

  FlowArena() : core_(std::make_shared<Core>()) {}
  FlowArena(const FlowArena&) = delete;
  FlowArena& operator=(const FlowArena&) = delete;

  /// A flow closed (its demux binding was dropped). The block itself
  /// returns to the pool when the last shared_ptr lets go.
  void note_closed() {
    ++core_->stats.flows_closed;
    --core_->stats.live;
  }
  /// Node teardown: every flow still open counts as closed.
  void close_all() {
    core_->stats.flows_closed += core_->stats.live;
    core_->stats.live = 0;
  }

  /// Cold-state pool token (fixed-size lazily attached blocks). Sockets
  /// keep one: it shares ownership of the pools, so a socket an
  /// application still holds stays safe even after the owning node died.
  class Ref {
   public:
    Ref() = default;
    void* cold_alloc(std::size_t bytes) const {
      return core_->cold_alloc(bytes);
    }
    void cold_free(void* p) const { core_->cold_free(p); }

   private:
    friend class FlowArena;
    explicit Ref(std::shared_ptr<Core> core) : core_(std::move(core)) {}
    std::shared_ptr<Core> core_;
  };
  Ref ref() const { return Ref(core_); }

  /// Pre-grow the hot pool so `flows` concurrent flows (of `slot_bytes`
  /// each, as observed after the first allocation) fit without slab
  /// growth mid-run. No-op before the first allocation fixes the size.
  void prewarm(std::size_t flows) {
    core_->hot.reserve(flows);
    core_->stats.slab_growths = core_->hot.slabs();
  }

  const Stats& stats() const { return core_->stats; }

  // ---- allocator plumbing ---------------------------------------------------

  /// Minimal allocator over the hot pool for std::allocate_shared: one
  /// combined control-block+object allocation per flow, pooled. Each copy
  /// (one lives in every control block) keeps the Core alive, so a socket
  /// outliving its node still returns its block safely.
  template <typename T>
  class Allocator {
   public:
    using value_type = T;
    explicit Allocator(const FlowArena& arena) : core_(arena.core_) {}
    template <typename U>
    Allocator(const Allocator<U>& o) : core_(o.core_) {}

    T* allocate(std::size_t n) {
      return static_cast<T*>(core_->open(n * sizeof(T), alignof(T)));
    }
    void deallocate(T* p, std::size_t) { core_->hot.free(p); }

    template <typename U>
    bool operator==(const Allocator<U>& o) const {
      return core_ == o.core_;
    }

   private:
    template <typename U>
    friend class Allocator;
    std::shared_ptr<Core> core_;
  };

 private:
  /// Fixed-size block pool: the first allocation fixes the block size;
  /// slabs double from 64 blocks; the free list is LIFO and hands out the
  /// lowest address of a fresh slab first (deterministic reuse order).
  class BlockPool {
   public:
    void* allocate(std::size_t bytes, std::size_t align) {
      bytes = (bytes + alignof(std::max_align_t) - 1) /
              alignof(std::max_align_t) * alignof(std::max_align_t);
      if (align > alignof(std::max_align_t)) {
        throw std::invalid_argument("FlowArena: over-aligned block type");
      }
      if (block_bytes_ == 0) {
        block_bytes_ = bytes;
      } else if (bytes > block_bytes_) {
        throw std::invalid_argument("FlowArena: block size already fixed");
      }
      if (free_.empty()) grow();
      void* p = free_.back();
      free_.pop_back();
      return p;
    }

    void free(void* p) {
      // qoesim-lint: allow(hot-alloc) -- free-list capacity reserved by grow(); never reallocates
      free_.push_back(p);
    }

    void reserve(std::size_t blocks) {
      if (block_bytes_ == 0) return;
      while (free_.size() < blocks) grow();
    }

    std::size_t block_bytes() const { return block_bytes_; }
    std::uint64_t slabs() const { return slabs_.size(); }

   private:
    void grow() {
      const std::size_t n = next_slab_blocks_;
      next_slab_blocks_ *= 2;
      // qoesim-lint: allow(hot-alloc) -- slab growth; free in steady state once the pool warms up
      auto slab = std::make_unique<unsigned char[]>(n * block_bytes_);
      for (std::size_t i = n; i > 0; --i) {
        // qoesim-lint: allow(hot-alloc) -- capacity grows with the slab; never reallocates afterwards
        free_.push_back(slab.get() + (i - 1) * block_bytes_);
      }
      // qoesim-lint: allow(hot-alloc) -- one entry per slab growth (geometric)
      slabs_.push_back(std::move(slab));
    }

    std::vector<std::unique_ptr<unsigned char[]>> slabs_;
    std::vector<void*> free_;
    std::size_t block_bytes_ = 0;
    std::size_t next_slab_blocks_ = 64;
  };

  struct Core {
    Stats stats;
    BlockPool hot;
    BlockPool cold;

    void* open(std::size_t bytes, std::size_t align) {
      void* p = hot.allocate(bytes, align);
      stats.slot_bytes = hot.block_bytes();
      stats.slab_growths = hot.slabs();
      ++stats.flows_opened;
      if (++stats.live > stats.peak_live) stats.peak_live = stats.live;
      return p;
    }

    void* cold_alloc(std::size_t bytes) {
      void* p = cold.allocate(bytes, alignof(std::max_align_t));
      stats.cold_slot_bytes = cold.block_bytes();
      ++stats.cold_allocs;
      if (++stats.cold_live > stats.cold_peak_live) {
        stats.cold_peak_live = stats.cold_live;
      }
      return p;
    }

    void cold_free(void* p) {
      cold.free(p);
      ++stats.cold_frees;
      --stats.cold_live;
    }
  };

  std::shared_ptr<Core> core_;
};

}  // namespace qoesim::core
