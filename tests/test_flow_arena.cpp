// FlowArena conformance: pooled slot lifecycle (allocate_shared through
// the arena allocator), LIFO slot-reuse order, slab growth staying flat
// through steady-state churn, cold-pool round trips, open/close counters,
// blocks outliving the arena, and a randomized allocate/free fuzz against
// a std::map reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "core/flow_arena.hpp"

namespace qoesim::core {
namespace {

/// Stand-in flow object sized like a small socket; tracks destruction so
/// tests can observe when the last shared_ptr lets go.
struct Flow {
  explicit Flow(int* graveyard = nullptr) : graveyard_(graveyard) {}
  ~Flow() {
    if (graveyard_ != nullptr) ++*graveyard_;
  }
  std::uint64_t payload[24] = {};
  int* graveyard_ = nullptr;
};

std::shared_ptr<Flow> make_flow(FlowArena& arena, int* graveyard = nullptr) {
  return std::allocate_shared<Flow>(FlowArena::Allocator<Flow>(arena),
                                    graveyard);
}

TEST(FlowArena, SlotReuseIsLifoAndSlabGrowthStaysFlat) {
  FlowArena arena;
  std::vector<std::shared_ptr<Flow>> flows;
  // First slab is 64 slots; fill it exactly.
  for (int i = 0; i < 64; ++i) flows.push_back(make_flow(arena));
  EXPECT_EQ(arena.stats().slab_growths, 1u);

  // Steady-state churn: close/replace in waves; the pool never grows
  // again and freed slots come back most-recently-freed first.
  for (int wave = 0; wave < 50; ++wave) {
    arena.note_closed();
    flows[13].reset();
    const void* freed = nullptr;
    {
      auto probe = make_flow(arena);
      freed = probe.get();
      arena.note_closed();
      // probe's slot returns to the free list here ...
    }
    flows[13] = make_flow(arena);
    // ... and LIFO reuse hands the very same memory back.
    EXPECT_EQ(static_cast<const void*>(flows[13].get()), freed);
  }
  EXPECT_EQ(arena.stats().slab_growths, 1u);
  EXPECT_EQ(arena.stats().peak_live, 64u);
  EXPECT_EQ(arena.stats().live, 64u);

  // The 65th concurrent flow doubles the pool (one more slab, 128 slots).
  flows.push_back(make_flow(arena));
  EXPECT_EQ(arena.stats().slab_growths, 2u);
}

TEST(FlowArena, PrewarmAvoidsMidRunGrowth) {
  FlowArena arena;
  {
    auto f = make_flow(arena);  // fixes the slot size
  }
  arena.prewarm(1000);
  const std::uint64_t growths = arena.stats().slab_growths;
  std::vector<std::shared_ptr<Flow>> flows;
  for (int i = 0; i < 1000; ++i) flows.push_back(make_flow(arena));
  EXPECT_EQ(arena.stats().slab_growths, growths);
}

TEST(FlowArena, ColdPoolRoundTrip) {
  FlowArena arena;
  const FlowArena::Ref cold = arena.ref();
  void* a = cold.cold_alloc(200);
  void* b = cold.cold_alloc(200);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.stats().cold_live, 2u);
  cold.cold_free(a);
  EXPECT_EQ(arena.stats().cold_live, 1u);
  // LIFO: the freed block is the next one handed out.
  EXPECT_EQ(cold.cold_alloc(200), a);
  // A larger request than the fixed cold slot size must throw, never
  // hand back an undersized block.
  EXPECT_THROW(cold.cold_alloc(4096), std::invalid_argument);
  EXPECT_EQ(arena.stats().cold_peak_live, 2u);
}

TEST(FlowArena, AllocateFreeFuzzAgainstMapReference) {
  FlowArena arena;
  std::mt19937_64 rng(20140814);
  std::map<const void*, std::shared_ptr<Flow>> live;  // reference model
  // Model of the free list: freed blocks in release order. LIFO reuse
  // means an open must hand back the most recently freed block, and only
  // an empty list may (by growing the pool) hand out a never-seen one.
  std::vector<const void*> freed;
  std::uint64_t opened = 0, closed = 0, peak = 0;

  for (int step = 0; step < 4000; ++step) {
    const bool open = live.empty() || (rng() % 100 < 55);
    if (open) {
      auto f = make_flow(arena);
      const void* at = f.get();
      ASSERT_EQ(live.count(at), 0u) << "block double-booked";
      if (!freed.empty()) {
        ASSERT_EQ(at, freed.back()) << "reuse is not LIFO";
        freed.pop_back();
      }
      live[at] = std::move(f);
      ++opened;
      peak = std::max<std::uint64_t>(peak, live.size());
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng() % live.size()));
      arena.note_closed();
      freed.push_back(it->first);
      live.erase(it);  // last owner: the block returns to the pool
      ++closed;
    }
    ASSERT_EQ(arena.stats().live, live.size());
    ASSERT_EQ(arena.stats().peak_live, peak);
  }
  EXPECT_EQ(arena.stats().flows_opened, opened);
  EXPECT_EQ(arena.stats().flows_closed, closed);

  // Teardown counts every flow still open as closed.
  arena.close_all();
  EXPECT_EQ(arena.stats().flows_closed, opened);
  EXPECT_EQ(arena.stats().live, 0u);
}

TEST(FlowArena, FlowOutlivesArena) {
  int graves = 0;
  std::shared_ptr<Flow> f;
  {
    FlowArena arena;
    f = make_flow(arena, &graves);
    arena.ref().cold_free(arena.ref().cold_alloc(200));
  }
  // The control block's allocator copy keeps the pools alive, so the
  // last owner can still return the block after the arena is gone (ASan
  // builds turn a mistake here into a use-after-free report).
  EXPECT_EQ(graves, 0);
  f.reset();
  EXPECT_EQ(graves, 1);
}

TEST(FlowArena, SlotSizeIsFixedByFirstAllocation) {
  struct Big {
    std::uint64_t payload[64] = {};
  };
  FlowArena arena;
  auto f = make_flow(arena);  // fixes slot size at sizeof control+Flow
  EXPECT_THROW(std::allocate_shared<Big>(FlowArena::Allocator<Big>(arena)),
               std::invalid_argument);
}

}  // namespace
}  // namespace qoesim::core
