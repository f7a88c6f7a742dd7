// Heap-allocation counting for mem.allocs_per_kevent.
//
// alloc_count.cpp replaces the global operator new/delete of the qoebench
// binary. Counting is off unless a window is open, so untraced runs pay
// one thread-local load and one relaxed atomic load per allocation.
#pragma once

#include <cstdint>

namespace qoebench::alloc {

/// Count allocations made by the calling thread until end_thread_window.
/// Sweep cells run start to finish on one worker thread, so a window
/// opened around a cell's run_until attributes exactly that cell's work.
void begin_thread_window();
std::uint64_t end_thread_window();

/// Count allocations on every thread, including threads started inside
/// the window (the PDES shard workers). Per-thread counters are summed.
void begin_global_window();
std::uint64_t end_global_window();

}  // namespace qoebench::alloc
