// In-memory span log for the traced run.
//
// Spans are recorded from the benchmark's own code around its calls into
// each simulator layer. A cell runs on one thread, so each cell owns its
// log and needs no locking; nesting follows the call structure, and a
// span's self time is its duration minus that of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace qoebench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";
  std::uint32_t cell = 0;    ///< grid index; spans of one cell share it
  std::int32_t parent = -1;  ///< index into the owning log, -1 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t child_ns = 0;  ///< summed duration of direct children

  std::uint64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

class SpanLog {
 public:
  /// Capacity is reserved up front so spans opened inside an allocation
  /// window (qoe.score during a web run) do not count as its allocations.
  explicit SpanLog(std::uint32_t cell) : cell_(cell) {
    spans_.reserve(256);
    open_.reserve(16);
  }

  std::size_t begin(const char* name) {
    Span s;
    s.name = name;
    s.cell = cell_;
    s.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    spans_.back().start_ns = now_ns();
    return spans_.size() - 1;
  }

  void end(std::size_t id) {
    Span& s = spans_[id];
    s.end_ns = now_ns();
    open_.pop_back();
    if (s.parent >= 0) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t cell_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span for a block.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name) : log_(log), id_(log.begin(name)) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::size_t id_;
};

}  // namespace qoebench
