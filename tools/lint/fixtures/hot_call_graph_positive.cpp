// Known-positive cases for `hot-call-graph`: allocations two or more
// call levels below a QOESIM_HOT function. Beyond the first level the
// walk only follows non-member calls that resolve to exactly one project
// function, so every edge here is a free call with a unique name.
#include <string>
#include <vector>

#define QOESIM_HOT
#define QOESIM_REQUIRES_SHARD

struct Sample {
  double value = 0.0;
};

// Depth 2: on_packet -> record_sample -> append_metric.
inline void append_metric(std::vector<Sample>& series, double v) {
  series.push_back(Sample{v});  // LINT-EXPECT: hot-call-graph
}

inline void record_sample(std::vector<Sample>& series, double v) {
  append_metric(series, v);
}

// Depth 3: on_flush -> flush_metrics -> render_summary -> format_count.
inline std::string format_count(long n) {
  return std::to_string(n);  // LINT-EXPECT: hot-call-graph
}

inline std::string render_summary(long n) { return format_count(n); }

inline void flush_metrics(std::string& out, long n) {
  out = render_summary(n);
}

class FastPath {
 public:
  QOESIM_HOT void on_packet(double v) { record_sample(series_, v); }

  QOESIM_HOT void on_flush() { flush_metrics(summary_, seen_); }

  // Depth 2 through definitions whose parameter list is followed by a
  // project annotation macro: on_timer -> arm_timer -> grow_timers.
  QOESIM_HOT void on_timer() { arm_timer(); }

 private:
  void arm_timer() QOESIM_REQUIRES_SHARD { grow_timers(); }
  void grow_timers() QOESIM_REQUIRES_SHARD {
    series_.reserve(series_.size() * 2);  // LINT-EXPECT: hot-call-graph
  }

  std::vector<Sample> series_;
  std::string summary_;
  long seen_ = 0;
};
