// In-memory span log for the benchmark's traced runs.
//
// The benchmark wraps its own calls into each library layer (fleet build,
// resolver, RackSimulation constructor and run(), analysis families,
// ShardedFleetRunner::stream()) in spans. Each span records a name, a
// start, an end, its parent span, and the id of the operation (capture or
// stream) it belongs to. Nothing is written while a pass runs; the log is
// written out once, at exit. When the log is disabled a span costs one
// branch, so untraced passes measure the program alone. The log is not
// thread-safe: work timed on pool workers is recorded afterwards by the
// owning thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t op_id{0};    // capture or stream the span belongs to
    std::int64_t parent{-1};  // index into spans(), -1 for a root span
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    [[nodiscard]] double seconds() const {
      return static_cast<double>(end_ns - start_ns) / 1e9;
    }
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its index (-1 when disabled).
  std::int64_t open(std::string name, std::int64_t op_id);
  void close(std::int64_t index);
  /// Adds a closed span timed on another thread (a capture on a pool
  /// worker), as a child of the innermost open span; returns its index (-1
  /// when disabled). Only the thread that owns the log may call it.
  std::int64_t record(std::string name, std::int64_t op_id, Clock::time_point start,
                      Clock::time_point end);

  /// A fresh operation id for one capture or stream.
  [[nodiscard]] std::int64_t next_op_id() { return next_op_id_++; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Sum of the durations of every span called `name` opened at or after
  /// index `from` (so a caller can total one pass's spans).
  [[nodiscard]] double total_seconds(const std::string& name, std::size_t from = 0) const;

  /// Writes the log as a JSON array of span objects; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_{false};
  Clock::time_point epoch_{Clock::now()};
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  // stack of open span indices
  std::int64_t next_op_id_{1};
};

/// RAII span; inert when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::int64_t op_id = 0)
      : log_{log}, index_{log.enabled() ? log.open(std::move(name), op_id) : -1} {}
  ~ScopedSpan() {
    if (index_ >= 0) log_.close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int64_t index_;
};

}  // namespace perfbench
