// In-memory span recorder for traced runs. Spans are recorded by the
// benchmark around its calls into the program's public entry points; they
// are kept in memory and written once, at exit, as Chrome trace-event JSON
// (opens offline in Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";  // static string
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  Clock::time_point start;
  Clock::time_point end;
  double value = 0.0;  // optional payload (a count), shown as an arg
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    origin_ = Clock::now();
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  std::uint32_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint32_t parent = 0,
                       double value = 0.0);

  /// Reserves an id for a parent span whose children are recorded before
  /// it closes; close it with record_reserved.
  [[nodiscard]] std::uint32_t reserve() { return enabled_ ? ++next_id_ : 0; }
  void record_reserved(std::uint32_t id, const char* name,
                       Clock::time_point start, Clock::time_point end,
                       std::uint32_t parent = 0, double value = 0.0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"traceEvents": [...]} with complete ("X") events in
  /// microseconds since the recorder was created. Returns false on I/O
  /// failure.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::uint32_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span around a scope; records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint32_t parent = 0)
      : rec_(rec), name_(name), parent_(parent), start_(Clock::now()) {}
  ~ScopedSpan() { rec_.record(name_, start_, Clock::now(), parent_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  const char* name_;
  std::uint32_t parent_;
  Clock::time_point start_;
};

}  // namespace perfbench
