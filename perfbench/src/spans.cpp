#include "spans.h"

#include <fstream>

namespace perfbench {

std::uint32_t SpanRecorder::record(const char* name, Clock::time_point start,
                                   Clock::time_point end, std::uint32_t parent,
                                   double value) {
  if (!enabled_) return 0;
  const std::uint32_t id = ++next_id_;
  spans_.push_back({name, id, parent, start, end, value});
  return id;
}

void SpanRecorder::record_reserved(std::uint32_t id, const char* name,
                                   Clock::time_point start,
                                   Clock::time_point end, std::uint32_t parent,
                                   double value) {
  if (!enabled_) return;
  spans_.push_back({name, id, parent, start, end, value});
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out.precision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << us(s.start)
        << ", \"dur\": " << us(s.end) - us(s.start) << ", \"args\": {\"id\": "
        << s.id << ", \"parent\": " << s.parent << ", \"value\": " << s.value
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
