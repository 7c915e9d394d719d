// The benchmark's own span recorder. Spans wrap the calls the benchmark makes
// into each layer of the program (codec calls, serve calls, edit-session
// calls, socket round trips); nothing inside the program is instrumented.
// Each client thread records into its own SpanSink, so recording takes no
// lock; sinks are merged after the threads join and written as one Chrome
// trace. A null sink means "untraced": ScopedSpan then does nothing but a
// pointer test, which is what the untraced (end-to-end) runs use.
#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/report.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Microseconds since the process-wide trace origin.
inline double NowUs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin).count();
}

struct SpanRecord {
  const char* name = "";   // "<layer>.<call>", e.g. "net.response_decode"
  double start_us = 0;
  double duration_us = 0;
  int tid = 0;             // the recording sink's id
  std::uint64_t op = 0;    // operation id: spans of one request share it
  std::uint64_t parent = 0;  // index + 1 of the enclosing span in this sink, 0 = none
};

class SpanSink {
 public:
  explicit SpanSink(int tid) : tid_(tid) {}

  std::size_t Open(const char* name, std::uint64_t op) {
    SpanRecord record;
    record.name = name;
    record.tid = tid_;
    record.op = op;
    record.parent = open_.empty() ? 0 : open_.back() + 1;
    record.start_us = NowUs();
    spans_.push_back(record);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(std::size_t index) {
    spans_[index].duration_us = NowUs() - spans_[index].start_us;
    open_.pop_back();
  }
  // A span whose interval was measured elsewhere (e.g. a compile stage
  // timing the program reports about itself).
  void Emit(const char* name, double start_us, double duration_us, std::uint64_t op) {
    SpanRecord record;
    record.name = name;
    record.tid = tid_;
    record.op = op;
    record.parent = open_.empty() ? 0 : open_.back() + 1;
    record.start_us = start_us;
    record.duration_us = duration_us;
    spans_.push_back(record);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

// RAII span over one call; a no-op when `sink` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanSink* sink, const char* name, std::uint64_t op = 0) : sink_(sink) {
    if (sink_ != nullptr) {
      index_ = sink_->Open(name, op);
    }
  }
  ~ScopedSpan() {
    if (sink_ != nullptr) {
      sink_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSink* sink_;
  std::size_t index_ = 0;
};

// Span durations (microseconds) by span name, over every sink.
inline std::map<std::string, Samples> DurationsByName(const std::vector<const SpanSink*>& sinks) {
  std::map<std::string, Samples> out;
  for (const SpanSink* sink : sinks) {
    for (const SpanRecord& span : sink->spans()) {
      out[span.name].Add(span.duration_us);
    }
  }
  return out;
}

// Writes every span as a Chrome trace ("X" complete events; the layer is the
// name's prefix before the first '.'). Returns false when the file cannot
// be written.
inline bool WriteChromeTrace(const std::string& path, const std::vector<const SpanSink*>& sinks) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fputs("{\"traceEvents\": [\n", file);
  bool first = true;
  for (const SpanSink* sink : sinks) {
    for (const SpanRecord& span : sink->spans()) {
      std::string name = span.name;
      std::string layer = name.substr(0, name.find('.'));
      std::fprintf(file,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"op\": %llu, "
                   "\"parent\": %llu}}",
                   first ? "" : ",\n", name.c_str(), layer.c_str(), span.start_us,
                   span.duration_us, span.tid, static_cast<unsigned long long>(span.op),
                   static_cast<unsigned long long>(span.parent));
      first = false;
    }
  }
  std::fputs("\n], \"displayTimeUnit\": \"ms\"}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
