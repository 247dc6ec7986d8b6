// Host-time spans recorded by the benchmark around its own calls into Knit's
// public API. Spans stay in memory and are written at exit as one Chrome
// trace-event file (src/support/trace_event.h). A disabled log still times
// every span, so the same code measures the untraced run; it only skips the
// recording, and that recording is the tracing overhead the traced run reports.
//
// Single-threaded: every span the benchmark opens is on its main thread (the
// fleet's worker threads live inside RouterFleet::Serve, one span).
#ifndef KNITBENCH_SPANS_H_
#define KNITBENCH_SPANS_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace knitbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SpanRecord {
  std::string name;  // "<module>.<call>", e.g. "driver.compile"
  int id = 0;
  int parent = -1;       // enclosing span, -1 at top level
  long long request = -1;  // spans of one build / serve / swap share this id
  double start_us = 0;   // since the log was created
  double duration_us = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::string workload);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Starts a new request id; spans opened until the next call carry it.
  long long NewRequest() { return current_request_ = next_request_++; }

  // Total duration (ms) and number of recorded spans named `name`.
  double TotalMs(const std::string& name) const;
  int Count(const std::string& name) const;
  // TotalMs / Count, or 0 when no span of that name was recorded.
  double MeanMs(const std::string& name) const;

  // Every recorded span as one Chrome trace-event JSON document.
  std::string ToChromeTrace() const;

 private:
  friend class Span;

  struct Totals {
    double total_us = 0;
    int count = 0;
  };

  std::string workload_;
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> records_;
  std::map<std::string, Totals> totals_;
  std::vector<int> open_;  // ids of the spans currently open, innermost last
  long long current_request_ = -1;
  long long next_request_ = 0;
};

// Times one call. End() (or the destructor) stops the clock and, when the log
// is enabled, records the span.
class Span {
 public:
  Span(SpanLog& log, const char* name);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Seconds from construction to the first End() call.
  double End();

 private:
  SpanLog& log_;
  const char* name_;
  Clock::time_point start_;
  int id_ = -1;
  bool ended_ = false;
  double seconds_ = 0;
};

}  // namespace knitbench

#endif  // KNITBENCH_SPANS_H_
