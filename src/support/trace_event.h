// Chrome trace-event JSON emission (the format understood by chrome://tracing,
// Perfetto's legacy importer, and speedscope). The toolchain uses it for two
// timelines: pipeline stage timings (PipelineMetrics) and the VM profiler's
// per-component flame chart (ComponentProfile) — see DESIGN.md §9.
//
// Only the small subset of the spec we emit is modeled:
//   "X" complete events  — a named span with an explicit duration
//   "B"/"E" duration events — begin/end pairs that nest into a flame chart
//   "M" metadata events  — process/thread names for readable track labels
//
// Timestamps are microseconds (double). Callers that measure in modeled VM
// cycles simply write cycles as microseconds — the viewer's absolute unit label
// is wrong but every ratio, width, and nesting relationship is exact, which is
// what the cost model promises anyway.
#ifndef SRC_SUPPORT_TRACE_EVENT_H_
#define SRC_SUPPORT_TRACE_EVENT_H_

#include <string>
#include <vector>

namespace knit {

struct TraceEvent {
  std::string name;
  std::string category;  // "cat" — viewers use it for filtering
  char phase = 'X';      // X (complete), B (begin), E (end), M (metadata)
  double timestamp_us = 0;
  double duration_us = 0;  // X events only
  int pid = 1;
  int tid = 1;
  // Optional free-form args, already-escaped JSON *values* are not accepted:
  // both key and value are escaped on render. Rendered as {"key":"value",...}.
  std::vector<std::pair<std::string, std::string>> args;
};

// Escapes a string for inclusion inside a JSON string literal (quotes not
// included). Control characters become \u00XX.
std::string JsonEscape(const std::string& text);

// An append-only event log that renders as a JSON object with a traceEvents
// array ({"traceEvents":[...],"displayTimeUnit":"ms"}). Deterministic: output
// depends only on the appended events, in order.
class TraceEventLog {
 public:
  void Add(TraceEvent event) { events_.push_back(std::move(event)); }

  // Convenience appenders.
  void AddBegin(const std::string& name, const std::string& category, double timestamp_us,
                int pid = 1, int tid = 1);
  void AddEnd(double timestamp_us, int pid = 1, int tid = 1);
  // Names a process/thread track ("M" metadata: process_name / thread_name).
  void NameProcess(int pid, const std::string& name);
  void NameThread(int pid, int tid, const std::string& name);

  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  // Renders the full JSON document.
  std::string ToJson() const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace knit

#endif  // SRC_SUPPORT_TRACE_EVENT_H_
