#include "knitbench/spans.h"

#include <utility>

#include "src/support/trace_event.h"

namespace knitbench {

SpanLog::SpanLog(std::string workload) : workload_(std::move(workload)) {}

double SpanLog::TotalMs(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.total_us / 1e3;
}

int SpanLog::Count(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.count;
}

double SpanLog::MeanMs(const std::string& name) const {
  int count = Count(name);
  return count == 0 ? 0 : TotalMs(name) / count;
}

std::string SpanLog::ToChromeTrace() const {
  knit::TraceEventLog log;
  log.NameProcess(1, "knitbench " + workload_);
  log.NameThread(1, 1, "bench main thread");
  for (const SpanRecord& span : records_) {
    knit::TraceEvent event;
    event.name = span.name;
    event.category = span.name.substr(0, span.name.find('.'));
    event.timestamp_us = span.start_us;
    event.duration_us = span.duration_us;
    event.args = {{"workload", workload_},
                  {"span", std::to_string(span.id)},
                  {"parent", std::to_string(span.parent)},
                  {"request", std::to_string(span.request)}};
    log.Add(std::move(event));
  }
  return log.ToJson();
}

Span::Span(SpanLog& log, const char* name) : log_(log), name_(name) {
  if (log_.enabled_) {
    id_ = static_cast<int>(log_.records_.size());
    SpanRecord record;
    record.name = name_;
    record.id = id_;
    record.parent = log_.open_.empty() ? -1 : log_.open_.back();
    record.request = log_.current_request_;
    log_.records_.push_back(std::move(record));
    log_.open_.push_back(id_);
  }
  start_ = Clock::now();
}

double Span::End() {
  if (ended_) {
    return seconds_;
  }
  const Clock::time_point end = Clock::now();
  ended_ = true;
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (id_ >= 0) {
    SpanRecord& record = log_.records_[id_];
    record.start_us =
        std::chrono::duration<double, std::micro>(start_ - log_.origin_).count();
    record.duration_us = seconds_ * 1e6;
    SpanLog::Totals& totals = log_.totals_[record.name];
    totals.total_us += record.duration_us;
    ++totals.count;
    log_.open_.pop_back();
  }
  return seconds_;
}

}  // namespace knitbench
