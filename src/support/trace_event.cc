#include "src/support/trace_event.h"

#include <cstdio>

namespace knit {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

// %.3f keeps sub-microsecond precision (cycle counts rendered as µs stay exact
// well past any realistic run length) while staying locale-independent enough:
// snprintf with the C locale always uses '.'.
std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  std::string text = buffer;
  // Trim trailing zeros (and a trailing '.') so integers render as integers.
  while (!text.empty() && text.back() == '0') {
    text.pop_back();
  }
  if (!text.empty() && text.back() == '.') {
    text.pop_back();
  }
  return text;
}

}  // namespace

void TraceEventLog::AddBegin(const std::string& name, const std::string& category,
                             double timestamp_us, int pid, int tid) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'B';
  event.timestamp_us = timestamp_us;
  event.pid = pid;
  event.tid = tid;
  Add(std::move(event));
}

void TraceEventLog::AddEnd(double timestamp_us, int pid, int tid) {
  TraceEvent event;
  event.phase = 'E';
  event.timestamp_us = timestamp_us;
  event.pid = pid;
  event.tid = tid;
  Add(std::move(event));
}

void TraceEventLog::NameProcess(int pid, const std::string& name) {
  TraceEvent event;
  event.name = "process_name";
  event.phase = 'M';
  event.pid = pid;
  event.args.emplace_back("name", name);
  Add(std::move(event));
}

void TraceEventLog::NameThread(int pid, int tid, const std::string& name) {
  TraceEvent event;
  event.name = "thread_name";
  event.phase = 'M';
  event.pid = pid;
  event.tid = tid;
  event.args.emplace_back("name", name);
  Add(std::move(event));
}

std::string TraceEventLog::ToJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n{\"ph\":\"";
    out += event.phase;
    out += "\"";
    if (!event.name.empty() || event.phase != 'E') {
      out += ",\"name\":\"" + JsonEscape(event.name) + "\"";
    }
    if (!event.category.empty()) {
      out += ",\"cat\":\"" + JsonEscape(event.category) + "\"";
    }
    if (event.phase != 'M') {
      out += ",\"ts\":" + Number(event.timestamp_us);
    }
    if (event.phase == 'X') {
      out += ",\"dur\":" + Number(event.duration_us);
    }
    out += ",\"pid\":" + std::to_string(event.pid);
    out += ",\"tid\":" + std::to_string(event.tid);
    if (!event.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : event.args) {
        if (!first_arg) {
          out += ",";
        }
        first_arg = false;
        out += "\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace knit
