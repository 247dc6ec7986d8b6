#include "src/support/diagnostics.h"

#include <sstream>

namespace knit {

std::string SourceLoc::ToString() const {
  std::ostringstream out;
  out << (file.empty() ? "<unknown>" : file);
  if (line > 0) {
    out << ":" << line;
    if (column > 0) {
      out << ":" << column;
    }
  }
  return out.str();
}

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  return loc.ToString() + ": " + SeverityName(severity) + ": " + message;
}

void Diagnostics::Error(SourceLoc loc, std::string message) {
  Add(Severity::kError, std::move(loc), std::move(message));
}

void Diagnostics::Warning(SourceLoc loc, std::string message) {
  Add(Severity::kWarning, std::move(loc), std::move(message));
}

void Diagnostics::Note(SourceLoc loc, std::string message) {
  Add(Severity::kNote, std::move(loc), std::move(message));
}

void Diagnostics::Append(const Diagnostics& other) {
  for (const Diagnostic& d : other.entries_) {
    Add(d.severity, d.loc, d.message);
  }
}

void Diagnostics::Add(Severity severity, SourceLoc loc, std::string message) {
  if (severity == Severity::kError) {
    ++error_count_;
  } else if (severity == Severity::kWarning) {
    ++warning_count_;
  }
  entries_.push_back(Diagnostic{severity, std::move(loc), std::move(message)});
}

std::string Diagnostics::ToString() const {
  std::string out;
  for (const Diagnostic& d : entries_) {
    out += d.ToString();
    out += '\n';
  }
  return out;
}

std::string Diagnostics::FirstError() const {
  for (const Diagnostic& d : entries_) {
    if (d.severity == Severity::kError) {
      return d.message;
    }
  }
  return "";
}

void Diagnostics::Clear() {
  entries_.clear();
  error_count_ = 0;
  warning_count_ = 0;
}

}  // namespace knit
