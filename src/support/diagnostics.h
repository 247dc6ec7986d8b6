// Diagnostics: source locations and an error/warning sink shared by every phase of the
// Knit pipeline. The library never throws; phases report into a Diagnostics object and
// callers test has_errors() between phases.
#ifndef SRC_SUPPORT_DIAGNOSTICS_H_
#define SRC_SUPPORT_DIAGNOSTICS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace knit {

// A position in some named input (a .knit source, a MiniC file, or a synthetic buffer).
// Line and column are 1-based; a zero line means "no position" (whole-file or synthetic).
struct SourceLoc {
  std::string file;
  int line = 0;
  int column = 0;

  // Renders "file:line:col", omitting parts that are unknown.
  std::string ToString() const;

  static SourceLoc Unknown() { return SourceLoc{}; }
};

enum class Severity {
  kNote,
  kWarning,
  kError,
};

// Human-readable name for a severity ("note", "warning", "error").
const char* SeverityName(Severity severity);

struct Diagnostic {
  Severity severity = Severity::kError;
  SourceLoc loc;
  std::string message;

  // Renders "file:line:col: severity: message".
  std::string ToString() const;
};

// Accumulates diagnostics across pipeline phases. Not thread-safe by design: each
// compilation owns one Diagnostics.
class Diagnostics {
 public:
  void Error(SourceLoc loc, std::string message);
  void Warning(SourceLoc loc, std::string message);
  void Note(SourceLoc loc, std::string message);

  // Re-reports every entry of `other`, in order and with its severity (for
  // merging per-task or per-shard sinks into the caller's).
  void Append(const Diagnostics& other);

  bool has_errors() const { return error_count_ > 0; }
  size_t error_count() const { return error_count_; }
  size_t warning_count() const { return warning_count_; }

  const std::vector<Diagnostic>& entries() const { return entries_; }

  // All diagnostics, one per line. Empty string if none.
  std::string ToString() const;

  // First error message, or "" — convenient in tests.
  std::string FirstError() const;

  void Clear();

 private:
  void Add(Severity severity, SourceLoc loc, std::string message);

  std::vector<Diagnostic> entries_;
  size_t error_count_ = 0;
  size_t warning_count_ = 0;
};

}  // namespace knit

#endif  // SRC_SUPPORT_DIAGNOSTICS_H_
