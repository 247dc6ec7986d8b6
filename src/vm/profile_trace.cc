#include "src/vm/profile_trace.h"

#include <cctype>
#include <cstdlib>
#include <vector>

#include "src/support/hash.h"

namespace knit {

void AppendComponentProfileTrace(const ComponentProfile& profile, const std::string& track_name,
                                 TraceEventLog& log, int pid, int tid) {
  // Timeline track: the component entry/exit events, nested like call frames.
  log.NameThread(pid, tid, track_name + " (timeline)");
  int depth = 0;
  for (const ProfileEvent& event : profile.events) {
    if (event.begin) {
      const std::string& name = event.component >= 0 && static_cast<size_t>(event.component) <
                                                            profile.component_names.size()
                                    ? profile.component_names[event.component]
                                    : "<?>";
      log.AddBegin(name, "component", static_cast<double>(event.at_cycle), pid, tid);
      ++depth;
    } else if (depth > 0) {
      log.AddEnd(static_cast<double>(event.at_cycle), pid, tid);
      --depth;
    }
  }
  // A truncated event log can leave spans open; close them at the last counted
  // cycle so viewers do not extend them to infinity.
  while (depth-- > 0) {
    log.AddEnd(static_cast<double>(profile.total_cycles), pid, tid);
  }

  // Summary track: one proportional span per component (cycles-descending, laid
  // end to end), carrying the aggregate counters as args. Present even when the
  // event log is absent (RunResult::profile snapshots).
  int summary_tid = tid + 1;
  log.NameThread(pid, summary_tid, track_name + " (per-component totals)");
  double offset = 0;
  for (const ComponentProfileEntry& entry : profile.components) {
    TraceEvent event;
    event.name = entry.component;
    event.category = "component-summary";
    event.phase = 'X';
    event.timestamp_us = offset;
    event.duration_us = static_cast<double>(entry.cycles);
    event.pid = pid;
    event.tid = summary_tid;
    event.args.emplace_back("cycles", std::to_string(entry.cycles));
    event.args.emplace_back("ifetch_stalls", std::to_string(entry.ifetch_stalls));
    event.args.emplace_back("insns", std::to_string(entry.insns));
    event.args.emplace_back("calls_in", std::to_string(entry.calls_in));
    event.args.emplace_back("calls_out", std::to_string(entry.calls_out));
    log.Add(std::move(event));
    offset += static_cast<double>(entry.cycles);
  }
}

std::string ComponentProfileTraceJson(const ComponentProfile& profile,
                                      const std::string& track_name) {
  TraceEventLog log;
  log.NameProcess(1, "knit vm");
  AppendComponentProfileTrace(profile, track_name, log);
  return log.ToJson();
}

// ---- on-disk profile documents ------------------------------------------------

std::string SerializeComponentProfile(const ComponentProfile& profile, const ProfileMeta& meta,
                                      const std::string& track_name) {
  std::string out = "{\"knit_profile\":{\n";
  out += " \"version\":" + std::to_string(meta.version);
  out += ",\"top\":\"" + JsonEscape(meta.top) + "\"";
  out += ",\"config_digest\":\"" + HexDigest(meta.config_digest) + "\"";
  out += ",\"opt_level\":" + std::to_string(meta.opt_level);
  out += ",\n \"total_cycles\":" + std::to_string(profile.total_cycles);
  out += ",\"total_ifetch_stalls\":" + std::to_string(profile.total_ifetch_stalls);
  out += ",\"total_insns\":" + std::to_string(profile.total_insns);
  out += ",\"boundary_calls\":" + std::to_string(profile.boundary_calls);
  out += ",\n \"components\":[";
  for (size_t i = 0; i < profile.components.size(); ++i) {
    const ComponentProfileEntry& entry = profile.components[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"component\":\"" + JsonEscape(entry.component) + "\"";
    out += ",\"cycles\":" + std::to_string(entry.cycles);
    out += ",\"ifetch_stalls\":" + std::to_string(entry.ifetch_stalls);
    out += ",\"insns\":" + std::to_string(entry.insns);
    out += ",\"calls_in\":" + std::to_string(entry.calls_in);
    out += ",\"calls_out\":" + std::to_string(entry.calls_out) + "}";
  }
  out += "],\n \"edges\":[";
  for (size_t i = 0; i < profile.edges.size(); ++i) {
    const BoundaryEdge& edge = profile.edges[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"caller\":\"" + JsonEscape(edge.caller) + "\"";
    out += ",\"callee\":\"" + JsonEscape(edge.callee) + "\"";
    out += ",\"calls\":" + std::to_string(edge.calls) + "}";
  }
  out += "],\n \"functions\":[";
  for (size_t i = 0; i < profile.function_calls.size(); ++i) {
    const FunctionCallCount& fn = profile.function_calls[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"function\":\"" + JsonEscape(fn.function) + "\"";
    out += ",\"calls\":" + std::to_string(fn.calls) + "}";
  }
  out += "]\n},\n";
  // The timeline half of the document: splice the trace log's own rendering in
  // after our opening brace (ToJson always renders one top-level object).
  std::string trace = ComponentProfileTraceJson(profile, track_name);
  out += trace.substr(1);
  return out;
}

namespace {

// A minimal recursive-descent JSON reader for profile documents. It understands
// just enough JSON to walk any well-formed document, materializes only the
// "knit_profile" subtree, and silently skips every field it does not recognize —
// that skip is the format's forward-compatibility rule, and the unknown-field
// tolerance test in tests/profile_test.cc pins it.
class ProfileReader {
 public:
  explicit ProfileReader(std::string_view text) : text_(text) {}

  bool Parse(LoadedProfile* out) {
    SkipWs();
    if (Peek() != '{') {
      return Fail("profile document is not a JSON object");
    }
    bool saw_profile = false;
    if (!ParseObject([&](const std::string& key) {
          if (key == "knit_profile") {
            saw_profile = true;
            return ParseKnitProfile(out);
          }
          return SkipValue();  // traceEvents, displayTimeUnit, future keys
        })) {
      return false;
    }
    if (!saw_profile) {
      return Fail("no \"knit_profile\" block (is this a plain trace file?)");
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool ParseKnitProfile(LoadedProfile* out) {
    bool saw_version = false;
    if (!ParseObject([&](const std::string& key) {
          if (key == "version") {
            saw_version = true;
            long long version = 0;
            if (!ParseInt(&version)) {
              return false;
            }
            out->meta.version = static_cast<int>(version);
            return true;
          }
          if (key == "top") {
            return ParseString(&out->meta.top);
          }
          if (key == "config_digest") {
            std::string hex;
            if (!ParseString(&hex)) {
              return false;
            }
            out->meta.config_digest = std::strtoull(hex.c_str(), nullptr, 16);
            return true;
          }
          if (key == "opt_level") {
            long long level = 0;
            if (!ParseInt(&level)) {
              return false;
            }
            out->meta.opt_level = static_cast<int>(level);
            return true;
          }
          if (key == "total_cycles") {
            return ParseInt(&out->profile.total_cycles);
          }
          if (key == "total_ifetch_stalls") {
            return ParseInt(&out->profile.total_ifetch_stalls);
          }
          if (key == "total_insns") {
            return ParseInt(&out->profile.total_insns);
          }
          if (key == "boundary_calls") {
            return ParseInt(&out->profile.boundary_calls);
          }
          if (key == "components") {
            return ParseArray([&] {
              ComponentProfileEntry entry;
              if (!ParseObject([&](const std::string& field) {
                    if (field == "component") {
                      return ParseString(&entry.component);
                    }
                    if (field == "cycles") {
                      return ParseInt(&entry.cycles);
                    }
                    if (field == "ifetch_stalls") {
                      return ParseInt(&entry.ifetch_stalls);
                    }
                    if (field == "insns") {
                      return ParseInt(&entry.insns);
                    }
                    if (field == "calls_in") {
                      return ParseInt(&entry.calls_in);
                    }
                    if (field == "calls_out") {
                      return ParseInt(&entry.calls_out);
                    }
                    return SkipValue();
                  })) {
                return false;
              }
              out->profile.components.push_back(std::move(entry));
              return true;
            });
          }
          if (key == "edges") {
            return ParseArray([&] {
              BoundaryEdge edge;
              if (!ParseObject([&](const std::string& field) {
                    if (field == "caller") {
                      return ParseString(&edge.caller);
                    }
                    if (field == "callee") {
                      return ParseString(&edge.callee);
                    }
                    if (field == "calls") {
                      return ParseInt(&edge.calls);
                    }
                    return SkipValue();
                  })) {
                return false;
              }
              out->profile.edges.push_back(std::move(edge));
              return true;
            });
          }
          if (key == "functions") {
            return ParseArray([&] {
              FunctionCallCount fn;
              if (!ParseObject([&](const std::string& field) {
                    if (field == "function") {
                      return ParseString(&fn.function);
                    }
                    if (field == "calls") {
                      return ParseInt(&fn.calls);
                    }
                    return SkipValue();
                  })) {
                return false;
              }
              out->profile.function_calls.push_back(std::move(fn));
              return true;
            });
          }
          return SkipValue();
        })) {
      return false;
    }
    if (!saw_version) {
      return Fail("\"knit_profile\" has no \"version\" field");
    }
    return true;
  }

  // `field` is called with each key; it must consume the value (or SkipValue).
  template <typename Fn>
  bool ParseObject(Fn field) {
    if (!Expect('{')) {
      return false;
    }
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      std::string key;
      if (!ParseString(&key) || !Expect(':') || !field(key)) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        SkipWs();
        continue;
      }
      return Expect('}');
    }
  }

  // `element` must consume one array element.
  template <typename Fn>
  bool ParseArray(Fn element) {
    if (!Expect('[')) {
      return false;
    }
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!element()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        SkipWs();
        continue;
      }
      return Expect(']');
    }
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (!Expect('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(), nullptr, 16));
          pos_ += 4;
          // Components and symbols are ASCII; anything else round-trips as UTF-8.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("bad string escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseInt(long long* out) {
    SkipWs();
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected an integer");
    }
    // Fractions/exponents never appear in fields we keep; reject them rather
    // than silently truncate.
    if (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      return Fail("expected an integer, found a real number");
    }
    *out = std::strtoll(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr, 10);
    return true;
  }

  // Consumes any well-formed JSON value without keeping it. Nesting is bounded
  // (a recorded document nests four levels), so a hostile one cannot exhaust
  // the stack.
  bool SkipValue() {
    if (skip_depth_ == kMaxSkipDepth) {
      return Fail("values nested more than " + std::to_string(kMaxSkipDepth) + " levels deep");
    }
    ++skip_depth_;
    const bool ok = SkipAnyValue();
    --skip_depth_;
    return ok;
  }

  bool SkipAnyValue() {
    SkipWs();
    char c = Peek();
    if (c == '{') {
      return ParseObject([&](const std::string&) { return SkipValue(); });
    }
    if (c == '[') {
      return ParseArray([&] { return SkipValue(); });
    }
    if (c == '"') {
      std::string discard;
      return ParseString(&discard);
    }
    size_t start = pos_;
    while (pos_ < text_.size() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                                   text_[pos_] == '-' || text_[pos_] == '+' ||
                                   text_[pos_] == '.')) {
      ++pos_;
    }
    return pos_ > start || Fail("expected a JSON value");
  }

  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool Expect(char c) {
    SkipWs();
    if (Peek() != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  static constexpr int kMaxSkipDepth = 64;

  std::string_view text_;
  size_t pos_ = 0;
  int skip_depth_ = 0;
  std::string error_;
};

}  // namespace

uint64_t ProfileDigest(const LoadedProfile& profile) {
  Fnv64 hasher;
  hasher.Update("knit-profile-v1");
  hasher.Update(profile.meta.version);
  hasher.Update(profile.meta.top);
  hasher.Update(profile.meta.config_digest);
  hasher.Update(profile.meta.opt_level);
  hasher.Update(static_cast<uint64_t>(profile.profile.total_cycles));
  hasher.Update(static_cast<uint64_t>(profile.profile.total_ifetch_stalls));
  hasher.Update(static_cast<uint64_t>(profile.profile.total_insns));
  hasher.Update(static_cast<uint64_t>(profile.profile.boundary_calls));
  hasher.Update(static_cast<uint64_t>(profile.profile.components.size()));
  for (const ComponentProfileEntry& entry : profile.profile.components) {
    hasher.Update(entry.component);
    hasher.Update(static_cast<uint64_t>(entry.cycles));
    hasher.Update(static_cast<uint64_t>(entry.ifetch_stalls));
    hasher.Update(static_cast<uint64_t>(entry.insns));
    hasher.Update(static_cast<uint64_t>(entry.calls_in));
    hasher.Update(static_cast<uint64_t>(entry.calls_out));
  }
  hasher.Update(static_cast<uint64_t>(profile.profile.edges.size()));
  for (const BoundaryEdge& edge : profile.profile.edges) {
    hasher.Update(edge.caller);
    hasher.Update(edge.callee);
    hasher.Update(static_cast<uint64_t>(edge.calls));
  }
  hasher.Update(static_cast<uint64_t>(profile.profile.function_calls.size()));
  for (const FunctionCallCount& fn : profile.profile.function_calls) {
    hasher.Update(fn.function);
    hasher.Update(static_cast<uint64_t>(fn.calls));
  }
  return hasher.digest();
}

Result<LoadedProfile> ParseComponentProfile(std::string_view json, Diagnostics& diags) {
  LoadedProfile loaded;
  ProfileReader reader(json);
  if (!reader.Parse(&loaded)) {
    diags.Error(SourceLoc::Unknown(), "bad profile document: " + reader.error());
    return Result<LoadedProfile>::Failure();
  }
  if (loaded.meta.version > kProfileFormatVersion) {
    diags.Error(SourceLoc::Unknown(),
                "profile format version " + std::to_string(loaded.meta.version) +
                    " is newer than this knitc understands (max " +
                    std::to_string(kProfileFormatVersion) + ")");
    return Result<LoadedProfile>::Failure();
  }
  return loaded;
}

}  // namespace knit
