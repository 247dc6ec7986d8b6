#include "src/vm/machine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/vm/verify.h"

namespace knit {

namespace {
constexpr uint32_t kStackBytes = 1 << 20;
constexpr int kNoPrediction = std::numeric_limits<int>::min();  // empty BTB entry

// VM memory is little-endian; on a little-endian host a word is one memcpy.
static_assert(std::endian::native == std::endian::little,
              "the VM's word access assumes a little-endian host");

uint32_t LoadWord(const uint8_t* at) {
  uint32_t value;
  std::memcpy(&value, at, 4);
  return value;
}

void StoreWord(uint8_t* at, uint32_t value) { std::memcpy(at, &value, 4); }
}  // namespace

std::string ComponentProfile::ToText(size_t max_edges) const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line), "  %-32s %12s %6s %10s %10s %9s %9s\n", "component",
                "cycles", "cyc%", "stalls", "insns", "calls-in", "calls-out");
  out += line;
  for (const ComponentProfileEntry& entry : components) {
    double share = total_cycles > 0 ? 100.0 * double(entry.cycles) / double(total_cycles) : 0;
    std::snprintf(line, sizeof(line), "  %-32s %12lld %5.1f%% %10lld %10lld %9lld %9lld\n",
                  entry.component.c_str(), entry.cycles, share, entry.ifetch_stalls,
                  entry.insns, entry.calls_in, entry.calls_out);
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-32s %12lld %5.1f%% %10lld %10lld\n", "total",
                total_cycles, components.empty() ? 0.0 : 100.0, total_ifetch_stalls,
                total_insns);
  out += line;
  std::snprintf(line, sizeof(line), "  boundary calls: %lld\n", boundary_calls);
  out += line;
  if (total_bytes_alloc > 0 || total_bytes_freed > 0) {
    std::snprintf(line, sizeof(line), "  heap: %lld bytes allocated, %lld freed\n",
                  total_bytes_alloc, total_bytes_freed);
    out += line;
    for (const ComponentProfileEntry& entry : components) {
      if (entry.bytes_alloc == 0 && entry.bytes_freed == 0) {
        continue;
      }
      std::snprintf(line, sizeof(line), "    %-30s alloc %10lld  freed %10lld  peak %10lld\n",
                    entry.component.c_str(), entry.bytes_alloc, entry.bytes_freed,
                    entry.live_peak);
      out += line;
    }
  }
  size_t shown = 0;
  for (const BoundaryEdge& edge : edges) {
    if (edge.caller == edge.callee) {
      continue;  // intra-component rows are not boundaries
    }
    if (shown == max_edges) {
      out += "  ... (more edges elided)\n";
      break;
    }
    std::snprintf(line, sizeof(line), "    %-30s -> %-30s %10lld calls\n",
                  edge.caller.c_str(), edge.callee.c_str(), edge.calls);
    out += line;
    ++shown;
  }
  return out;
}

Machine::Machine(const Image& image, CostModel cost, uint32_t memory_bytes)
    : image_(image),
      cost_(cost),
      memory_(memory_bytes),
      max_insns_(cost.max_insns),
      icache_(cost.icache_bytes, cost.icache_line, cost.icache_ways) {
  assert(image.data_base >= kNullGuardBytes);
  // Load the data image; every other byte reads zero without being written.
  std::copy(image.data.begin(), image.data.end(), memory_.data() + image.data_base);
  heap_end_ = image.data_base + static_cast<uint32_t>(image.data.size());
  heap_end_ = (heap_end_ + 0xFFF) & ~0xFFFu;  // page align
  stack_pointer_ = memory_bytes;

  VerifyResult verified = VerifyImage(image);
  verify_error_ = verified.error;
  AdoptFunctions(verified);
  natives_.resize(image.natives.size());
  BindBuiltins();
}

void Machine::AdoptFunctions(const VerifyResult& verified) {
  const size_t first = function_info_.size();
  for (size_t f = first; f < image_.functions.size(); ++f) {
    FunctionInfo info;
    info.max_depth = verified.ok() ? verified.max_depth[f - first] : -1;
    info.site_base = call_sites_;
    const BytecodeFunction& function = image_.functions[f];
    const uint32_t text_base = static_cast<uint32_t>(function.text_offset);
    for (size_t pc = 0; pc < function.code.size(); ++pc) {
      icache_slots_.push_back(icache_.Locate(text_base + static_cast<uint32_t>(pc) * 4));
    }
    call_sites_ += static_cast<int>(function.code.size());
    function_info_.push_back(info);
  }
  btb_.resize(static_cast<size_t>(call_sites_), kNoPrediction);
}

void Machine::BindBuiltins() {
  BindNative("__sbrk", [](Machine& m, std::span<const uint32_t> args) {
    return m.Sbrk(args.empty() ? 0 : args[0]);
  });
  BindNative("__putchar", [](Machine& m, std::span<const uint32_t> args) {
    if (!args.empty()) {
      m.console_ += static_cast<char>(args[0] & 0xFF);
    }
    return 0u;
  });
  BindNative("__cycles", [](Machine& m, std::span<const uint32_t>) {
    return static_cast<uint32_t>(m.cycles_);
  });
  BindNative("__vararg_count", [](Machine& m, std::span<const uint32_t>) {
    return static_cast<uint32_t>(m.CurrentVarargCount());
  });
  BindNative("__vararg", [](Machine& m, std::span<const uint32_t> args) {
    return m.CurrentVararg(args.empty() ? 0 : static_cast<int>(args[0]));
  });
  BindNative("__abort", [](Machine& m, std::span<const uint32_t> args) {
    m.Trap("program aborted (code " + std::to_string(args.empty() ? 0 : args[0]) + ")");
    return 0u;
  });
  BindNative("__trace", [](Machine& m, std::span<const uint32_t> args) {
    m.console_ += "[trace " + std::to_string(args.empty() ? 0 : static_cast<int32_t>(args[0])) +
                  "]";
    return 0u;
  });
  // Heap accounting intrinsics: allocator units report each SUCCESSFUL
  // malloc/free so the machine can keep exact totals (and, while profiling,
  // per-requester attribution) without knowing any allocator's internals.
  BindNative("__alloc_note", [](Machine& m, std::span<const uint32_t> args) {
    m.NoteAlloc(args.empty() ? 0 : args[0]);
    return 0u;
  });
  BindNative("__free_note", [](Machine& m, std::span<const uint32_t> args) {
    m.NoteFree(args.empty() ? 0 : args[0]);
    return 0u;
  });
}

void Machine::BindNative(const std::string& name, NativeFn fn) {
  for (size_t n = 0; n < image_.natives.size(); ++n) {
    if (image_.natives[n] == name) {
      natives_[n] = fn;
    }
  }
}

void Machine::ResetCounters() {
  cycles_ = 0;
  ifetch_stalls_ = 0;
  insns_ = 0;
}

void Machine::EnableProfiling(size_t max_events) {
  profiling_ = true;
  max_profile_events_ = max_events;
  profile_components_.clear();
  function_component_.assign(image_.functions.size(), -1);
  std::map<std::string, int> ids;
  auto intern = [&](const std::string& name) {
    auto [it, inserted] = ids.emplace(name, static_cast<int>(profile_components_.size()));
    if (inserted) {
      profile_components_.push_back(name);
    }
    return it->second;
  };
  for (size_t f = 0; f < image_.functions.size(); ++f) {
    const std::string& component = image_.functions[f].component;
    function_component_[f] = intern(component.empty() ? "<other>" : component);
  }
  env_component_ = intern("<env>");
  ResetProfile();
}

void Machine::ResetProfile() {
  profile_cycles_.assign(profile_components_.size(), 0);
  profile_stalls_.assign(profile_components_.size(), 0);
  profile_insns_.assign(profile_components_.size(), 0);
  profile_alloc_.assign(profile_components_.size(), 0);
  profile_freed_.assign(profile_components_.size(), 0);
  profile_live_.assign(profile_components_.size(), 0);
  profile_live_peak_.assign(profile_components_.size(), 0);
  profile_fn_calls_.assign(image_.functions.size(), 0);
  profile_edges_.clear();
  profile_events_.clear();
  profile_events_truncated_ = false;
}

void Machine::ProfileCall(int caller_component, int callee_component) {
  if (caller_component < 0) {
    return;  // host-initiated call: there is no caller bucket
  }
  ++profile_edges_[{caller_component, callee_component}];
}

void Machine::ProfileMark(int component, bool begin) {
  if (profile_events_.size() >= max_profile_events_) {
    profile_events_truncated_ = true;
    return;
  }
  profile_events_.push_back(ProfileEvent{component, begin, cycles_});
}

ComponentProfile Machine::Profile(bool include_events) const {
  ComponentProfile out;
  size_t count = profile_components_.size();
  if (count == 0) {
    return out;  // profiling was never enabled
  }
  out.component_names = profile_components_;
  std::vector<long long> calls_in(count, 0);
  std::vector<long long> calls_out(count, 0);
  for (const auto& [edge, calls] : profile_edges_) {
    if (edge.first != edge.second) {
      calls_out[edge.first] += calls;
      calls_in[edge.second] += calls;
      out.boundary_calls += calls;
    }
    out.edges.push_back(
        BoundaryEdge{profile_components_[edge.first], profile_components_[edge.second], calls});
  }
  std::sort(out.edges.begin(), out.edges.end(), [](const BoundaryEdge& a, const BoundaryEdge& b) {
    if (a.calls != b.calls) {
      return a.calls > b.calls;
    }
    if (a.caller != b.caller) {
      return a.caller < b.caller;
    }
    return a.callee < b.callee;
  });
  for (size_t c = 0; c < count; ++c) {
    if (profile_cycles_[c] == 0 && profile_insns_[c] == 0 && profile_stalls_[c] == 0 &&
        calls_in[c] == 0 && calls_out[c] == 0 && profile_alloc_[c] == 0 &&
        profile_freed_[c] == 0) {
      continue;  // component never entered during the profiled window
    }
    ComponentProfileEntry entry;
    entry.component = profile_components_[c];
    entry.cycles = profile_cycles_[c];
    entry.ifetch_stalls = profile_stalls_[c];
    entry.insns = profile_insns_[c];
    entry.calls_in = calls_in[c];
    entry.calls_out = calls_out[c];
    entry.bytes_alloc = profile_alloc_[c];
    entry.bytes_freed = profile_freed_[c];
    entry.live_peak = profile_live_peak_[c];
    out.total_cycles += entry.cycles;
    out.total_ifetch_stalls += entry.ifetch_stalls;
    out.total_insns += entry.insns;
    out.total_bytes_alloc += entry.bytes_alloc;
    out.total_bytes_freed += entry.bytes_freed;
    out.components.push_back(std::move(entry));
  }
  std::sort(out.components.begin(), out.components.end(),
            [](const ComponentProfileEntry& a, const ComponentProfileEntry& b) {
              if (a.cycles != b.cycles) {
                return a.cycles > b.cycles;
              }
              return a.component < b.component;
            });
  for (size_t f = 0; f < profile_fn_calls_.size() && f < image_.functions.size(); ++f) {
    if (profile_fn_calls_[f] > 0 && !image_.functions[f].name.empty()) {
      out.function_calls.push_back(FunctionCallCount{image_.functions[f].name,
                                                     profile_fn_calls_[f]});
    }
  }
  std::sort(out.function_calls.begin(), out.function_calls.end(),
            [](const FunctionCallCount& a, const FunctionCallCount& b) {
              if (a.calls != b.calls) {
                return a.calls > b.calls;
              }
              return a.function < b.function;
            });
  out.events_truncated = profile_events_truncated_;
  if (include_events) {
    out.events = profile_events_;
  }
  return out;
}

RunResult Machine::FinishRun(RunResult result) {
  if (profiling_) {
    result.profile = Profile(false);
  }
  return result;
}

void Machine::Trap(const std::string& message) {
  if (!trapped_) {
    trapped_ = true;
    trap_message_ = message;
    // Snapshot the call stack before CallId unwinds it: function names innermost
    // first, with the instruction the frame was executing (pc already advanced).
    trap_backtrace_.clear();
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
      trap_backtrace_.push_back(image_.functions[it->function].name + " (pc " +
                                std::to_string(it->pc > 0 ? it->pc - 1 : 0) + ")");
    }
  }
}

std::string Machine::TrapError() const {
  std::string error = trap_message_.empty() ? "execution error" : trap_message_;
  for (const std::string& frame : trap_backtrace_) {
    error += "\n  at " + frame;
  }
  return error;
}

void Machine::set_fault_plan(FaultPlan plan) {
  fault_plan_ = std::move(plan);
  fault_names_.clear();
  fault_injection_slot_.clear();
  fault_function_slot_.clear();
  fault_native_slot_.clear();
  for (const FaultInjection& injection : fault_plan_.injections) {
    const int next = static_cast<int>(fault_names_.size());
    fault_injection_slot_.push_back(fault_names_.emplace(injection.function, next).first->second);
  }
  fault_counts_.assign(fault_names_.size(), 0);
  if (fault_names_.empty()) {
    return;
  }
  InternFaultFunctions();
  for (const std::string& native : image_.natives) {
    auto it = fault_names_.find(native);
    fault_native_slot_.push_back(it == fault_names_.end() ? -1 : it->second);
  }
}

void Machine::InternFaultFunctions() {
  for (size_t f = fault_function_slot_.size(); f < image_.functions.size(); ++f) {
    auto it = fault_names_.find(image_.functions[f].name);
    fault_function_slot_.push_back(it == fault_names_.end() ? -1 : it->second);
  }
}

// Decides the planned fate of this invocation; the caller raises the trap itself so
// the backtrace reflects where the fault lands (inside the callee for functions, at
// the call site for natives).
Machine::FaultAction Machine::CheckFault(int callable, uint32_t* value_out) {
  if (fault_counts_.empty()) {
    return FaultAction::kNone;
  }
  const bool native = Image::IsNativeId(callable);
  const std::vector<int>& slots = native ? fault_native_slot_ : fault_function_slot_;
  const size_t index = static_cast<size_t>(native ? Image::NativeIndex(callable) : callable);
  const int slot = index < slots.size() ? slots[index] : -1;
  if (slot < 0) {
    return FaultAction::kNone;
  }
  const long long count = ++fault_counts_[static_cast<size_t>(slot)];
  for (size_t i = 0; i < fault_plan_.injections.size(); ++i) {
    const FaultInjection& injection = fault_plan_.injections[i];
    if (fault_injection_slot_[i] != slot || injection.invocation != count) {
      continue;
    }
    if (injection.trap) {
      return FaultAction::kTrap;
    }
    *value_out = injection.value;
    return FaultAction::kReturn;
  }
  return FaultAction::kNone;
}

bool Machine::CheckRange(uint32_t address, uint32_t size) {
  if (InRange(address, size)) {
    return true;
  }
  if (address < kNullGuardBytes) {
    Trap("null/guard-page dereference at address " + std::to_string(address));
  } else {
    Trap("out-of-range memory access at address " + std::to_string(address));
  }
  return false;
}

uint32_t Machine::ReadWord(uint32_t address) {
  if (!CheckRange(address, 4)) {
    return 0;
  }
  return LoadWord(memory_.data() + address);
}

void Machine::WriteWord(uint32_t address, uint32_t value) {
  if (!CheckRange(address, 4)) {
    return;
  }
  StoreWord(memory_.data() + address, value);
}

uint8_t Machine::ReadByte(uint32_t address) {
  if (!CheckRange(address, 1)) {
    return 0;
  }
  return memory_.data()[address];
}

void Machine::WriteByte(uint32_t address, uint8_t value) {
  if (!CheckRange(address, 1)) {
    return;
  }
  memory_.data()[address] = value;
}

void Machine::WriteBytes(uint32_t address, std::span<const uint8_t> bytes) {
  if (bytes.size() <= memory_.size() &&
      BytesAt(address, static_cast<uint32_t>(bytes.size())).size() == bytes.size()) {
    std::copy(bytes.begin(), bytes.end(), memory_.data() + address);
    return;
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    WriteByte(address + static_cast<uint32_t>(i), bytes[i]);
  }
}

std::span<const uint8_t> Machine::BytesAt(uint32_t address, uint32_t size) const {
  if (address < kNullGuardBytes || size > memory_.size() || address > memory_.size() - size) {
    return {};
  }
  return {memory_.data() + address, size};
}

std::string Machine::ReadCString(uint32_t address, uint32_t max_length) {
  std::string out;
  for (uint32_t i = 0; i < max_length; ++i) {
    uint8_t c = ReadByte(address + i);
    if (trapped_ || c == 0) {
      break;
    }
    out += static_cast<char>(c);
  }
  return out;
}

uint32_t Machine::Sbrk(uint32_t bytes) {
  // Page-grant primitive (see machine.h): requests round up to whole 4 KB
  // pages, and exhaustion returns 0 — allocator units turn that into a null
  // malloc result; only dereferencing null traps. The granted size is part of
  // the contract: a caller asking for N bytes owns (N + 0xFFF) & ~0xFFF.
  uint32_t base = heap_end_;
  uint64_t granted = (static_cast<uint64_t>(bytes) + 0xFFF) & ~uint64_t{0xFFF};
  if (granted == 0) {
    granted = 0x1000;
  }
  if (static_cast<uint64_t>(heap_end_) + granted >= stack_pointer_ - kStackBytes) {
    return 0;
  }
  heap_end_ += static_cast<uint32_t>(granted);
  return base;
}

int Machine::RequesterComponent() const {
  if (frames_.empty()) {
    return -1;
  }
  int allocator = function_component_[frames_.back().function];
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    int component = function_component_[it->function];
    if (component != allocator) {
      return component;
    }
  }
  return allocator;  // the allocator allocated for itself (e.g. its initializer)
}

void Machine::NoteAlloc(uint32_t bytes) {
  bytes_allocated_ += bytes;
  long long live = bytes_allocated_ - bytes_freed_;
  if (live > live_peak_) {
    live_peak_ = live;
  }
  if (profiling_) {
    int component = RequesterComponent();
    if (component >= 0) {
      profile_alloc_[component] += bytes;
      profile_live_[component] += bytes;
      if (profile_live_[component] > profile_live_peak_[component]) {
        profile_live_peak_[component] = profile_live_[component];
      }
    }
  }
}

void Machine::NoteFree(uint32_t bytes) {
  bytes_freed_ += bytes;
  if (profiling_) {
    int component = RequesterComponent();
    if (component >= 0) {
      profile_freed_[component] += bytes;
      profile_live_[component] -= bytes;
    }
  }
}

int Machine::CurrentVarargCount() const {
  // The __vararg natives execute while the variadic function's frame is on top.
  return frames_.empty() ? 0 : frames_.back().vararg_count;
}

uint32_t Machine::CurrentVararg(int index) {
  if (frames_.empty()) {
    return 0;
  }
  const Frame& frame = frames_.back();
  if (index < 0 || index >= frame.vararg_count) {
    return 0;
  }
  return ReadWord(frame.vararg_base + static_cast<uint32_t>(index) * 4);
}

bool Machine::ComponentQuiescent(const std::string& component) const {
  for (const Frame& frame : frames_) {
    if (image_.functions[frame.function].component == component) {
      return false;
    }
  }
  return true;
}

void Machine::RecoverNestedTrap(size_t eval_depth) {
  trapped_ = false;
  trap_message_.clear();
  trap_backtrace_.clear();
  // The trapped CallId already dropped what its frames pushed on the evaluation
  // stack; this keeps the interrupted outer frame's stack exactly as it was.
  eval_top_ = std::min(eval_top_, eval_depth);
}

std::string Machine::RefreshAfterImageGrowth() {
  // A swap retargets call sites; retire the indirect-branch predictions so the
  // first post-swap call at each site pays the miss, as real hardware would.
  // Only the sites that made a prediction hold one.
  for (int site : btb_predicted_) {
    btb_[static_cast<size_t>(site)] = kNoPrediction;
  }
  btb_predicted_.clear();
  std::string error = verify_error_;
  if (error.empty() && function_info_.size() < image_.functions.size()) {
    VerifyResult verified = VerifyImage(image_, function_info_.size());
    error = verified.error;
    AdoptFunctions(verified);
  }
  if (!fault_names_.empty()) {
    InternFaultFunctions();
  }
  if (!profiling_) {
    return error;
  }
  // Extend (never reset) the attribution tables: new functions get component ids,
  // new components get zeroed buckets, accumulated attribution is preserved.
  std::map<std::string, int> ids;
  for (size_t c = 0; c < profile_components_.size(); ++c) {
    ids.emplace(profile_components_[c], static_cast<int>(c));
  }
  auto intern = [&](const std::string& name) {
    auto [it, inserted] = ids.emplace(name, static_cast<int>(profile_components_.size()));
    if (inserted) {
      profile_components_.push_back(name);
      profile_cycles_.push_back(0);
      profile_stalls_.push_back(0);
      profile_insns_.push_back(0);
      profile_alloc_.push_back(0);
      profile_freed_.push_back(0);
      profile_live_.push_back(0);
      profile_live_peak_.push_back(0);
    }
    return it->second;
  };
  for (size_t f = function_component_.size(); f < image_.functions.size(); ++f) {
    const std::string& component = image_.functions[f].component;
    function_component_.push_back(intern(component.empty() ? "<other>" : component));
  }
  profile_fn_calls_.resize(image_.functions.size(), 0);
  return error;
}

bool Machine::EnterFunction(int function_id, int argc) {
  const BytecodeFunction& function = image_.functions[function_id];
  const int fixed = function.param_count;
  const int extras = function.variadic ? argc - fixed : 0;  // surplus is ignored otherwise
  uint64_t frame_bytes = static_cast<uint64_t>(function.frame_size) +
                         static_cast<uint64_t>(extras) * 4 + 16;
  frame_bytes = (frame_bytes + 7) & ~uint64_t{7};
  if (stack_pointer_ < uint64_t{heap_end_} + frame_bytes + 4096) {
    Trap("stack overflow entering " + function.name);
    return false;
  }
  Frame frame;
  frame.saved_sp = stack_pointer_;
  stack_pointer_ -= static_cast<uint32_t>(frame_bytes);
  frame.function = function_id;
  frame.pc = 0;
  frame.fp = stack_pointer_;
  frame.vararg_count = extras;
  frame.vararg_base = frame.fp + static_cast<uint32_t>(function.frame_size);
  // The arguments move from the evaluation stack into the frame: fixed params
  // in the first slots, varargs after the static frame. The frame lies inside
  // memory by the overflow check above, so the stores need no range check. A
  // parameter slot the optimizer dropped from the frame is dead; it lands in the
  // frame's pad, and one past the whole frame is not written at all.
  const uint32_t* args = eval_.data() + (eval_top_ - static_cast<size_t>(argc));
  const int stored = std::min<int>(fixed, static_cast<int>(frame_bytes / 4));
  uint8_t* const memory = memory_.data();
  for (int i = 0; i < stored; ++i) {
    StoreWord(memory + frame.fp + static_cast<uint32_t>(i) * 4, args[i]);
  }
  for (int i = 0; i < extras; ++i) {
    StoreWord(memory + frame.vararg_base + static_cast<uint32_t>(i) * 4, args[fixed + i]);
  }
  eval_top_ -= static_cast<size_t>(argc);
  frame.eval_base = eval_top_;
  // Reserve the callee's verified high-water mark: its pushes need no bounds check.
  const size_t needed = eval_top_ + static_cast<size_t>(function_info_[function_id].max_depth);
  if (eval_.size() < needed) {
    eval_.resize(std::max(needed, eval_.size() * 2));
  }
  if (profiling_) {
    ++profile_fn_calls_[function_id];
    // Entering a frame of a different component (the host counts as a different
    // component) opens a span on the event timeline.
    int callee = function_component_[function_id];
    int parent = frames_.empty() ? -1 : function_component_[frames_.back().function];
    if (callee != parent) {
      ProfileMark(callee, true);
    }
  }
  frames_.push_back(frame);
  return true;
}

bool Machine::ResolveTarget(int site, int callable, int32_t call_b) {
  // The P6 BTB predicts an indirect branch to its last target at this site.
  int& predicted = btb_[static_cast<size_t>(site)];
  if (predicted == callable) {
    cycles_ += cost_.indirect_predicted;
  } else {
    if (predicted == kNoPrediction) {
      btb_predicted_.push_back(site);
    }
    predicted = callable;
    cycles_ += cost_.indirect_call_overhead;
  }
  if (!image_.IsCallable(callable)) {
    Trap("indirect call to invalid function reference");
    return false;
  }
  if (Image::IsNativeId(callable)) {
    return true;  // natives take any arguments and return what the site asks for
  }
  const BytecodeFunction& callee = image_.functions[callable];
  if (!Runnable(callable)) {
    Trap("indirect call to '" + callee.name + "', which has no verified body");
    return false;
  }
  if (CallArgc(call_b) < callee.param_count) {
    Trap("call to " + callee.name + " with too few arguments");
    return false;
  }
  if (CallReturns(call_b) != callee.returns_value) {
    Trap("indirect call to '" + callee.name + "' disagrees with its return convention");
    return false;
  }
  return true;
}

RunResult Machine::Call(const std::string& name, std::vector<uint32_t> args) {
  int id = image_.FindFunction(name);
  if (id < 0) {
    return RunResult{false, 0, "no such function: " + name, {}, {}};
  }
  return CallId(id, std::move(args));
}

void Machine::Attribute(int function, ProfileMarks& marks) {
  const int component = function_component_[function];
  profile_cycles_[component] += cycles_ - marks.cycles;
  profile_stalls_[component] += ifetch_stalls_ - marks.stalls;
  ++profile_insns_[component];
  marks.cycles = cycles_;
  marks.stalls = ifetch_stalls_;
}

bool Machine::ExecuteCall(Op op, int32_t a, int32_t b, int caller) {
  const int argc = CallArgc(b);
  int callable;
  if (op == Op::kCall) {
    callable = a;
    cycles_ += cost_.call_overhead;
  } else {
    if (op == Op::kCallBound) {
      // A bound call pays the direct-call overhead plus one memory access to
      // load the slot, and resolves like an indirect branch: the steady-state
      // cost of swappability is call_overhead + mem_access + indirect_predicted
      // per boundary call.
      callable = image_.bindings[a].target;
      cycles_ += cost_.call_overhead + cost_.mem_access;
    } else {
      const uint32_t ref = eval_[--eval_top_];
      if (!IsFuncRef(ref)) {
        Trap("indirect call through a non-function value");
        return false;
      }
      callable = DecodeFuncRef(ref);
      if (Image::IsSlotRef(callable)) {
        // A slot ref loads its binding slot, as kCallBound does; a slot past
        // the table resolves to -1, which ResolveTarget rejects.
        callable = image_.RefTarget(callable);
        cycles_ += cost_.mem_access;
      }
    }
    const int site = function_info_[caller].site_base + frames_.back().pc - 1;
    if (!ResolveTarget(site, callable, b)) {
      return false;
    }
  }
  cycles_ += cost_.per_argument * argc;
  uint32_t fault_value = 0;
  const FaultAction action = CheckFault(callable, &fault_value);
  if (action == FaultAction::kReturn) {
    eval_top_ -= static_cast<size_t>(argc);
    if (CallReturns(b)) {
      eval_[eval_top_++] = fault_value;
    }
    return true;
  }
  if (!Image::IsNativeId(callable)) {
    if (!EnterFunction(callable, argc)) {
      return false;
    }
    if (profiling_) {
      ProfileCall(function_component_[caller], function_component_[callable]);
    }
    if (action == FaultAction::kTrap) {
      // Trap inside the callee's frame so the backtrace names it.
      Trap("fault injected into '" + image_.functions[callable].name + "'");
      return false;
    }
    return true;
  }
  const int native = Image::NativeIndex(callable);
  if (action == FaultAction::kTrap) {
    Trap("fault injected into '" + image_.natives[native] + "'");
    return false;
  }
  const NativeFn& bound = natives_[native];
  if (!bound) {
    Trap("native '" + image_.natives[native] + "' is not bound");
    return false;
  }
  // The arguments leave the evaluation stack for storage of this call's own: a
  // native may re-enter the machine, whose pushes reuse (and may reallocate) the
  // stack. Natives take a few arguments; only a long argument list allocates.
  constexpr int kInlineArgs = 8;
  uint32_t inline_args[kInlineArgs];
  std::vector<uint32_t> long_args;
  uint32_t* args = inline_args;
  if (argc > kInlineArgs) {
    long_args.resize(static_cast<size_t>(argc));
    args = long_args.data();
  }
  eval_top_ -= static_cast<size_t>(argc);
  std::copy_n(eval_.data() + eval_top_, argc, args);
  cycles_ += cost_.native_cost;
  if (profiling_) {
    ProfileCall(function_component_[caller], env_component_);
  }
  const uint32_t result =
      bound(*this, std::span<const uint32_t>(args, static_cast<size_t>(argc)));
  if (trapped_) {
    return false;
  }
  if (CallReturns(b)) {
    eval_[eval_top_++] = result;
  }
  return true;
}

RunResult Machine::CallId(int function_id, std::vector<uint32_t> args) {
  if (!verify_error_.empty()) {
    return RunResult{false, 0, verify_error_, {}, {}};
  }
  trapped_ = false;
  trap_message_.clear();
  trap_backtrace_.clear();
  const size_t base_frames = frames_.size();
  const size_t base_eval = eval_top_;

  if (function_id < 0 || function_id >= static_cast<int>(image_.functions.size())) {
    return RunResult{false, 0, "bad function id", {}, {}};
  }
  const BytecodeFunction& entry = image_.functions[function_id];
  if (!Runnable(function_id)) {
    return RunResult{false, 0, "function '" + entry.name + "' has no verified body", {}, {}};
  }
  uint32_t injected = 0;
  FaultAction action = CheckFault(function_id, &injected);
  if (action == FaultAction::kReturn) {
    return FinishRun(RunResult{true, injected, "", {}, {}});
  }
  const int argc = static_cast<int>(args.size());
  if (argc < entry.param_count) {
    Trap("call to " + entry.name + " with too few arguments");
    return FinishRun(RunResult{false, 0, TrapError(), trap_backtrace_, {}});
  }
  if (eval_.size() < eval_top_ + args.size()) {
    eval_.resize(eval_top_ + args.size());
  }
  std::copy(args.begin(), args.end(), eval_.begin() + static_cast<std::ptrdiff_t>(eval_top_));
  eval_top_ += args.size();
  if (!EnterFunction(function_id, argc)) {
    eval_top_ = base_eval;
    return FinishRun(RunResult{false, 0, TrapError(), trap_backtrace_, {}});
  }

  // Profiling: everything an instruction adds to the counters — its I-fetch and
  // any per-op costs — is attributed to the component of the frame it ran in,
  // so per-component sums equal the counter deltas exactly.
  ProfileMarks marks{cycles_, ifetch_stalls_};

  // The loop's hot state lives in locals the compiler keeps in registers: the
  // executing frame's code, pc, fp and evaluation-stack top, the counters, the
  // fuel limit and the last fetched line. It is written back (save_*) only where
  // something outside the loop can observe it: calls, returns, natives, traps
  // and profiling points. It is reloaded (load_*) after the frame changed or a
  // native ran, since a native may read the counters, re-enter the machine, or
  // grow the image or the evaluation stack. The helpers are forced inline so no
  // local's address escapes.
  uint8_t* const memory = memory_.data();
  const long long base_cost = cost_.base;
  const long long mem_cost = cost_.mem_access;
  const long long divide_cost = cost_.divide;
  const long long ret_cost = cost_.ret_overhead;
  const long long miss_stall = cost_.icache_miss_stall;
  const uint64_t line_bytes = static_cast<uint64_t>(cost_.icache_line);
  int fn = 0;
  const Insn* code = nullptr;
  const ICacheSlot* slots = nullptr;
  uint32_t text_base = 0;
  uint32_t fp = 0;
  int pc = 0;
  uint32_t* sp = nullptr;
  long long cycles = 0;
  long long stalls = 0;
  long long insns = 0;
  long long fuel = 0;
  uint64_t line_start = 0;
  bool profiling = false;
  auto load_frame = [&]() __attribute__((always_inline)) {
    const Frame& frame = frames_.back();
    fn = frame.function;
    const BytecodeFunction& function = image_.functions[fn];
    code = function.code.data();
    slots = icache_slots_.data() + function_info_[fn].site_base;
    text_base = static_cast<uint32_t>(function.text_offset);
    fp = frame.fp;
    pc = frame.pc;
    sp = eval_.data() + eval_top_;
  };
  auto save_frame = [&]() __attribute__((always_inline)) {
    frames_.back().pc = pc;
    eval_top_ = static_cast<size_t>(sp - eval_.data());
  };
  auto load_counters = [&]() __attribute__((always_inline)) {
    cycles = cycles_;
    stalls = ifetch_stalls_;
    insns = insns_;
    fuel = max_insns_;
    line_start = icache_line_start_;
    profiling = profiling_;
  };
  auto save_counters = [&]() __attribute__((always_inline)) {
    cycles_ = cycles;
    ifetch_stalls_ = stalls;
    insns_ = insns;
    icache_line_start_ = line_start;
  };
  load_frame();
  load_counters();
  if (action == FaultAction::kTrap) {
    // Trap inside the callee's frame so the backtrace names it.
    Trap("fault injected into '" + entry.name + "'");
    goto unwind;
  }

  // The verifier proved every reachable instruction well formed: opcodes,
  // stack depths, jump targets, local-slot operands and direct callees. Only
  // data-dependent conditions are checked here.
  for (;;) {
    const Insn insn = code[pc];
    const int insn_fn = fn;
    const uint32_t text_address = text_base + static_cast<uint32_t>(pc) * 4;
    if (text_address - line_start >= line_bytes) {
      // Only a fetch outside the last line touched probes the cache: that line
      // is its set's most recent, so a fetch inside it hits and changes nothing.
      const ICacheSlot slot = slots[pc];
      line_start = icache_.LineStart(slot);
      const long long stall = miss_stall * static_cast<long long>(icache_.Probe(slot));
      stalls += stall;
      cycles += stall;
    }
    ++pc;
    cycles += base_cost;
    if (++insns > fuel) [[unlikely]] {
      save_frame();
      save_counters();
      Trap("fuel exhausted (instruction budget of " + std::to_string(max_insns_) +
           " insns exceeded)");
      goto trapped;
    }

    switch (insn.op) {
      case Op::kNop:
        break;
      case Op::kConstInt:
        *sp++ = static_cast<uint32_t>(insn.a);
        break;
      case Op::kAddrLocal:
        *sp++ = fp + static_cast<uint32_t>(insn.a);
        break;
      case Op::kLoadLocal: {
        const uint8_t* at = memory + fp + static_cast<uint32_t>(insn.a);
        *sp++ = insn.b == 1 ? *at : LoadWord(at);
        break;
      }
      case Op::kStoreLocal: {
        uint8_t* at = memory + fp + static_cast<uint32_t>(insn.a);
        const uint32_t value = *--sp;
        if (insn.b == 1) {
          *at = static_cast<uint8_t>(value);
        } else {
          StoreWord(at, value);
        }
        break;
      }
      case Op::kLoadMem: {
        const uint32_t address = sp[-1];
        const uint32_t size = static_cast<uint32_t>(insn.b);
        cycles += mem_cost;
        if (!InRange(address, size)) [[unlikely]] {
          save_frame();
          save_counters();
          CheckRange(address, size);
          goto trapped;
        }
        sp[-1] = size == 1 ? memory[address] : LoadWord(memory + address);
        break;
      }
      case Op::kStoreMem: {
        const uint32_t value = sp[-1];
        const uint32_t address = sp[-2];
        const uint32_t size = static_cast<uint32_t>(insn.b);
        sp -= 2;
        cycles += mem_cost;
        if (!InRange(address, size)) [[unlikely]] {
          save_frame();
          save_counters();
          CheckRange(address, size);
          goto trapped;
        }
        if (size == 1) {
          memory[address] = static_cast<uint8_t>(value);
        } else {
          StoreWord(memory + address, value);
        }
        break;
      }
      case Op::kDup:
        *sp = sp[-1];
        ++sp;
        break;
      case Op::kPop:
        --sp;
        break;
      case Op::kSwap:
        std::swap(sp[-1], sp[-2]);
        break;
      case Op::kNeg:
        sp[-1] = 0u - sp[-1];
        break;
      case Op::kBitNot:
        sp[-1] = ~sp[-1];
        break;
      case Op::kLogNot:
        sp[-1] = sp[-1] == 0 ? 1 : 0;
        break;
      case Op::kSext8:
        sp[-1] = static_cast<uint32_t>(static_cast<int32_t>(static_cast<int8_t>(sp[-1] & 0xFF)));
        break;
      case Op::kJmp:
        pc = insn.a;
        break;
      case Op::kJz:
        if (*--sp == 0) {
          pc = insn.a;
        }
        break;
      case Op::kJnz:
        if (*--sp != 0) {
          pc = insn.a;
        }
        break;
      case Op::kAdd:
        --sp;
        sp[-1] += sp[0];
        break;
      case Op::kSub:
        --sp;
        sp[-1] -= sp[0];
        break;
      case Op::kMul:
        --sp;
        sp[-1] *= sp[0];
        break;
      case Op::kDivS:
      case Op::kDivU:
      case Op::kModS:
      case Op::kModU: {
        cycles += divide_cost;
        --sp;
        const uint32_t x = sp[-1];
        const uint32_t y = sp[0];
        if (y == 0) [[unlikely]] {
          save_frame();
          save_counters();
          const bool is_div = insn.op == Op::kDivS || insn.op == Op::kDivU;
          Trap(is_div ? "division by zero" : "modulo by zero");
          goto trapped;
        }
        const int32_t sx = static_cast<int32_t>(x);
        const int32_t sy = static_cast<int32_t>(y);
        // INT_MIN / -1 overflows: it wraps to INT_MIN (remainder 0) instead of
        // faulting the host.
        const bool overflow = sx == std::numeric_limits<int32_t>::min() && sy == -1;
        switch (insn.op) {
          case Op::kDivS:
            sp[-1] = overflow ? x : static_cast<uint32_t>(sx / sy);
            break;
          case Op::kDivU:
            sp[-1] = x / y;
            break;
          case Op::kModS:
            sp[-1] = overflow ? 0 : static_cast<uint32_t>(sx % sy);
            break;
          default:
            sp[-1] = x % y;
            break;
        }
        break;
      }
      case Op::kShl:
        --sp;
        sp[-1] <<= sp[0] & 31;
        break;
      case Op::kShrS:
        --sp;
        sp[-1] = static_cast<uint32_t>(static_cast<int32_t>(sp[-1]) >> (sp[0] & 31));
        break;
      case Op::kShrU:
        --sp;
        sp[-1] >>= sp[0] & 31;
        break;
      case Op::kAnd:
        --sp;
        sp[-1] &= sp[0];
        break;
      case Op::kOr:
        --sp;
        sp[-1] |= sp[0];
        break;
      case Op::kXor:
        --sp;
        sp[-1] ^= sp[0];
        break;
      case Op::kEq:
        --sp;
        sp[-1] = sp[-1] == sp[0];
        break;
      case Op::kNe:
        --sp;
        sp[-1] = sp[-1] != sp[0];
        break;
      case Op::kLtS:
        --sp;
        sp[-1] = static_cast<int32_t>(sp[-1]) < static_cast<int32_t>(sp[0]);
        break;
      case Op::kLtU:
        --sp;
        sp[-1] = sp[-1] < sp[0];
        break;
      case Op::kLeS:
        --sp;
        sp[-1] = static_cast<int32_t>(sp[-1]) <= static_cast<int32_t>(sp[0]);
        break;
      case Op::kLeU:
        --sp;
        sp[-1] = sp[-1] <= sp[0];
        break;
      case Op::kGtS:
        --sp;
        sp[-1] = static_cast<int32_t>(sp[-1]) > static_cast<int32_t>(sp[0]);
        break;
      case Op::kGtU:
        --sp;
        sp[-1] = sp[-1] > sp[0];
        break;
      case Op::kGeS:
        --sp;
        sp[-1] = static_cast<int32_t>(sp[-1]) >= static_cast<int32_t>(sp[0]);
        break;
      case Op::kGeU:
        --sp;
        sp[-1] = sp[-1] >= sp[0];
        break;
      case Op::kCall:
      case Op::kCallIndirect:
      case Op::kCallBound:
        save_frame();
        save_counters();
        if (!ExecuteCall(insn.op, insn.a, insn.b, fn)) {
          goto trapped;
        }
        load_frame();
        load_counters();
        break;
      case Op::kRet: {
        cycles += ret_cost;
        // A bare kRet in a value-returning function returns 0 (see verify.h).
        const bool returns_value = image_.functions[fn].returns_value;
        const uint32_t value = insn.a != 0 ? sp[-1] : 0;
        // Discard the callee's leftover stack and frame.
        eval_top_ = frames_.back().eval_base;
        stack_pointer_ = frames_.back().saved_sp;
        const bool caller_exists = frames_.size() > base_frames + 1;
        if (profiling) {
          // Close the span if control moves to a different component (or the host).
          save_counters();
          int parent =
              caller_exists ? function_component_[frames_[frames_.size() - 2].function] : -1;
          if (function_component_[fn] != parent) {
            ProfileMark(function_component_[fn], false);
          }
        }
        frames_.pop_back();
        if (!caller_exists) {
          save_counters();
          if (profiling) {
            Attribute(insn_fn, marks);
          }
          return FinishRun(RunResult{true, value, "", {}, {}});
        }
        load_frame();
        // The verifier and ResolveTarget matched the call site's return
        // convention to the callee's.
        if (returns_value) {
          *sp++ = value;
        }
        break;
      }
      default:
        __builtin_unreachable();  // the verifier rejects unknown opcodes and kConstSym
    }
    if (profiling) [[unlikely]] {
      save_counters();
      Attribute(insn_fn, marks);
    }
    continue;
  trapped:
    // Every trap site saved the state before trapping.
    if (profiling_) {
      Attribute(insn_fn, marks);
    }
    break;
  }

unwind:
  while (frames_.size() > base_frames) {
    if (profiling_) {
      int comp = function_component_[frames_.back().function];
      int parent = frames_.size() > base_frames + 1
                       ? function_component_[frames_[frames_.size() - 2].function]
                       : -1;
      if (comp != parent) {
        ProfileMark(comp, false);
      }
    }
    stack_pointer_ = frames_.back().saved_sp;
    frames_.pop_back();
  }
  eval_top_ = base_eval;
  return FinishRun(RunResult{false, 0, TrapError(), trap_backtrace_, {}});
}

}  // namespace knit
