#include "src/vm/passes.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "src/vm/optimize.h"

namespace knit {
namespace {

// ---- helpers -----------------------------------------------------------------

// Reads the little-endian word at an absolute data address (0 when out of range).
uint32_t ReadDataWord(const Image& image, uint32_t address) {
  if (address < image.data_base) {
    return 0;
  }
  size_t at = address - image.data_base;
  if (at + 4 > image.data.size()) {
    return 0;
  }
  uint32_t word = 0;
  for (int i = 0; i < 4; ++i) {
    word |= static_cast<uint32_t>(image.data[at + i]) << (8 * i);
  }
  return word;
}

// Decodes an operand that may hold a function ref; returns the function id it
// reaches (a slot ref's current target), or -1 when the value is not a ref to a
// VM function (natives included: they have no body to inline or eliminate).
int FuncRefTarget(const Image& image, uint32_t value) {
  if (!IsFuncRef(value)) {
    return -1;
  }
  int id = image.RefTarget(DecodeFuncRef(value));
  return id >= 0 && id < static_cast<int>(image.functions.size()) ? id : -1;
}

// References per function across the whole image. Direct calls weigh 1; function
// refs materialized as constants or stored in data weigh 2, so address-taken
// functions are never "single-call" (their body must survive, mirroring the
// per-TU CallSiteCounts rule).
class ImageRefs {
 public:
  explicit ImageRefs(const Image& image) : image_(image), counts_(image.functions.size(), 0) {
    for (const BytecodeFunction& function : image.functions) {
      Add(function.code);
    }
    for (uint32_t address : image.func_ref_data) {
      int target = FuncRefTarget(image, ReadDataWord(image, address));
      if (target >= 0) {
        counts_[target] += 2;
      }
    }
  }

  int operator[](int function) const { return counts_[function]; }

  // The direct call `call` was replaced by a copy of `callee`'s code.
  void Spliced(const Insn& call, const BytecodeFunction& callee) {
    --counts_[call.a];
    Add(callee.code);
  }

 private:
  void Add(const std::vector<Insn>& code) {
    for (const Insn& insn : code) {
      if (insn.op == Op::kCall) {
        if (insn.a >= 0 && insn.a < static_cast<int>(counts_.size())) {
          ++counts_[insn.a];
        }
      } else if (insn.op == Op::kCallBound) {
        // A bound call's target can be retargeted at any time; weight it like an
        // escaped ref so the current target is never treated as single-call.
        if (insn.a >= 0 && insn.a < static_cast<int>(image_.bindings.size())) {
          int target = image_.bindings[insn.a].target;
          if (target >= 0 && target < static_cast<int>(counts_.size())) {
            counts_[target] += 2;
          }
        }
      } else if (insn.op == Op::kConstInt) {
        int target = FuncRefTarget(image_, static_cast<uint32_t>(insn.a));
        if (target >= 0) {
          counts_[target] += 2;
        }
      }
    }
  }

  const Image& image_;
  std::vector<int> counts_;
};

// Function ids of the named entry points (exports, knit__init/fini/rollback).
std::set<int> EntryRoots(const Image& image, const ImagePassOptions& options) {
  std::set<int> roots;
  for (const std::string& name : options.entry_points) {
    int id = image.FindFunction(name);
    if (id >= 0 && id < static_cast<int>(image.functions.size())) {
      roots.insert(id);
    }
  }
  return roots;
}

// ---- profile indexing (PGO) ---------------------------------------------------

// The Machine buckets unattributed functions under "<other>"; the image side
// must normalize the same way or profile lookups miss exactly those functions.
const std::string& NormalizeComponent(const std::string& component) {
  static const std::string kOther = "<other>";
  return component.empty() ? kOther : component;
}

// The recorded measurements, indexed for the lookups the PGO passes make.
struct ProfileIndex {
  std::map<std::string, long long> component_cycles;
  std::map<std::pair<std::string, std::string>, long long> edge_calls;
  std::map<std::string, long long> function_calls;  // recorded entries per name
  std::set<std::string> executed_functions;         // recorded entry count > 0
  bool have_function_calls = false;                 // functions table was present
};

// A profile is read from a document the user supplies, so sums and products of
// its counters saturate instead of overflowing.
long long SaturatingAdd(long long a, long long b) {
  long long sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    return b > 0 ? std::numeric_limits<long long>::max() : std::numeric_limits<long long>::min();
  }
  return sum;
}

long long SaturatingMul(long long a, long long b) {
  long long product = 0;
  if (__builtin_mul_overflow(a, b, &product)) {
    return (a < 0) != (b < 0) ? std::numeric_limits<long long>::min()
                              : std::numeric_limits<long long>::max();
  }
  return product;
}

ProfileIndex BuildProfileIndex(const ComponentProfile& profile) {
  ProfileIndex index;
  for (const ComponentProfileEntry& entry : profile.components) {
    long long& cycles = index.component_cycles[entry.component];
    cycles = SaturatingAdd(cycles, entry.cycles);
  }
  for (const BoundaryEdge& edge : profile.edges) {
    long long& calls = index.edge_calls[{edge.caller, edge.callee}];
    calls = SaturatingAdd(calls, edge.calls);
  }
  index.have_function_calls = !profile.function_calls.empty();
  for (const FunctionCallCount& fn : profile.function_calls) {
    long long& calls = index.function_calls[fn.function];
    calls = SaturatingAdd(calls, fn.calls);
    if (fn.calls > 0) {
      index.executed_functions.insert(fn.function);
    }
  }
  return index;
}

long long FunctionCallsOf(const ProfileIndex& index, const std::string& name) {
  auto it = index.function_calls.find(name);
  return it == index.function_calls.end() ? 0 : it->second;
}

long long ComponentCyclesOf(const ProfileIndex& index, const std::string& component) {
  auto it = index.component_cycles.find(NormalizeComponent(component));
  return it == index.component_cycles.end() ? 0 : it->second;
}

// The hotness of one call site: recorded boundary-edge traffic times how
// expensive the callee's component measured (so a 1000-call edge into a heavy
// component outranks a 1000-call edge into a trivial one).
long long CallSiteScore(const ProfileIndex& index, const std::string& caller_component,
                        const std::string& callee_component) {
  auto it = index.edge_calls.find(
      {NormalizeComponent(caller_component), NormalizeComponent(callee_component)});
  long long calls = it == index.edge_calls.end() ? 0 : it->second;
  long long callee_cycles = ComponentCyclesOf(index, callee_component);
  return SaturatingMul(calls, std::max<long long>(1, callee_cycles));
}

// ---- passes ------------------------------------------------------------------

// Rewrites `kConstInt(funcref); kCallIndirect` pairs into a direct kCall: the
// target is known at link time, so the call needs neither the BTB nor the
// indirect-call penalty, and downstream passes can inline it. A slot ref becomes
// a kCallBound on its slot instead, which follows a swap as the ref did. The
// call insn must not be a jump target (a jump landing there would take its
// target from the stack, not from our constant).
void Devirtualize(Image& image) {
  for (BytecodeFunction& function : image.functions) {
    if (function.code.empty()) {
      continue;
    }
    std::set<int> leaders;
    for (const Insn& insn : function.code) {
      if (IsJump(insn.op)) {
        leaders.insert(insn.a);
      }
    }
    for (size_t i = 0; i + 1 < function.code.size(); ++i) {
      const Insn& cst = function.code[i];
      const Insn& call = function.code[i + 1];
      if (cst.op != Op::kConstInt || call.op != Op::kCallIndirect ||
          leaders.count(static_cast<int>(i + 1)) > 0) {
        continue;
      }
      uint32_t value = static_cast<uint32_t>(cst.a);
      if (!IsFuncRef(value)) {
        continue;
      }
      const int callable = DecodeFuncRef(value);
      if (!image.IsCallable(image.RefTarget(callable))) {
        continue;
      }
      function.code[i] = Insn{Op::kNop, 0, 0};
      function.code[i + 1] = Image::IsSlotRef(callable)
                                 ? Insn{Op::kCallBound, Image::SlotIndex(callable), call.b}
                                 : Insn{Op::kCall, callable, call.b};
    }
  }
}

// Cross-object inlining through resolved bindings: after ld, every direct call
// names its callee by image id, so the per-TU defs-before-uses restriction
// disappears and calls across former unit boundaries inline like local ones.
// Inlined code keeps executing inside the caller's frame, so the profiler
// attributes it to the caller's component — exactly how flatten groups already
// collapse, and why the boundary-call counter sees these edges vanish.
// The eligible callee at call site `call` of `function_index`, or -1. With a
// profile, sites on recorded-hot boundary edges earn twice the size budget: the
// recording proves the call executes per packet, so trading text for a removed
// boundary call is the bet PGO exists to make.
int EligibleCallee(const Image& image, int function_index, const Insn& call,
                   const ImageRefs& refs, const std::set<int>& roots, const ProfileIndex* hot,
                   SpliceCheck& check) {
  if (call.op != Op::kCall) {
    return -1;
  }
  int callee_id = call.a;
  if (callee_id < 0 || callee_id >= static_cast<int>(image.functions.size()) ||
      callee_id == function_index) {
    return -1;  // native, unresolved, or self-recursive
  }
  const BytecodeFunction& callee = image.functions[callee_id];
  if (callee.variadic || callee.code.empty()) {
    return -1;
  }
  int inline_limit = kInlineLimit;
  if (hot != nullptr &&
      CallSiteScore(*hot, image.functions[function_index].component, callee.component) > 0) {
    inline_limit *= 2;
  }
  bool small = inline_limit > 0 && static_cast<int>(callee.code.size()) <= inline_limit;
  // A function called exactly once anywhere in the image inlines whole —
  // unless it is an entry point (the host calls it by name, so the body must
  // survive) or its address escapes (refs weighting).
  bool single = refs[callee_id] == 1 && roots.count(callee_id) == 0 &&
                static_cast<int>(callee.code.size()) <= kSingleCallInlineLimit;
  if (!small && !single) {
    return -1;
  }
  return check.CanSplice(call, callee_id) ? callee_id : -1;
}

void InlineInto(Image& image, int function_index, const std::set<int>& roots,
                const ProfileIndex* hot, ImageRefs& refs, SpliceCheck& check) {
  bool progress = true;
  while (progress &&
         static_cast<int>(image.functions[function_index].code.size()) < kCallerGrowthLimit) {
    progress = false;
    BytecodeFunction& caller = image.functions[function_index];
    // Pick the call site to inline this round: without a profile, the first
    // eligible one (symbol order — the historical behavior, bit for bit); with
    // one, the hottest eligible one (recorded edge calls × callee component
    // cycles; ties fall back to the lowest pc, keeping the choice deterministic
    // for any profile).
    size_t best_site = caller.code.size();
    int best_callee = -1;
    long long best_score = -1;
    for (size_t p = 0; p < caller.code.size(); ++p) {
      int callee_id = EligibleCallee(image, function_index, caller.code[p], refs, roots, hot, check);
      if (callee_id < 0) {
        continue;
      }
      if (hot == nullptr) {
        best_site = p;
        best_callee = callee_id;
        break;
      }
      long long score =
          CallSiteScore(*hot, caller.component, image.functions[callee_id].component);
      if (score > best_score) {
        best_score = score;
        best_site = p;
        best_callee = callee_id;
      }
    }
    if (best_callee < 0) {
      break;  // nothing left to inline into this caller
    }
    const Insn call = caller.code[best_site];
    SpliceCallee(caller, best_site, image.functions[best_callee]);
    refs.Spliced(call, image.functions[best_callee]);
    check.Changed(function_index);
    progress = true;  // indices changed; rescan
  }
}

// Cross-object inlining through resolved bindings: after ld, every direct call
// names its callee by image id, so the per-TU defs-before-uses restriction
// disappears and calls across former unit boundaries inline like local ones.
// Inlined code keeps executing inside the caller's frame, so the profiler
// attributes it to the caller's component — exactly how flatten groups already
// collapse, and why the boundary-call counter sees these edges vanish.
//
// Callers are walked in symbol (id) order with or without a profile (`hot`):
// processing a callee before its callers lets it absorb its own callees first,
// so a later inline of it carries the whole subtree. The profile changes which
// SITE each rescan round picks (hottest recorded edge instead of first-found)
// and how much budget a hot site may spend; see EligibleCallee/InlineInto.
void CrossInline(Image& image, const ImagePassOptions& options, const ProfileIndex* hot) {
  std::set<int> roots = EntryRoots(image, options);
  ImageRefs refs(image);
  SpliceCheck check(image.functions);
  for (size_t f = 0; f < image.functions.size(); ++f) {
    InlineInto(image, static_cast<int>(f), roots, hot, refs, check);
  }
}

// Global dead-function / dead-export elimination. Liveness is reachability from
// the entry points plus every function whose ref is stored in data (the linker
// records those addresses in Image::func_ref_data) or materialized as a constant
// in reachable code (conservative: any kConstInt decoding to a valid id keeps
// the target alive, so indirect calls can never reach a stubbed body). Dead
// functions are stubbed — code cleared, id and name kept — so no call target or
// stored ref ever needs remapping; their global symbols leave the symbol table,
// which is the dead-*export* half.
void EliminateDeadFunctions(Image& image, const ImagePassOptions& options) {
  size_t count = image.functions.size();
  std::vector<char> live(count, 0);
  std::vector<int> work;
  auto mark = [&](int id) {
    if (id >= 0 && id < static_cast<int>(count) && !live[id]) {
      live[id] = 1;
      work.push_back(id);
    }
  };
  for (int id : EntryRoots(image, options)) {
    mark(id);
  }
  for (uint32_t address : image.func_ref_data) {
    mark(FuncRefTarget(image, ReadDataWord(image, address)));
  }
  // Binding-slot targets are rebindable entry points: the reconfig engine may
  // point a slot back at them at any time, so they are roots unconditionally.
  for (const BindingSlot& slot : image.bindings) {
    mark(slot.target);
  }
  while (!work.empty()) {
    int f = work.back();
    work.pop_back();
    for (const Insn& insn : image.functions[f].code) {
      if (insn.op == Op::kCall) {
        mark(insn.a);
      } else if (insn.op == Op::kCallBound) {
        if (insn.a >= 0 && insn.a < static_cast<int>(image.bindings.size())) {
          mark(image.bindings[insn.a].target);
        }
      } else if (insn.op == Op::kConstInt) {
        mark(FuncRefTarget(image, static_cast<uint32_t>(insn.a)));
      }
    }
  }
  for (size_t f = 0; f < count; ++f) {
    if (!live[f]) {
      image.functions[f].code.clear();
      image.functions[f].frame_size = 0;
    }
  }
  for (auto it = image.function_symbols.begin(); it != image.function_symbols.end();) {
    bool dead = it->second >= 0 && it->second < static_cast<int>(count) && !live[it->second];
    it = dead ? image.function_symbols.erase(it) : std::next(it);
  }
}

// Re-runs the per-function optimizer over every live function: cross-inlining
// exposes the same store/load and value-numbering slack that per-TU inlining
// does, and devirtualized constants fold away.
void SimplifyFunctions(Image& image) {
  FunctionOptimizer optimizer;
  for (BytecodeFunction& function : image.functions) {
    if (!function.code.empty()) {
      optimizer.Optimize(function);
    }
  }
}

// Re-places the text segment after code shrank with the linker's PlaceText, so
// images remain deterministic and the I-cache simulator sees the denser
// footprint (the paper's flattened-is-smaller effect).
void LayOutText(Image& image) {
  int text_cursor = 0;
  for (BytecodeFunction& function : image.functions) {
    text_cursor = PlaceText(function, text_cursor);
  }
  image.text_bytes = text_cursor;
}

// Profile-guided text placement: component groups are ordered by hot-path
// affinity instead of symbol order, so functions that call each other on the
// recorded hot path share I-cache sets. Greedy Pettis–Hansen-style clustering:
// walk boundary edges heaviest-first, concatenating component chains; emit
// chains hottest-first; components the profile never saw go last. Only
// text_offset/text_bytes change — the machine addresses the I-cache by
// text_offset, so RunResult values are untouched by construction.
void LayOutTextByAffinity(Image& image, const ProfileIndex& index) {
  // Component -> member function ids, id order within each component. Track
  // first-seen (minimum) id per component for the cold-tail ordering.
  std::map<std::string, std::vector<int>> members;
  std::vector<std::string> discovery;  // components by minimum function id
  for (size_t f = 0; f < image.functions.size(); ++f) {
    const std::string& comp = NormalizeComponent(image.functions[f].component);
    auto [it, inserted] = members.emplace(comp, std::vector<int>{});
    if (inserted) {
      discovery.push_back(comp);
    }
    it->second.push_back(static_cast<int>(f));
  }

  // Chains over the hot components (recorded cycles > 0). Each starts alone;
  // edges merge them heaviest-first.
  std::map<std::string, int> chain_of;  // hot component -> chain index
  std::vector<std::vector<std::string>> chains;
  for (const std::string& comp : discovery) {
    if (ComponentCyclesOf(index, comp) > 0 && members.count(comp) != 0) {
      chain_of[comp] = static_cast<int>(chains.size());
      chains.push_back({comp});
    }
  }
  struct Edge {
    std::string caller;
    std::string callee;
    long long calls;
  };
  std::vector<Edge> edges;
  for (const auto& [pair, calls] : index.edge_calls) {
    if (calls > 0 && chain_of.count(pair.first) != 0 && chain_of.count(pair.second) != 0) {
      edges.push_back(Edge{pair.first, pair.second, calls});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.calls != b.calls) {
      return a.calls > b.calls;
    }
    if (a.caller != b.caller) {
      return a.caller < b.caller;
    }
    return a.callee < b.callee;
  });
  for (const Edge& edge : edges) {
    int a = chain_of[edge.caller];
    int b = chain_of[edge.callee];
    if (a == b) {
      continue;
    }
    // Join so the edge's endpoints actually touch: the caller wants to be the
    // tail of its chain and the callee the head of its — a chain whose hot
    // member sits at the wrong end is reversed (the classic Pettis–Hansen
    // move). Endpoints buried mid-chain were already placed by a hotter edge
    // and stay put.
    if (chains[a].front() == edge.caller && chains[a].size() > 1) {
      std::reverse(chains[a].begin(), chains[a].end());
    }
    if (chains[b].back() == edge.callee && chains[b].size() > 1) {
      std::reverse(chains[b].begin(), chains[b].end());
    }
    for (const std::string& comp : chains[b]) {
      chain_of[comp] = a;
    }
    chains[a].insert(chains[a].end(), chains[b].begin(), chains[b].end());
    chains[b].clear();
  }

  // Hottest chain first; within a chain the merge order already strings hot
  // callers next to their callees.
  std::vector<int> live_chains;
  for (size_t c = 0; c < chains.size(); ++c) {
    if (!chains[c].empty()) {
      live_chains.push_back(static_cast<int>(c));
    }
  }
  std::stable_sort(live_chains.begin(), live_chains.end(), [&](int a, int b) {
    long long ca = 0;
    long long cb = 0;
    for (const std::string& comp : chains[a]) {
      ca = SaturatingAdd(ca, ComponentCyclesOf(index, comp));
    }
    for (const std::string& comp : chains[b]) {
      cb = SaturatingAdd(cb, ComponentCyclesOf(index, comp));
    }
    if (ca != cb) {
      return ca > cb;
    }
    return chains[a].front() < chains[b].front();
  });

  std::vector<std::string> order;
  order.reserve(members.size());
  for (int c : live_chains) {
    for (const std::string& comp : chains[c]) {
      order.push_back(comp);
    }
  }
  for (const std::string& comp : discovery) {  // cold tail, min-function-id order
    if (chain_of.count(comp) == 0) {
      order.push_back(comp);
    }
  }

  // Within a component, most-entered functions first (recorded entry counts;
  // ties and unprofiled functions keep id order), so a component's own hot
  // entry shares cache lines with the neighbours the chain put next to it.
  int text_cursor = 0;
  for (const std::string& comp : order) {
    std::vector<int>& group = members[comp];
    std::stable_sort(group.begin(), group.end(), [&](int a, int b) {
      return FunctionCallsOf(index, image.functions[a].name) >
             FunctionCallsOf(index, image.functions[b].name);
    });
    for (int f : group) {
      text_cursor = PlaceText(image.functions[f], text_cursor);
    }
  }
  image.text_bytes = text_cursor;
}

// Moves functions the recorded workload never entered (error paths, rollback
// handlers, unused exports that DCE must keep for the host) behind the hot
// text, preserving their relative order. Runs after layout-pgo, so "behind"
// means behind the affinity-clustered hot region. A profile with no per-
// function table (an old recording) disables the pass rather than outlining
// everything.
void OutlineCold(Image& image, const ProfileIndex& index) {
  if (!index.have_function_calls) {
    return;
  }
  std::vector<int> placed(image.functions.size());
  for (size_t f = 0; f < placed.size(); ++f) {
    placed[f] = static_cast<int>(f);
  }
  std::stable_sort(placed.begin(), placed.end(), [&](int a, int b) {
    return image.functions[a].text_offset < image.functions[b].text_offset;
  });
  std::vector<int> hot;
  std::vector<int> cold;
  for (int f : placed) {
    const BytecodeFunction& function = image.functions[f];
    // Anonymous functions cannot appear in the profile's name-keyed table, so
    // treat them as hot rather than outline them blind.
    bool executed =
        function.name.empty() || index.executed_functions.count(function.name) != 0;
    (executed ? hot : cold).push_back(f);
  }
  int text_cursor = 0;
  for (int f : hot) {
    text_cursor = PlaceText(image.functions[f], text_cursor);
  }
  for (int f : cold) {
    text_cursor = PlaceText(image.functions[f], text_cursor);
  }
  image.text_bytes = text_cursor;
}

}  // namespace

long long InsnCount(const std::vector<BytecodeFunction>& functions) {
  long long total = 0;
  for (const BytecodeFunction& function : functions) {
    total += static_cast<long long>(function.code.size());
  }
  return total;
}

void MergePassStats(std::vector<PassStats>& into, const std::vector<PassStats>& from) {
  for (const PassStats& row : from) {
    PassStats* found = nullptr;
    for (PassStats& existing : into) {
      if (existing.pass == row.pass && existing.scope == row.scope) {
        found = &existing;
        break;
      }
    }
    if (found == nullptr) {
      into.push_back(row);
      continue;
    }
    found->runs += row.runs;
    found->insns_before += row.insns_before;
    found->insns_after += row.insns_after;
    found->seconds += row.seconds;
  }
}

void OptimizeImage(Image& image, const ImagePassOptions& options,
                   std::vector<PassStats>* stats) {
  std::vector<PassStats> rows;
  auto run = [&](const char* pass, auto&& transform) {
    rows.push_back(PassStats{pass, "image"});
    RunPassRow(rows.back(), [&] { return ImageInsnCount(image); }, transform);
  };
  ProfileIndex index;  // built once, for every profile-guided pass
  const ProfileIndex* hot = nullptr;
  if (options.profile != nullptr) {
    index = BuildProfileIndex(*options.profile);
    hot = &index;
  }
  run("devirt", [&] { Devirtualize(image); });
  run("cross-inline", [&] { CrossInline(image, options, hot); });
  run("dce-image", [&] { EliminateDeadFunctions(image, options); });
  run("simplify", [&] { SimplifyFunctions(image); });
  if (hot == nullptr) {
    run("layout", [&] { LayOutText(image); });
  } else {
    run("layout-pgo", [&] { LayOutTextByAffinity(image, index); });
    run("outline-cold", [&] { OutlineCold(image, index); });
  }
  if (stats != nullptr) {
    MergePassStats(*stats, rows);
  }
}

}  // namespace knit
