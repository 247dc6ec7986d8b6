#include "src/reconfig/reconfig.h"

#include <map>
#include <utility>

#include "src/ld/link.h"

namespace knit {
namespace {

// Joins the error entries of a scratch Diagnostics into one report string.
std::string RenderErrors(const Diagnostics& diags, const std::string& fallback) {
  std::string out;
  for (const Diagnostic& diagnostic : diags.entries()) {
    if (diagnostic.severity != Severity::kError) {
      continue;
    }
    if (!out.empty()) {
      out += "; ";
    }
    out += diagnostic.message;
  }
  return out.empty() ? fallback : out;
}

}  // namespace

ReconfigEngine::ReconfigEngine(KnitBuildResult& build, Machine& machine, SourceMap sources)
    : build_(build), machine_(machine), sources_(std::move(sources)) {}

SwapReport ReconfigEngine::Request(const SwapSpec& spec) {
  if (!machine_.ComponentQuiescent(spec.instance)) {
    // A frame is live inside the target: never tear a call mid-flight. Queue the
    // request; Pump() retries at the next quiescent point.
    pending_.push_back(Pending{spec, 0});
    SwapReport report;
    report.deferred = true;
    return report;
  }
  SwapReport report = Execute(spec, 0);
  reports_.push_back(report);
  return report;
}

int ReconfigEngine::Pump() {
  int finished = 0;
  std::vector<Pending> still_waiting;
  for (Pending& pending : pending_) {
    ++pending.deferred_packets;
    if (!machine_.ComponentQuiescent(pending.spec.instance)) {
      still_waiting.push_back(std::move(pending));
      continue;
    }
    reports_.push_back(Execute(pending.spec, pending.deferred_packets));
    ++finished;
  }
  pending_ = std::move(still_waiting);
  return finished;
}

SwapReport ReconfigEngine::Execute(const SwapSpec& spec, int deferred_packets) {
  SwapReport report;
  report.deferred_packets = deferred_packets;
  report.version = ++generation_;
  const std::string suffix = "__v" + std::to_string(report.version);
  Image& image = build_.image;
  const long long cycles_before = machine_.cycles();
  auto finish = [&](SwapReport& r) -> SwapReport& {
    r.pause_cycles = machine_.cycles() - cycles_before;
    return r;
  };

  // ---- validate the target ---------------------------------------------------
  if (build_.config.FindInstance(spec.instance) < 0) {
    report.error = "unknown instance '" + spec.instance + "'";
    return finish(report);
  }
  bool has_slots = false;
  for (const BindingSlot& slot : image.bindings) {
    if (slot.component == spec.instance) {
      has_slots = true;
      break;
    }
  }
  if (!has_slots) {
    report.error = "instance '" + spec.instance +
                   "' was not built swappable (no binding slots; build with --swappable)";
    return finish(report);
  }
  if (!machine_.ComponentQuiescent(spec.instance)) {
    report.error = "instance '" + spec.instance + "' is not quiescent";  // defensive
    return finish(report);
  }

  // ---- injection point: link failure ------------------------------------------
  if (machine_.fault_plan().HasSwapPoint("swap-link")) {
    report.error = "injected link failure at swap point 'swap-link'";
    return finish(report);
  }

  // ---- compile the replacement -------------------------------------------------
  Diagnostics diags;
  Result<ReplacementObject> compiled = CompileInstanceReplacement(
      *build_.elaboration, build_.config, spec.instance, spec.source, spec.source_name,
      sources_, suffix, diags);
  if (!compiled.ok()) {
    report.error = RenderErrors(diags, "replacement failed to compile");
    return finish(report);
  }
  ReplacementObject replacement = compiled.take();
  const ObjectFile& object = replacement.object;

  // Unversioned link name -> versioned, for every entry point the running image
  // may need to retarget (exports and init/fini symbols; every versioned name
  // carries `suffix`, so stripping recovers the unversioned form).
  std::map<std::string, std::string> versioned_of = replacement.export_links;
  auto strip = [&](const std::string& name) {
    return name.substr(0, name.size() - suffix.size());
  };
  for (const std::vector<std::string>* list :
       {&replacement.initializers, &replacement.finalizers}) {
    for (const std::string& name : *list) {
      versioned_of.emplace(strip(name), name);
    }
  }
  // Every binding slot of the instance must have a replacement FUNCTION: slots
  // are call targets, so an export that became a data global cannot serve one.
  for (const BindingSlot& slot : image.bindings) {
    if (slot.component != spec.instance) {
      continue;
    }
    auto versioned = versioned_of.find(slot.symbol);
    int symbol_index =
        versioned == versioned_of.end() ? -1 : object.FindSymbol(versioned->second);
    if (symbol_index < 0 ||
        object.symbols()[symbol_index].section != ObjSymbol::Section::kText) {
      report.error = "replacement does not define '" + slot.symbol +
                     "' as a function, but the running image calls it through a "
                     "binding slot";
      return finish(report);
    }
    // The call sites behind the slot were compiled against the OLD signature; a
    // replacement that changes arity or drops the return value would corrupt
    // every caller's evaluation stack on the first post-swap call.
    const BytecodeFunction& incoming =
        object.functions[object.symbols()[symbol_index].index];
    if (slot.target >= 0 && slot.target < static_cast<int>(image.functions.size())) {
      const BytecodeFunction& current = image.functions[slot.target];
      if (incoming.param_count != current.param_count ||
          incoming.returns_value != current.returns_value ||
          incoming.variadic != current.variadic) {
        auto describe = [](const BytecodeFunction& f) {
          return std::to_string(f.param_count) + (f.variadic ? "+ params, " : " params, ") +
                 (f.returns_value ? "returns a value" : "returns void");
        };
        report.error = "replacement changes the signature of '" + slot.symbol + "' (" +
                       describe(current) + " -> " + describe(incoming) +
                       "); the running callers were compiled against the old one";
        return finish(report);
      }
    }
  }

  // ---- link ------------------------------------------------------------------
  // Replacement data lives on the VM heap (the Machine copied image.data into its
  // memory at construction; appending to image.data would not load it).
  const int old_count = static_cast<int>(image.functions.size());
  uint32_t data_address = 0;
  if (!object.data.empty()) {
    data_address = machine_.Sbrk(static_cast<uint32_t>(object.data.size()));
    if (data_address == 0) {
      machine_.RecoverNestedTrap(machine_.EvalDepth());  // clear the sbrk trap
      report.error = "heap exhausted placing replacement data";
      return finish(report);
    }
  }
  // The build's linker appends the functions past the existing text and
  // resolves the imports against the running image; a failure leaves the image
  // untouched, and a success writes none of its existing code or data. The
  // replacement's refs to its own exports link as their slots' refs. The new
  // generation is never reachable until the commit, so an abort from here on
  // leaves the RUNNING code as it was.
  Result<std::vector<uint8_t>> data =
      LinkAppend(image, object, data_address, diags, versioned_of);
  if (!data.ok()) {
    report.error = "replacement failed to link: " + RenderErrors(diags, "link error");
    return finish(report);
  }
  for (size_t i = 0; i < data.value().size(); ++i) {
    machine_.WriteByte(data_address + static_cast<uint32_t>(i), data.value()[i]);
  }
  report.new_functions = static_cast<int>(object.functions.size());

  auto abandon = [&](const std::string& error) -> SwapReport& {
    // Exact rollback: the binding slots were never touched, so the old
    // generation keeps serving. The appended text is unreachable and leaked by
    // design (no caller enumeration, ever); the versioned symbols are removed.
    for (const ObjSymbol& symbol : object.symbols()) {
      if (symbol.global && symbol.section != ObjSymbol::Section::kUndefined) {
        image.function_symbols.erase(symbol.name());
        image.data_symbols.erase(symbol.name());
      }
    }
    report.error = error;
    return finish(report);
  };

  // New function ids exist now: the machine verifies them before anything can
  // reach them, extends its profiling attribution and drops its branch
  // predictions, as hardware would after new code is loaded.
  std::string rejected = machine_.RefreshAfterImageGrowth();
  if (!rejected.empty()) {
    return abandon("replacement rejected: " + rejected);
  }

  // ---- run the replacement's initializers --------------------------------------
  // Failure semantics mirror failsafe init: a nonzero status or a trap abandons
  // the instance without running ANY of its finalizers (it never finished
  // initializing), and the old generation stays bound.
  if (machine_.fault_plan().HasSwapPoint("swap-init")) {
    return abandon("injected initializer failure at swap point 'swap-init'");
  }
  const bool inject_init_trap = machine_.fault_plan().HasSwapPoint("swap-init-trap");
  if (inject_init_trap && replacement.initializers.empty()) {
    return abandon("injected initializer trap at swap point 'swap-init-trap'");
  }
  const size_t eval_depth = machine_.EvalDepth();
  for (const std::string& name : replacement.initializers) {
    int id = image.FindFunction(name);
    if (inject_init_trap) {
      // Route through the machine's own fault machinery so the trap unwinds the
      // initializer's real frame (and backtrace) rather than being simulated.
      FaultPlan plan = machine_.fault_plan();
      plan.injections.push_back(FaultInjection{name, 1, true, 1});
      machine_.set_fault_plan(plan);
    }
    RunResult result = machine_.CallId(id);
    if (inject_init_trap) {
      FaultPlan plan = machine_.fault_plan();
      plan.injections.pop_back();
      machine_.set_fault_plan(plan);
    }
    if (!result.ok) {
      machine_.RecoverNestedTrap(eval_depth);
      return abandon("initializer '" + name + "' trapped: " + result.error);
    }
    if (image.functions[id].returns_value && result.value != 0) {
      return abandon("initializer '" + name + "' returned status " +
                     std::to_string(result.value));
    }
  }

  // ---- injection point: abort after quiesce, before rebind ---------------------
  if (machine_.fault_plan().HasSwapPoint("swap-quiesce")) {
    // The new generation fully initialized but never goes live; unwind it with
    // its own finalizers (best effort) before abandoning.
    for (const std::string& name : replacement.finalizers) {
      RunResult result = machine_.CallId(image.FindFunction(name));
      if (!result.ok) {
        machine_.RecoverNestedTrap(eval_depth);
        report.warnings.push_back("finalizer '" + name +
                                  "' trapped while unwinding an aborted swap: " +
                                  result.error);
      }
    }
    return abandon("injected abort at swap point 'swap-quiesce' (before rebind)");
  }

  // ---- commit ------------------------------------------------------------------
  // Capture the OLD generation's finalizer ids before any symbol is repointed.
  std::vector<std::pair<std::string, int>> old_finalizers;
  for (const std::string& name : replacement.finalizers) {
    std::string unversioned = strip(name);
    int id = image.FindFunction(unversioned);
    if (id >= 0 && id < old_count) {
      old_finalizers.emplace_back(unversioned, id);
    }
  }

  // Retarget the binding slots: this is the instant the swap happens — every
  // kCallBound site and every slot ref, wherever it is stored, now reaches the
  // new generation.
  for (BindingSlot& slot : image.bindings) {
    if (slot.component != spec.instance) {
      continue;
    }
    slot.target = image.FindFunction(versioned_of.at(slot.symbol));
    ++report.rebound_slots;
  }
  // Repoint the unversioned link names so host-side Call(name) and future swaps
  // resolve to the live generation.
  for (const auto& [unversioned, versioned] : versioned_of) {
    auto function = image.function_symbols.find(versioned);
    if (function != image.function_symbols.end()) {
      image.function_symbols[unversioned] = function->second;
      continue;
    }
    auto data = image.data_symbols.find(versioned);
    if (data != image.data_symbols.end()) {
      image.data_symbols[unversioned] = data->second;
    }
  }
  // Retire the old generation: run its finalizers (trap-guarded — a misbehaving
  // finalizer downgrades to a warning, never to a dead router).
  for (const auto& [unversioned, id] : old_finalizers) {
    RunResult result = machine_.CallId(id);
    if (!result.ok) {
      machine_.RecoverNestedTrap(eval_depth);
      report.warnings.push_back("old finalizer '" + unversioned +
                                "' trapped during retirement: " + result.error);
    }
  }
  // Drop branch-target predictions that captured old slot targets.
  machine_.RefreshAfterImageGrowth();

  report.ok = true;
  return finish(report);
}

}  // namespace knit
