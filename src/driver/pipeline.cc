#include "src/driver/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <set>
#include <string_view>

#include "src/flatten/flatten.h"
#include "src/knitlang/parser.h"
#include "src/minic/cparser.h"
#include "src/minic/sema.h"
#include "src/support/executor.h"
#include "src/support/hash.h"
#include "src/support/mangle.h"
#include "src/support/trace_event.h"
#include "src/vm/codegen.h"

namespace knit {

namespace {

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

// True when the unit is backed by pre-compiled object code rather than sources.
bool IsObjectUnit(const UnitDecl& unit) {
  return unit.files.size() == 1 && unit.files[0].size() > 2 &&
         unit.files[0].rfind(".o") == unit.files[0].size() - 2;
}

// The C identifier a unit's source uses for (port, symbol), honoring renames.
std::string CNameOf(const UnitDecl& unit, const std::string& port, const std::string& symbol) {
  for (const RenameDecl& rename : unit.renames) {
    if (rename.port == port && rename.symbol == symbol) {
      return rename.c_name;
    }
  }
  return symbol;
}

// ---- cache keys --------------------------------------------------------------

// Hashes `file` plus its transitive `#include "..."` closure through the in-memory
// SourceMap (include-once, matching the lexer's semantics). A missing file hashes
// as such — the subsequent real compile reports the diagnostic.
void HashFileClosure(const SourceMap& sources, const std::string& file,
                     std::set<std::string>& visited, Fnv64& hasher) {
  if (!visited.insert(file).second) {
    return;
  }
  hasher.Update(file);
  auto it = sources.find(file);
  if (it == sources.end()) {
    hasher.Update("<missing>");
    return;
  }
  const std::string& text = it->second;
  hasher.Update(text);
  for (size_t pos = 0; pos < text.size();) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string_view line(text.data() + pos, end - pos);
    size_t i = line.find_first_not_of(" \t");
    if (i != std::string_view::npos && line[i] == '#') {
      size_t open = line.find('"', i);
      size_t close = open == std::string_view::npos ? std::string_view::npos
                                                    : line.find('"', open + 1);
      if (line.find("include", i) != std::string_view::npos &&
          close != std::string_view::npos) {
        HashFileClosure(sources, std::string(line.substr(open + 1, close - open - 1)),
                        visited, hasher);
      }
    }
    pos = end + 1;
  }
}

void HashCodegenOptions(const CodegenOptions& options, Fnv64& hasher) {
  hasher.Update(options.opt_level);
  hasher.Update(options.inline_limit);
  hasher.Update(options.profile_digest);
}

// The unit's component interface, as compilation sees it: C names checked by
// FrontUnit and the initializer/finalizer entry points. A bundletype edit that
// adds a symbol must invalidate cached objects even when no .c file changed.
void HashUnitInterface(const Elaboration& elaboration, const UnitDecl& unit, Fnv64& hasher) {
  hasher.Update(unit.name);
  for (const std::vector<PortDecl>* ports : {&unit.exports, &unit.imports}) {
    hasher.Update(static_cast<uint64_t>(ports->size()));
    for (const PortDecl& port : *ports) {
      hasher.Update(port.local_name);
      hasher.Update(port.bundle_type);
      const BundleTypeDecl* bundle = elaboration.FindBundleType(port.bundle_type);
      if (bundle == nullptr) {
        hasher.Update("<unknown-bundle>");
        continue;
      }
      for (const std::string& symbol : bundle->symbols) {
        hasher.Update(symbol);
        hasher.Update(CNameOf(unit, port.local_name, symbol));
      }
    }
  }
  for (const std::vector<InitFiniDecl>* list : {&unit.initializers, &unit.finalizers}) {
    hasher.Update(static_cast<uint64_t>(list->size()));
    for (const InitFiniDecl& decl : *list) {
      hasher.Update(decl.function);
    }
  }
}

// Expands KnitcOptions::swappable ("*" = every instance) against the
// configuration's instance paths; unknown paths are errors.
bool ExpandSwappable(const std::vector<std::string>& swappable, const Configuration& config,
                     std::set<std::string>& out, Diagnostics& diags) {
  bool ok = true;
  for (const std::string& entry : swappable) {
    if (entry == "*") {
      for (const Instance& instance : config.instances) {
        out.insert(instance.path);
      }
      continue;
    }
    if (config.FindInstance(entry) < 0) {
      diags.Error(SourceLoc::Unknown(),
                  "swappable instance '" + entry + "' does not exist in this configuration");
      ok = false;
      continue;
    }
    out.insert(entry);
  }
  return ok;
}

}  // namespace

// ---- metrics -----------------------------------------------------------------

double PipelineMetrics::StageSeconds(const std::string& stage) const {
  double total = 0;
  for (const StageMetrics& row : stages) {
    if (row.stage == stage) {
      total += row.seconds;
    }
  }
  return total;
}

double PipelineMetrics::TotalSeconds() const {
  double total = 0;
  for (const StageMetrics& row : stages) {
    total += row.seconds;
  }
  return total;
}

int PipelineMetrics::CacheHits() const {
  int total = 0;
  for (const StageMetrics& row : stages) {
    total += row.cache_hits;
  }
  return total;
}

int PipelineMetrics::CacheMisses() const {
  int total = 0;
  for (const StageMetrics& row : stages) {
    total += row.cache_misses;
  }
  return total;
}

const StageMetrics* PipelineMetrics::Find(const std::string& stage) const {
  const StageMetrics* found = nullptr;
  for (const StageMetrics& row : stages) {
    if (row.stage == stage) {
      found = &row;
    }
  }
  return found;
}

std::string PipelineMetrics::ToJson() const {
  auto number = [](double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6f", value);
    return std::string(buffer);
  };
  std::string json = "{\n";
  json += "  \"instances\": " + std::to_string(instance_count) + ",\n";
  json += "  \"objects\": " + std::to_string(object_count) + ",\n";
  json += "  \"flatten_groups\": " + std::to_string(flatten_group_count) + ",\n";
  json += "  \"cache_hits\": " + std::to_string(CacheHits()) + ",\n";
  json += "  \"cache_misses\": " + std::to_string(CacheMisses()) + ",\n";
  json += "  \"total_seconds\": " + number(TotalSeconds()) + ",\n";
  json += "  \"stages\": [\n";
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageMetrics& row = stages[i];
    json += "    {\"stage\": \"" + row.stage + "\", \"seconds\": " + number(row.seconds) +
            ", \"items\": " + std::to_string(row.items) +
            ", \"cache_hits\": " + std::to_string(row.cache_hits) +
            ", \"cache_misses\": " + std::to_string(row.cache_misses) +
            ", \"threads\": " + std::to_string(row.threads) + "}";
    json += i + 1 < stages.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  return json;
}

std::string PipelineMetricsTraceJson(const PipelineMetrics& metrics) {
  TraceEventLog log;
  log.NameProcess(1, "knit pipeline");
  log.NameThread(1, 1, "stages");
  double offset_us = 0;
  for (const StageMetrics& row : metrics.stages) {
    TraceEvent event;
    event.name = row.stage;
    event.category = "pipeline";
    event.phase = 'X';
    event.timestamp_us = offset_us;
    event.duration_us = row.seconds * 1e6;
    event.args.emplace_back("items", std::to_string(row.items));
    event.args.emplace_back("cache_hits", std::to_string(row.cache_hits));
    event.args.emplace_back("cache_misses", std::to_string(row.cache_misses));
    event.args.emplace_back("threads", std::to_string(row.threads));
    log.Add(std::move(event));
    offset_us += row.seconds * 1e6;
  }
  return log.ToJson();
}

// ---- image fingerprint -------------------------------------------------------

namespace {

// The fingerprint hashes a native reference as the id native n had before
// natives got their own range, functions.size() + n, so recorded fingerprints
// stay valid. Swapping the two ranges keeps the mapping one-to-one.
int HashedCallableId(const Image& image, int id) {
  const int functions = static_cast<int>(image.functions.size());
  const int natives = static_cast<int>(image.natives.size());
  if (Image::IsNativeId(id) && Image::NativeIndex(id) < natives) {
    return functions + Image::NativeIndex(id);
  }
  if (id >= functions && id < functions + natives) {
    return Image::NativeId(id - functions);
  }
  return id;
}

uint32_t HashedWord(const Image& image, uint32_t value) {
  return IsFuncRef(value) ? EncodeFuncRef(HashedCallableId(image, DecodeFuncRef(value))) : value;
}

}  // namespace

uint64_t FingerprintImage(const Image& image) {
  Fnv64 hasher;
  hasher.Update(static_cast<uint64_t>(image.functions.size()));
  for (const BytecodeFunction& function : image.functions) {
    hasher.Update(function.name);
    hasher.Update(function.frame_size);
    hasher.Update(function.param_count);
    hasher.Update(function.variadic);
    hasher.Update(function.returns_value);
    hasher.Update(function.text_offset);
    hasher.Update(static_cast<uint64_t>(function.code.size()));
    for (const Insn& insn : function.code) {
      int32_t a = insn.a;
      if (insn.op == Op::kCall) {
        a = HashedCallableId(image, a);
      } else if (insn.op == Op::kConstInt) {
        a = static_cast<int32_t>(HashedWord(image, static_cast<uint32_t>(a)));
      }
      hasher.Update(static_cast<uint64_t>(static_cast<uint8_t>(insn.op)));
      hasher.Update(a);
      hasher.Update(insn.b);
    }
  }
  hasher.Update(static_cast<uint64_t>(image.natives.size()));
  for (const std::string& native : image.natives) {
    hasher.Update(native);
  }
  // The linked function refs in data, read from image.data so an address
  // listed twice is mapped once.
  std::vector<uint8_t> data = image.data;
  for (uint32_t address : image.func_ref_data) {
    const uint64_t offset = static_cast<uint64_t>(address) - image.data_base;
    if (address < image.data_base || offset + 4 > data.size()) {
      continue;
    }
    uint32_t word = 0;
    for (int i = 0; i < 4; ++i) {
      word |= static_cast<uint32_t>(image.data[offset + i]) << (8 * i);
    }
    word = HashedWord(image, word);
    for (int i = 0; i < 4; ++i) {
      data[offset + i] = static_cast<uint8_t>(word >> (8 * i));
    }
  }
  hasher.Update(data.data(), data.size());
  hasher.Update(static_cast<uint64_t>(image.data_base));
  hasher.Update(static_cast<uint64_t>(image.function_symbols.size()));
  for (const auto& [name, id] : image.function_symbols) {
    hasher.Update(name);
    hasher.Update(id);
  }
  hasher.Update(static_cast<uint64_t>(image.data_symbols.size()));
  for (const auto& [name, address] : image.data_symbols) {
    hasher.Update(name);
    hasher.Update(static_cast<uint64_t>(address));
  }
  hasher.Update(static_cast<uint64_t>(image.bindings.size()));
  for (const BindingSlot& slot : image.bindings) {
    hasher.Update(slot.symbol);
    hasher.Update(slot.component);
    hasher.Update(HashedCallableId(image, slot.target));
  }
  hasher.Update(image.text_bytes);
  return hasher.digest();
}

// ---- profile recording context -----------------------------------------------

ProfileMeta MakeProfileMeta(const ElaboratedConfig& config, int opt_level) {
  ProfileMeta meta;
  meta.top = config.top_unit;
  meta.opt_level = opt_level;
  Fnv64 hasher;
  hasher.Update("profile-config-v1");
  hasher.Update(config.top_unit);
  hasher.Update(static_cast<uint64_t>(config.config->instances.size()));
  for (const Instance& instance : config.config->instances) {
    hasher.Update(instance.path);
    hasher.Update(instance.unit != nullptr ? instance.unit->name : "<null>");
    hasher.Update(instance.flatten_group);
  }
  meta.config_digest = hasher.digest();
  return meta;
}

const std::vector<std::string>& IntrinsicNatives() {
  static const std::vector<std::string> kIntrinsics = {
      "__sbrk",   "__putchar",       "__cycles", "__abort",      "__vararg",
      "__vararg_count", "__trace",   "__alloc_note", "__free_note",
  };
  return kIntrinsics;
}

// ---- front-end stages --------------------------------------------------------

KnitPipeline::KnitPipeline(KnitcOptions options) : options_(std::move(options)) {
  cache_ = options_.cache != nullptr ? options_.cache
                                     : std::make_shared<BuildCache>(options_.cache_dir);
}

StageMetrics& KnitPipeline::BeginStage(const std::string& stage) {
  StageMetrics row;
  row.stage = stage;
  metrics_.stages.push_back(std::move(row));
  return metrics_.stages.back();
}

Result<ParsedProgram> KnitPipeline::Parse(const std::string& knit_source, Diagnostics& diags) {
  auto t0 = std::chrono::steady_clock::now();
  StageMetrics& metrics = BeginStage("parse");
  Result<KnitProgram> program = ParseKnit(knit_source, "<knit>", diags);
  if (!program.ok()) {
    metrics.seconds = Seconds(t0);
    return Result<ParsedProgram>::Failure();
  }
  ParsedProgram parsed;
  parsed.program = std::make_shared<const KnitProgram>(program.take());
  metrics.items = static_cast<int>(parsed.program->units.size());
  metrics.seconds = Seconds(t0);
  return parsed;
}

Result<ElaboratedConfig> KnitPipeline::Elaborate(const ParsedProgram& parsed,
                                                 const std::string& top_unit,
                                                 Diagnostics& diags) {
  auto t0 = std::chrono::steady_clock::now();
  StageMetrics& metrics = BeginStage("elaborate");
  Result<Elaboration> elaboration = knit::Elaborate(*parsed.program, diags);
  bool ok = elaboration.ok();
  if (ok) {
    // Compile tasks apply `flags` declarations; a malformed value is reported
    // here, at its declaration, before any of them runs.
    for (const auto& [name, decl] : elaboration.value().flag_sets) {
      CodegenOptions probe;
      std::string error;
      if (!probe.ApplyFlags(decl.flags, &error)) {
        diags.Error(decl.loc, "flags " + name + ": " + error);
        ok = false;
      }
    }
  }
  if (!ok) {
    metrics.seconds = Seconds(t0);
    return Result<ElaboratedConfig>::Failure();
  }
  ElaboratedConfig elaborated;
  elaborated.elaboration = std::make_shared<const Elaboration>(elaboration.take());
  elaborated.top_unit = top_unit;
  Result<Configuration> config = Instantiate(*elaborated.elaboration, top_unit, diags);
  if (!config.ok()) {
    metrics.seconds = Seconds(t0);
    return Result<ElaboratedConfig>::Failure();
  }
  elaborated.config = std::make_shared<const Configuration>(config.take());
  metrics.items = static_cast<int>(elaborated.config->instances.size());
  metrics_.instance_count = metrics.items;
  metrics.seconds = Seconds(t0);
  return elaborated;
}

Result<ScheduledConfig> KnitPipeline::Schedule(const ElaboratedConfig& elaborated,
                                               Diagnostics& diags) {
  auto t0 = std::chrono::steady_clock::now();
  StageMetrics& metrics = BeginStage("schedule");
  Result<knit::Schedule> schedule = ScheduleInitFini(*elaborated.config, diags);
  metrics.seconds = Seconds(t0);
  if (!schedule.ok()) {
    return Result<ScheduledConfig>::Failure();
  }
  ScheduledConfig scheduled;
  scheduled.elaborated = elaborated;
  scheduled.schedule = std::make_shared<const knit::Schedule>(schedule.take());
  metrics_.stages.back().items =
      static_cast<int>(scheduled.schedule->initializers.size() +
                       scheduled.schedule->finalizers.size());
  return scheduled;
}

Result<CheckedConfig> KnitPipeline::Check(const ScheduledConfig& scheduled, Diagnostics& diags) {
  auto t0 = std::chrono::steady_clock::now();
  StageMetrics& metrics = BeginStage("check");
  CheckedConfig checked;
  checked.scheduled = scheduled;
  if (!options_.check_constraints) {
    checked.solution = std::make_shared<const ConstraintSolution>();
    metrics.seconds = Seconds(t0);
    return checked;
  }
  ConstraintSolution solution;
  Result<void> result = CheckConstraints(*scheduled.elaborated.elaboration,
                                         *scheduled.elaborated.config, diags, &solution);
  metrics.items = static_cast<int>(scheduled.elaborated.config->instances.size());
  metrics.seconds = Seconds(t0);
  if (!result.ok()) {
    return Result<CheckedConfig>::Failure();
  }
  checked.solution = std::make_shared<const ConstraintSolution>(std::move(solution));
  return checked;
}

// ---- compile stage -----------------------------------------------------------

namespace {

// One compile task's output. Tasks never touch shared mutable state other than the
// (internally locked) BuildCache; everything else lands here and is merged on the
// calling thread in task-index order.
struct TaskResult {
  Diagnostics diags;
  Result<ObjectFile> object = Result<ObjectFile>::Failure();
  bool cache_hit = false;
  bool cacheable = true;  // prebuilt objects are neither hits nor misses
  // Per-pass optimizer stats from a fresh compile (empty on cache hits); merged
  // into PipelineMetrics::pass_stats in task order.
  std::vector<PassStats> pass_stats;
};

// ---- per-instance front end, names and objcopy --------------------------------
//
// Shared by the compile stage and CompileInstanceReplacement, so a hot-swap
// replacement is held to exactly the composition rules the original unit was:
// the same interface contract, the same rename map, the same localization.

// Parses + checks `files` as `unit`'s translation unit against the caller-owned
// TypeTable, then verifies that they define every export and initializer/
// finalizer and do not define imports. `subject` opens each contract diagnostic
// ("unit 'Foo'", "replacement for Top/Foo").
Result<TranslationUnit> FrontUnit(const Elaboration& elaboration, const SourceView& sources,
                                  const std::vector<std::string>& files, const UnitDecl& unit,
                                  const std::string& subject, TypeTable& types,
                                  SemaInfo* info_out, Diagnostics& diags) {
  Result<TranslationUnit> tu = ParseCFiles(sources, files, unit.name, types, diags);
  if (!tu.ok()) {
    return tu;
  }
  Result<SemaInfo> info = AnalyzeTranslationUnit(tu.value(), types, diags);
  if (!info.ok()) {
    return Result<TranslationUnit>::Failure();
  }
  auto defines = [&](const std::string& c_name) {
    return info.value().defined_functions.count(c_name) > 0 ||
           info.value().defined_globals.count(c_name) > 0;
  };
  bool ok = true;
  for (const PortDecl& port : unit.exports) {
    const BundleTypeDecl* bundle = elaboration.FindBundleType(port.bundle_type);
    for (const std::string& symbol : bundle->symbols) {
      std::string c_name = CNameOf(unit, port.local_name, symbol);
      if (!defines(c_name)) {
        diags.Error(port.loc, subject + ": files do not define '" + c_name +
                                  "' (the C name of export " + port.local_name + "." + symbol +
                                  ")");
        ok = false;
      }
    }
  }
  for (const PortDecl& port : unit.imports) {
    const BundleTypeDecl* bundle = elaboration.FindBundleType(port.bundle_type);
    for (const std::string& symbol : bundle->symbols) {
      std::string c_name = CNameOf(unit, port.local_name, symbol);
      if (defines(c_name)) {
        diags.Error(port.loc, subject + ": files DEFINE '" + c_name +
                                  "', which is the C name of import " + port.local_name + "." +
                                  symbol + " (imports must only be declared)");
        ok = false;
      }
    }
  }
  for (const std::vector<InitFiniDecl>* list : {&unit.initializers, &unit.finalizers}) {
    for (const InitFiniDecl& decl : *list) {
      if (info.value().defined_functions.count(decl.function) == 0) {
        diags.Error(decl.loc, subject + ": files do not define initializer/finalizer '" +
                                  decl.function + "'");
        ok = false;
      }
    }
  }
  if (!ok) {
    return Result<TranslationUnit>::Failure();
  }
  if (info_out != nullptr) {
    *info_out = std::move(info.value());
  }
  return tu;
}

// Resolves the link name a supplier reference provides for `symbol`: a
// top-level-import environment name or the producing instance's export.
std::string SupplierLinkName(const Configuration& config, const SupplierRef& supplier,
                             const std::string& symbol) {
  if (supplier.IsEnvironment()) {
    return EnvSymbol(config.top->imports[supplier.port].local_name, symbol);
  }
  const Instance& producer = config.instances[supplier.instance];
  return MangleExport(producer.path, producer.unit->exports[supplier.port].local_name, symbol);
}

struct InstanceNames {
  std::map<std::string, std::string> renames;  // C name -> link name
  std::set<std::string> keep_global;           // link names that stay global
};

// One instance's objcopy rename map. Exports and init/fini entry points get the
// instance's link names plus `version_suffix` (so a replacement's globals
// coexist with the retired generation's in one image); imports resolve to
// their suppliers' unversioned link names. Export port `e` stays global when
// `keep_export(e)`; init/fini entry points always do (the generated init object
// and the reconfig engine call them by name).
bool BuildInstanceNames(const Elaboration& elaboration, const Configuration& config,
                        int instance_index, const std::string& version_suffix,
                        const std::function<bool(int)>& keep_export, InstanceNames& out,
                        Diagnostics& diags) {
  const Instance& instance = config.instances[instance_index];
  const UnitDecl& unit = *instance.unit;

  auto add = [&](const std::string& c_name, const std::string& link_name,
                 const SourceLoc& loc) {
    auto [it, inserted] = out.renames.emplace(c_name, link_name);
    if (!inserted && it->second != link_name) {
      diags.Error(loc, "unit '" + unit.name + "' (instance " + instance.path +
                           "): C identifier '" + c_name +
                           "' is used for two different connections; add a rename "
                           "declaration to disambiguate");
      return false;
    }
    return true;
  };

  for (size_t e = 0; e < unit.exports.size(); ++e) {
    const PortDecl& port = unit.exports[e];
    const BundleTypeDecl* bundle = elaboration.FindBundleType(port.bundle_type);
    bool keep = keep_export(static_cast<int>(e));
    for (const std::string& symbol : bundle->symbols) {
      std::string link = MangleExport(instance.path, port.local_name, symbol) + version_suffix;
      if (!add(CNameOf(unit, port.local_name, symbol), link, port.loc)) {
        return false;
      }
      if (keep) {
        out.keep_global.insert(link);
      }
    }
  }
  for (size_t m = 0; m < unit.imports.size(); ++m) {
    const PortDecl& port = unit.imports[m];
    const BundleTypeDecl* bundle = elaboration.FindBundleType(port.bundle_type);
    for (const std::string& symbol : bundle->symbols) {
      if (!add(CNameOf(unit, port.local_name, symbol),
               SupplierLinkName(config, instance.import_suppliers[m], symbol), port.loc)) {
        return false;
      }
    }
  }
  for (const std::vector<InitFiniDecl>* list : {&unit.initializers, &unit.finalizers}) {
    for (const InitFiniDecl& decl : *list) {
      auto existing = out.renames.find(decl.function);
      if (existing != out.renames.end()) {
        // Also an exported symbol; the init/fini call goes through its export
        // link name, which therefore must stay global.
        out.keep_global.insert(existing->second);
        continue;
      }
      std::string link = MangleInitFini(instance.path, decl.function) + version_suffix;
      if (!add(decl.function, link, decl.loc)) {
        return false;
      }
      out.keep_global.insert(link);
    }
  }
  return true;
}

// The objcopy step for one instance object: applies `names.renames`, hides every
// other defined global (Knit's "defined names that are not exported will be
// hidden from all other units"), verifies each kept name is still defined (a
// static initializer cannot be called from outside the object), and stamps
// every function as code of `instance`.
bool RenameAndLocalize(ObjectFile& object, const Instance& instance, const InstanceNames& names,
                       Diagnostics& diags) {
  if (!ObjcopyRename(object, names.renames, diags).ok()) {
    return false;
  }
  for (ObjSymbol& symbol : object.symbols()) {
    if (symbol.global && symbol.section != ObjSymbol::Section::kUndefined &&
        names.keep_global.count(symbol.name()) == 0) {
      symbol.global = false;
    }
  }
  for (const std::string& keep : names.keep_global) {
    int index = object.FindSymbol(keep);
    if (index < 0 || object.symbols()[index].section == ObjSymbol::Section::kUndefined) {
      diags.Error(instance.unit->loc,
                  "instance " + instance.path + ": expected defined symbol '" + keep +
                      "' after renaming (is an export or initializer declared static, "
                      "or missing?)");
      return false;
    }
  }
  for (BytecodeFunction& function : object.functions) {
    function.component = instance.path;
  }
  return true;
}

// The compile stage: groups instances, compiles every needed unit/flatten-group
// object (parallel, cached), then merges deterministically — objcopy per
// standalone instance in instance order, flatten groups in group order, and the
// generated init/fini object last.
class CompileStage {
 public:
  CompileStage(const KnitcOptions& options, const CheckedConfig& checked,
               const SourceMap& sources, BuildCache& cache, PipelineMetrics& metrics)
      : options_(options),
        checked_(checked),
        config_(*checked.scheduled.elaborated.config),
        elaboration_(*checked.scheduled.elaborated.elaboration),
        schedule_(*checked.scheduled.schedule),
        sources_(sources),
        cache_(cache),
        metrics_(metrics) {}

  Result<CompiledUnits> Run(Diagnostics& diags) {
    auto t0 = std::chrono::steady_clock::now();
    StageMetrics compile_metrics;
    compile_metrics.stage = "compile";

    AssignGroups();
    if (!ExpandSwappable(options_.swappable, config_, swappable_, diags)) {
      return Result<CompiledUnits>::Failure();
    }
    // A swappable instance must keep its boundary as call sites: pull it out of
    // any flatten group (like object-backed units) so it compiles standalone and
    // its consumed exports stay external — which is what gives them binding
    // slots at link time.
    for (size_t i = 0; i < config_.instances.size(); ++i) {
      if (swappable_.count(config_.instances[i].path) > 0) {
        groups_[i] = -1;
      }
    }
    ComputeExternalExports();
    metrics_.instance_count = static_cast<int>(config_.instances.size());

    // Task list: one task per distinct standalone unit (first-use order), then one
    // per flatten group. Slots are indexed, so the merge below is deterministic no
    // matter which thread ran what.
    std::vector<const UnitDecl*> unit_tasks;
    std::map<std::string, size_t> unit_task_index;
    for (size_t i = 0; i < config_.instances.size(); ++i) {
      const UnitDecl* unit = config_.instances[i].unit;
      if (groups_[i] < 0 && unit_task_index.emplace(unit->name, unit_tasks.size()).second) {
        unit_tasks.push_back(unit);
      }
    }

    std::vector<TaskResult> results(unit_tasks.size() + static_cast<size_t>(group_count_));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(results.size());
    for (size_t t = 0; t < unit_tasks.size(); ++t) {
      tasks.push_back([this, t, &unit_tasks, &results] {
        CompileUnitTask(*unit_tasks[t], results[t]);
      });
    }
    for (int group = 0; group < group_count_; ++group) {
      size_t slot = unit_tasks.size() + static_cast<size_t>(group);
      tasks.push_back([this, group, slot, &results] { CompileGroupTask(group, results[slot]); });
    }

    Executor executor(options_.jobs);
    compile_metrics.threads = executor.Run(tasks);
    compile_metrics.items = static_cast<int>(tasks.size());

    bool failed = false;
    for (const TaskResult& result : results) {
      diags.Append(result.diags);  // task-index order: same stream at any --jobs
      failed = failed || !result.object.ok();
      if (result.cacheable) {
        ++(result.cache_hit ? compile_metrics.cache_hits : compile_metrics.cache_misses);
      }
      MergePassStats(metrics_.pass_stats, result.pass_stats);
    }
    compile_metrics.seconds = Seconds(t0);
    metrics_.stages.push_back(compile_metrics);
    if (failed) {
      return Result<CompiledUnits>::Failure();
    }

    // ---- deterministic merge -------------------------------------------------
    CompiledUnits compiled;
    compiled.checked = checked_;
    compiled.init_function = "knit__init";
    compiled.fini_function = "knit__fini";

    auto t_objcopy = std::chrono::steady_clock::now();
    StageMetrics objcopy_metrics;
    objcopy_metrics.stage = "objcopy";
    for (size_t i = 0; i < config_.instances.size(); ++i) {
      if (groups_[i] >= 0) {
        continue;
      }
      const Instance& instance = config_.instances[i];
      const TaskResult& base = results[unit_task_index.at(instance.unit->name)];
      if (!InstantiateObject(static_cast<int>(i), base.object.value(), compiled, diags)) {
        return Result<CompiledUnits>::Failure();
      }
      ++objcopy_metrics.items;
    }
    objcopy_metrics.seconds = Seconds(t_objcopy);
    metrics_.stages.push_back(objcopy_metrics);

    for (int group = 0; group < group_count_; ++group) {
      const TaskResult& result = results[unit_tasks.size() + static_cast<size_t>(group)];
      if (result.object.value().functions.empty() && result.object.value().symbols().empty() &&
          result.object.value().name.empty()) {
        continue;  // empty group (all members were pulled out as object units)
      }
      compiled.objects.push_back(result.object.value());
      ++metrics_.flatten_group_count;
    }

    auto t_init = std::chrono::steady_clock::now();
    StageMetrics init_metrics;
    init_metrics.stage = "init-object";
    if (!GenerateInitObject(compiled, diags)) {
      return Result<CompiledUnits>::Failure();
    }
    init_metrics.items = 1;
    init_metrics.seconds = Seconds(t_init);
    metrics_.stages.push_back(init_metrics);

    metrics_.object_count =
        static_cast<int>(compiled.objects.size()) - 1;  // init object not counted
    return compiled;
  }

 private:
  // ---- grouping (unchanged semantics from the monolithic driver) -------------

  void AssignGroups() {
    groups_.assign(config_.instances.size(), -1);
    if (options_.flatten_everything) {
      for (size_t i = 0; i < config_.instances.size(); ++i) {
        groups_[i] = 0;
      }
      group_count_ = 1;
      StripObjectUnitsFromGroups();
      return;
    }
    if (!options_.flatten) {
      group_count_ = 0;
      return;
    }
    for (size_t i = 0; i < config_.instances.size(); ++i) {
      groups_[i] = config_.instances[i].flatten_group;
    }
    group_count_ = config_.flatten_group_count;
    StripObjectUnitsFromGroups();
  }

  // Pre-compiled units cannot be source-merged; they fall back to the objcopy path
  // even inside a flatten region.
  void StripObjectUnitsFromGroups() {
    for (size_t i = 0; i < config_.instances.size(); ++i) {
      if (IsObjectUnit(*config_.instances[i].unit)) {
        groups_[i] = -1;
      }
    }
  }

  // Exports that must remain globally visible after compilation: those consumed by
  // an instance in a *different* object (another flatten group or a standalone
  // instance) and those realizing top-level exports. Everything else can be
  // localized/staticized, which is what lets the optimizer inline unit code away
  // entirely inside a flattened group (and is why the paper's flattened router is
  // smaller, not larger, than the modular one).
  void ComputeExternalExports() {
    auto group_of = [&](int i) { return groups_[i] >= 0 ? groups_[i] : -(i + 2); };
    for (size_t i = 0; i < config_.instances.size(); ++i) {
      const Instance& instance = config_.instances[i];
      for (const SupplierRef& supplier : instance.import_suppliers) {
        if (supplier.IsEnvironment()) {
          continue;
        }
        if (group_of(supplier.instance) != group_of(static_cast<int>(i))) {
          external_exports_.insert({supplier.instance, supplier.port});
        }
      }
    }
    for (const SupplierRef& supplier : config_.top_export_suppliers) {
      if (!supplier.IsEnvironment()) {
        external_exports_.insert({supplier.instance, supplier.port});
      }
    }
  }

  // The compile stage's rename map: unversioned, and only exports consumed
  // outside the instance's object stay global.
  bool BuildInstanceNames(int instance_index, InstanceNames& out, Diagnostics& diags) const {
    auto external = [&](int port) {
      return external_exports_.count({instance_index, port}) > 0;
    };
    return knit::BuildInstanceNames(elaboration_, config_, instance_index, "", external, out,
                                    diags);
  }

  Result<TranslationUnit> FrontUnit(const UnitDecl& unit, TypeTable& types, SemaInfo* info_out,
                                    Diagnostics& diags) const {
    return knit::FrontUnit(elaboration_, sources_, unit.files, unit, "unit '" + unit.name + "'",
                           types, info_out, diags);
  }

  // Link name used to CALL an init/fini function of an instance.
  std::string InitCallName(const InitCall& call) const {
    const Instance& instance = config_.instances[call.instance];
    // If the function doubles as an exported symbol, use the export link name.
    for (size_t e = 0; e < instance.unit->exports.size(); ++e) {
      const PortDecl& port = instance.unit->exports[e];
      const BundleTypeDecl* bundle = elaboration_.FindBundleType(port.bundle_type);
      for (const std::string& symbol : bundle->symbols) {
        if (CNameOf(*instance.unit, port.local_name, symbol) == call.function) {
          return MangleExport(instance.path, port.local_name, symbol);
        }
      }
    }
    return MangleInitFini(instance.path, call.function);
  }

  // ---- compilation -----------------------------------------------------------

  // The build-level codegen configuration (level and profile), before any
  // unit `flags` declaration overrides.
  CodegenOptions BaseCodegenOptions() const {
    CodegenOptions options;
    options.opt_level = options_.opt_level;
    if (options_.profile != nullptr) {
      options.profile_digest = ProfileDigest(*options_.profile);
    }
    return options;
  }

  CodegenOptions UnitCodegenOptions(const UnitDecl& unit) const {
    std::vector<std::string> flags;
    if (!unit.flags_name.empty()) {
      const FlagsDecl* decl = elaboration_.FindFlags(unit.flags_name);
      if (decl != nullptr) {
        flags = decl->flags;
      }
    }
    CodegenOptions options = BaseCodegenOptions();
    options.ApplyFlags(flags);
    if (options_.opt_level == 0) {
      options.opt_level = 0;  // -O0 builds ignore unit-level -O flags
    }
    return options;
  }

  // ---- cache keys ------------------------------------------------------------

  uint64_t UnitCacheKey(const UnitDecl& unit) const {
    Fnv64 hasher;
    hasher.Update("unit-object-v5");  // v5: implicit malloc/free lowering
    HashUnitInterface(elaboration_, unit, hasher);
    std::set<std::string> visited;
    for (const std::string& file : unit.files) {
      HashFileClosure(sources_, file, visited, hasher);
    }
    HashCodegenOptions(UnitCodegenOptions(unit), hasher);
    return hasher.digest();
  }

  uint64_t GroupCacheKey(int group, const std::vector<int>& members,
                         const std::vector<InstanceNames>& names) const {
    Fnv64 hasher;
    hasher.Update("flatten-group-v6");  // v6: seeded malloc/free import prototypes
    hasher.Update("flatten" + std::to_string(group) + ".o");
    hasher.Update(options_.sort_definitions);
    hasher.Update(options_.callers_first_definitions);
    HashCodegenOptions(BaseCodegenOptions(), hasher);
    for (size_t m = 0; m < members.size(); ++m) {
      const Instance& instance = config_.instances[members[m]];
      hasher.Update(instance.path);
      HashUnitInterface(elaboration_, *instance.unit, hasher);
      std::set<std::string> visited;
      for (const std::string& file : instance.unit->files) {
        HashFileClosure(sources_, file, visited, hasher);
      }
      for (const auto& [c_name, link_name] : names[m].renames) {
        hasher.Update(c_name);
        hasher.Update(link_name);
      }
      for (const std::string& keep : names[m].keep_global) {
        hasher.Update(keep);
      }
    }
    return hasher.digest();
  }

  // ---- compile tasks (run on worker threads) ---------------------------------

  // Compiles one unit to its base (pre-objcopy) object, through the cache.
  void CompileUnitTask(const UnitDecl& unit, TaskResult& out) {
    if (IsObjectUnit(unit)) {
      out.cacheable = false;
      auto prebuilt = options_.prebuilt_objects.find(unit.files[0]);
      if (prebuilt == options_.prebuilt_objects.end()) {
        out.diags.Error(unit.loc, "unit '" + unit.name + "': no prebuilt object '" +
                                      unit.files[0] + "' was provided");
        return;
      }
      // Verify the object defines every export (and initializer/finalizer) under
      // the unit's C names; the usual source-level checks don't apply.
      const ObjectFile& object = prebuilt->second;
      bool ok = true;
      for (const PortDecl& port : unit.exports) {
        const BundleTypeDecl* bundle = elaboration_.FindBundleType(port.bundle_type);
        for (const std::string& symbol : bundle->symbols) {
          std::string c_name = CNameOf(unit, port.local_name, symbol);
          int index = object.FindSymbol(c_name);
          if (index < 0 || object.symbols()[index].section == ObjSymbol::Section::kUndefined) {
            out.diags.Error(port.loc, "unit '" + unit.name + "': prebuilt object does not "
                                      "define '" +
                                          c_name + "'");
            ok = false;
          }
        }
      }
      if (ok) {
        out.object = object;
      }
      return;
    }

    uint64_t key = UnitCacheKey(unit);
    ObjectFile cached;
    if (cache_.Lookup(key, &cached)) {
      out.cache_hit = true;
      out.object = std::move(cached);
      return;
    }
    TypeTable types;
    SemaInfo info;
    Result<TranslationUnit> tu = FrontUnit(unit, types, &info, out.diags);
    if (!tu.ok()) {
      return;
    }
    CodegenOptions codegen_options = UnitCodegenOptions(unit);
    codegen_options.pass_stats = &out.pass_stats;
    Result<ObjectFile> object = CompileTranslationUnit(
        tu.value(), info, types, codegen_options, unit.name + ".o", out.diags);
    if (!object.ok()) {
      return;
    }
    cache_.Store(key, object.value());
    out.object = object.take();
  }

  // Stamps every function of a flatten-group object with the instance path of the
  // member it came from. The flattener leaves two name shapes: renamed
  // import/export/init symbols (exact link names from the member's rename map) and
  // unit-local definitions carrying the member's sanitized path prefix. Longest
  // prefix wins so nested paths cannot shadow each other. Runs after both the
  // cache-hit and fresh-compile paths — attribution is derived, never serialized,
  // so the on-disk object format (and the cache) is unchanged.
  void AttributeGroupFunctions(ObjectFile& object, const std::vector<int>& members,
                               const std::vector<InstanceNames>& names) const {
    std::map<std::string, std::string> link_to_path;
    std::vector<std::pair<std::string, std::string>> prefix_to_path;
    for (size_t m = 0; m < members.size(); ++m) {
      const std::string& path = config_.instances[members[m]].path;
      for (const auto& [c_name, link_name] : names[m].renames) {
        link_to_path.emplace(link_name, path);
      }
      prefix_to_path.emplace_back(SanitizedPrefix(path), path);
    }
    for (BytecodeFunction& function : object.functions) {
      auto exact = link_to_path.find(function.name);
      if (exact != link_to_path.end()) {
        function.component = exact->second;
        continue;
      }
      size_t best = 0;
      for (const auto& [prefix, path] : prefix_to_path) {
        if (prefix.size() > best && function.name.rfind(prefix, 0) == 0) {
          function.component = path;
          best = prefix.size();
        }
      }
    }
  }

  // The implicit allocator builtins (`malloc`/`free`, seeded by sema) are
  // callable with no declaration, so a member TU can reference them without any
  // top-level name the flattener's scope-aware renamer would touch. When the
  // instance's rename map binds them (the unit imports an Alloc bundle), seed
  // explicit extern prototypes so those references follow the map exactly like
  // a declared import; the merged TU drops the prototype again if the provider
  // is flattened into the same group.
  static void SeedAllocBuiltinPrototypes(TranslationUnit& unit,
                                         const std::map<std::string, std::string>& renames,
                                         TypeTable& types) {
    for (const char* name : {"malloc", "free"}) {
      if (renames.count(name) == 0) {
        continue;
      }
      bool declared = false;
      for (const Decl& decl : unit.decls) {
        if ((decl.kind == Decl::Kind::kFunction || decl.kind == Decl::Kind::kGlobalVar) &&
            decl.name == name) {
          declared = true;
          break;
        }
      }
      if (declared) {
        continue;
      }
      Decl proto;
      proto.kind = Decl::Kind::kFunction;
      proto.name = name;
      if (std::string(name) == "malloc") {
        proto.func_type = types.Function(types.PointerTo(types.Void()),
                                         {FuncParam{types.Unsigned()}}, false);
        proto.params = {ParamDecl{"n", types.Unsigned()}};
      } else {
        proto.func_type = types.Function(types.Void(),
                                         {FuncParam{types.PointerTo(types.Void())}}, false);
        proto.params = {ParamDecl{"p", types.PointerTo(types.Void())}};
      }
      unit.decls.push_back(std::move(proto));
    }
  }

  // Merges one flatten group's member sources into a single TU and compiles it.
  void CompileGroupTask(int group, TaskResult& out) {
    std::vector<int> members;
    for (size_t i = 0; i < config_.instances.size(); ++i) {
      if (groups_[i] == group) {
        members.push_back(static_cast<int>(i));
      }
    }
    if (members.empty()) {
      out.cacheable = false;
      out.object = ObjectFile();  // sentinel: skipped during the merge
      return;
    }

    std::vector<InstanceNames> names(members.size());
    for (size_t m = 0; m < members.size(); ++m) {
      if (!BuildInstanceNames(members[m], names[m], out.diags)) {
        return;
      }
    }

    uint64_t key = GroupCacheKey(group, members, names);
    ObjectFile cached;
    if (cache_.Lookup(key, &cached)) {
      out.cache_hit = true;
      AttributeGroupFunctions(cached, members, names);
      out.object = std::move(cached);
      return;
    }

    TypeTable types;
    std::vector<FlattenInput> inputs;
    for (size_t m = 0; m < members.size(); ++m) {
      const Instance& instance = config_.instances[members[m]];
      Result<TranslationUnit> tu = FrontUnit(*instance.unit, types, nullptr, out.diags);
      if (!tu.ok()) {
        return;
      }
      FlattenInput input;
      input.instance_path = instance.path;
      input.unit = tu.take();
      SeedAllocBuiltinPrototypes(input.unit, names[m].renames, types);
      input.renames = names[m].renames;  // copied: AttributeGroupFunctions reads it
      input.keep_global.assign(names[m].keep_global.begin(), names[m].keep_global.end());
      inputs.push_back(std::move(input));
    }
    FlattenOptions flatten_options;
    flatten_options.sort_definitions = options_.sort_definitions;
    flatten_options.callers_first = options_.callers_first_definitions;
    Result<TranslationUnit> merged =
        FlattenUnits(std::move(inputs), flatten_options, out.diags);
    if (!merged.ok()) {
      return;
    }
    Result<SemaInfo> info = AnalyzeTranslationUnit(merged.value(), types, out.diags);
    if (!info.ok()) {
      return;
    }
    CodegenOptions codegen_options = BaseCodegenOptions();
    codegen_options.pass_stats = &out.pass_stats;
    Result<ObjectFile> object =
        CompileTranslationUnit(merged.value(), info.value(), types, codegen_options,
                               "flatten" + std::to_string(group) + ".o", out.diags);
    if (!object.ok()) {
      return;
    }
    // Store the unattributed object (component stamps are derived metadata, not
    // part of the on-disk format), then attribute our own copy.
    cache_.Store(key, object.value());
    ObjectFile finished = object.take();
    AttributeGroupFunctions(finished, members, names);
    out.object = std::move(finished);
  }

  // ---- deterministic merge helpers (calling thread only) ---------------------

  // Objcopy-duplicates the unit's base object for one standalone instance, then
  // renames and localizes it (RenameAndLocalize).
  bool InstantiateObject(int instance_index, const ObjectFile& base, CompiledUnits& compiled,
                         Diagnostics& diags) {
    const Instance& instance = config_.instances[instance_index];
    InstanceNames names;
    if (!BuildInstanceNames(instance_index, names, diags)) {
      return false;
    }
    ObjectFile object = ObjcopyDuplicate(base, instance.path + ".o");
    if (!RenameAndLocalize(object, instance, names, diags)) {
      return false;
    }
    compiled.objects.push_back(std::move(object));
    return true;
  }

  // ---- init/fini object ------------------------------------------------------

  // True when the compiled function bound to `link_name` returns a value. Such an
  // initializer is *failable*: the failsafe init runtime treats a nonzero return as
  // "initialization failed" and rolls back.
  bool ReturnsValue(const CompiledUnits& compiled, const std::string& link_name) const {
    for (const ObjectFile& object : compiled.objects) {
      int index = object.FindSymbol(link_name);
      if (index < 0 || object.symbols()[index].section != ObjSymbol::Section::kText) {
        continue;
      }
      return object.functions[object.symbols()[index].index].returns_value;
    }
    return false;
  }

  // The failure-aware init runtime (DESIGN.md "Initialization failure semantics").
  // knit__status[i] counts instance i's completed initializer calls; knit__rollback
  // finalizes exactly the fully-initialized instances (finalizer-schedule order,
  // i.e. reverse dependency order) and resets progress; knit__init returns -1 on
  // success or the failing instance index after a status failure (having already
  // rolled back). A trapped knit__init leaves the status array intact so the host
  // can invoke knit__rollback itself.
  std::string GenerateFailsafeInitSource(CompiledUnits& compiled) const {
    std::vector<int> counts = InitializerCounts(config_);
    int instance_count = static_cast<int>(config_.instances.size());

    compiled.rollback_function = "knit__rollback";
    compiled.status_symbol = "knit__status";
    compiled.failed_symbol = "knit__failed";

    std::string source;
    source += "int knit__status[" + std::to_string(std::max(1, instance_count)) + "];\n";
    source += "int knit__failed;\n";

    auto reset_progress = [&](std::string& out) {
      for (int i = 0; i < instance_count; ++i) {
        out += "  knit__status[" + std::to_string(i) + "] = 0;\n";
      }
      out += "  knit__failed = -1;\n";
    };

    source += "void knit__rollback(void) {\n";
    for (const InitCall& call : schedule_.finalizers) {
      if (counts[call.instance] == 0) {
        continue;  // never had initializers: nothing to undo on rollback
      }
      source += "  if (knit__status[" + std::to_string(call.instance) +
                "] == " + std::to_string(counts[call.instance]) + ") { " +
                InitCallName(call) + "(); }\n";
    }
    reset_progress(source);
    source += "}\n";

    source += "int knit__init(void) {\n";
    for (const InitCall& call : schedule_.initializers) {
      std::string instance = std::to_string(call.instance);
      std::string name = InitCallName(call);
      source += "  knit__failed = " + instance + ";\n";
      if (ReturnsValue(compiled, name)) {
        source += "  if (" + name + "() != 0) { knit__rollback(); return " + instance +
                  "; }\n";
      } else {
        source += "  " + name + "();\n";
      }
      source += "  knit__status[" + instance + "] = knit__status[" + instance + "] + 1;\n";
    }
    source += "  knit__failed = -1;\n";
    source += "  return -1;\n";
    source += "}\n";

    source += "void knit__fini(void) {\n";
    for (const InitCall& call : schedule_.finalizers) {
      source += "  " + InitCallName(call) + "();\n";
    }
    reset_progress(source);
    source += "}\n";
    return source;
  }

  bool GenerateInitObject(CompiledUnits& compiled, Diagnostics& diags) const {
    for (const Instance& instance : config_.instances) {
      compiled.instance_paths.push_back(instance.path);
    }
    for (const std::vector<InitCall>* list : {&schedule_.initializers, &schedule_.finalizers}) {
      for (const InitCall& call : *list) {
        compiled.init_symbol_instances.emplace(InitCallName(call), call.instance);
      }
    }

    std::string source;
    std::set<std::string> declared;
    auto declare = [&](const InitCall& call) {
      std::string name = InitCallName(call);
      if (declared.insert(name).second) {
        bool failable = options_.failsafe_init && ReturnsValue(compiled, name);
        source += std::string("extern ") + (failable ? "int " : "void ") + name + "(void);\n";
      }
    };
    for (const InitCall& call : schedule_.initializers) {
      declare(call);
    }
    for (const InitCall& call : schedule_.finalizers) {
      declare(call);
    }

    if (!options_.failsafe_init) {
      // The paper's monolithic call sequence: no progress tracking, no rollback.
      source += "void knit__init(void) {\n";
      for (const InitCall& call : schedule_.initializers) {
        source += "  " + InitCallName(call) + "();\n";
      }
      source += "}\n";
      source += "void knit__fini(void) {\n";
      for (const InitCall& call : schedule_.finalizers) {
        source += "  " + InitCallName(call) + "();\n";
      }
      source += "}\n";
    } else {
      source += GenerateFailsafeInitSource(compiled);
    }

    TypeTable types;
    Result<TranslationUnit> tu = ParseCString(source, "<knit-init>", types, diags);
    if (!tu.ok()) {
      return false;
    }
    Result<SemaInfo> info = AnalyzeTranslationUnit(tu.value(), types, diags);
    if (!info.ok()) {
      return false;
    }
    CodegenOptions codegen_options;
    codegen_options.opt_level = 0;  // nothing to optimize; keep call order obvious
    Result<ObjectFile> object = CompileTranslationUnit(tu.value(), info.value(), types,
                                                       codegen_options, "knit-init.o", diags);
    if (!object.ok()) {
      return false;
    }
    ObjectFile init_object = object.take();
    // The generated init/fini driver is composition glue, not component code; the
    // profiler reports it under this pseudo-component.
    for (BytecodeFunction& function : init_object.functions) {
      function.component = "<init>";
    }
    compiled.objects.push_back(std::move(init_object));
    return true;
  }

  const KnitcOptions& options_;
  const CheckedConfig& checked_;
  const Configuration& config_;
  const Elaboration& elaboration_;
  const knit::Schedule& schedule_;
  const SourceMap& sources_;
  BuildCache& cache_;
  PipelineMetrics& metrics_;

  std::vector<int> groups_;  // group id per instance; -1 = standalone (objcopy path)
  int group_count_ = 0;
  std::set<std::pair<int, int>> external_exports_;  // (instance, export port)
  std::set<std::string> swappable_;                 // expanded KnitcOptions::swappable
};

}  // namespace

Result<CompiledUnits> KnitPipeline::Compile(const CheckedConfig& checked,
                                            const SourceMap& sources, Diagnostics& diags) {
  CompileStage stage(options_, checked, sources, *cache_, metrics_);
  return stage.Run(diags);
}

// ---- link stage --------------------------------------------------------------

Result<LinkedImage> KnitPipeline::Link(const CompiledUnits& compiled, Diagnostics& diags) {
  auto t0 = std::chrono::steady_clock::now();
  StageMetrics& metrics = BeginStage("link");

  const Configuration& config = *compiled.checked.scheduled.elaborated.config;
  const Elaboration& elaboration = *compiled.checked.scheduled.elaborated.elaboration;

  LinkOptions link_options;
  link_options.natives = IntrinsicNatives();
  for (const PortDecl& port : config.top->imports) {
    const BundleTypeDecl* bundle = elaboration.FindBundleType(port.bundle_type);
    for (const std::string& symbol : bundle->symbols) {
      link_options.natives.push_back(EnvSymbol(port.local_name, symbol));
    }
  }
  for (const std::string& native : options_.extra_natives) {
    link_options.natives.push_back(native);
  }
  if (!ExpandSwappable(options_.swappable, config, link_options.swappable_components, diags)) {
    metrics.seconds = Seconds(t0);
    return Result<LinkedImage>::Failure();
  }

  std::vector<LinkItem> items;
  items.reserve(compiled.objects.size());
  for (const ObjectFile& object : compiled.objects) {
    items.emplace_back(object);  // copy: the artifact stays re-linkable
  }
  metrics.items = static_cast<int>(items.size());

  Result<LinkResult> linked = knit::Link(std::move(items), link_options, diags);
  metrics.seconds = Seconds(t0);
  if (!linked.ok()) {
    return Result<LinkedImage>::Failure();
  }

  LinkedImage image;
  image.compiled = compiled;
  image.image = std::move(linked.value().image);
  image.placements = std::move(linked.value().placements);
  image.natives = std::move(link_options.natives);

  // (port, symbol) -> link name for every top-level export.
  for (size_t e = 0; e < config.top->exports.size(); ++e) {
    const PortDecl& port = config.top->exports[e];
    const BundleTypeDecl* bundle = elaboration.FindBundleType(port.bundle_type);
    for (const std::string& symbol : bundle->symbols) {
      image.export_names[{port.local_name, symbol}] =
          SupplierLinkName(config, config.top_export_suppliers[e], symbol);
    }
  }
  return image;
}

// ---- link-optimize stage -----------------------------------------------------

Result<OptimizedImage> KnitPipeline::LinkOptimize(const LinkedImage& linked, Diagnostics& diags) {
  auto t0 = std::chrono::steady_clock::now();
  StageMetrics& metrics = BeginStage("link-optimize");

  OptimizedImage optimized;
  optimized.linked = linked;
  if (options_.opt_level >= 2) {
    ImagePassOptions image_options;
    image_options.entry_points.push_back(linked.compiled.init_function);
    image_options.entry_points.push_back(linked.compiled.fini_function);
    if (!linked.compiled.rollback_function.empty()) {
      image_options.entry_points.push_back(linked.compiled.rollback_function);
    }
    for (const auto& [port_symbol, link_name] : linked.export_names) {
      image_options.entry_points.push_back(link_name);
    }
    // Profile-guided mode: a loaded profile whose recording context matches this
    // build switches the image pipeline to PGO (hottest-first inlining,
    // affinity layout, cold outlining). A mismatched profile is dropped with a
    // warning — the build falls back to plain -O2, it never optimizes against
    // measurements taken from a different program.
    if (options_.profile != nullptr && options_.opt_level >= 2) {
      ProfileMeta expected =
          MakeProfileMeta(linked.compiled.checked.scheduled.elaborated, options_.opt_level);
      const ProfileMeta& recorded = options_.profile->meta;
      if (recorded.top != expected.top || recorded.config_digest != expected.config_digest) {
        diags.Warning(SourceLoc::Unknown(),
                      "profile was recorded for configuration '" + recorded.top +
                          "' (digest " + HexDigest(recorded.config_digest) +
                          "), not this build of '" + expected.top + "' (digest " +
                          HexDigest(expected.config_digest) +
                          "); ignoring it and running plain -O2");
      } else if (recorded.opt_level != expected.opt_level) {
        diags.Warning(SourceLoc::Unknown(),
                      "profile was recorded at -O" + std::to_string(recorded.opt_level) +
                          ", this build is -O" + std::to_string(expected.opt_level) +
                          "; ignoring it and running plain -O2");
      } else {
        image_options.profile = &options_.profile->profile;
      }
    }
    OptimizeImage(optimized.linked.image, image_options, &optimized.pass_stats);
    metrics.items = static_cast<int>(optimized.linked.image.functions.size());
    MergePassStats(metrics_.pass_stats, optimized.pass_stats);
  }
  metrics.seconds = Seconds(t0);
  return optimized;
}

Result<LinkedImage> KnitPipeline::Build(const std::string& knit_source, const SourceMap& sources,
                                        const std::string& top_unit, Diagnostics& diags) {
  Result<ParsedProgram> parsed = Parse(knit_source, diags);
  if (!parsed.ok()) {
    return Result<LinkedImage>::Failure();
  }
  Result<ElaboratedConfig> elaborated = Elaborate(parsed.value(), top_unit, diags);
  if (!elaborated.ok()) {
    return Result<LinkedImage>::Failure();
  }
  Result<ScheduledConfig> scheduled = Schedule(elaborated.value(), diags);
  if (!scheduled.ok()) {
    return Result<LinkedImage>::Failure();
  }
  Result<CheckedConfig> checked = Check(scheduled.value(), diags);
  if (!checked.ok()) {
    return Result<LinkedImage>::Failure();
  }
  Result<CompiledUnits> compiled = Compile(checked.value(), sources, diags);
  if (!compiled.ok()) {
    return Result<LinkedImage>::Failure();
  }
  Result<LinkedImage> linked = Link(compiled.value(), diags);
  if (!linked.ok()) {
    return Result<LinkedImage>::Failure();
  }
  Result<OptimizedImage> optimized = LinkOptimize(linked.value(), diags);
  if (!optimized.ok()) {
    return Result<LinkedImage>::Failure();
  }
  return std::move(optimized.value().linked);
}

// ---- instance replacement ----------------------------------------------------

Result<ReplacementObject> CompileInstanceReplacement(
    const Elaboration& elaboration, const Configuration& config,
    const std::string& instance_path, const std::string& source,
    const std::string& source_name, const SourceMap& sources,
    const std::string& version_suffix, Diagnostics& diags) {
  int instance_index = config.FindInstance(instance_path);
  if (instance_index < 0) {
    diags.Error(SourceLoc::Unknown(),
                "replacement target '" + instance_path + "' does not exist in this configuration");
    return Result<ReplacementObject>::Failure();
  }
  const Instance& instance = config.instances[instance_index];
  const UnitDecl& unit = *instance.unit;
  if (IsObjectUnit(unit)) {
    diags.Error(unit.loc, "instance " + instance_path + ": unit '" + unit.name +
                              "' is object-backed and cannot be replaced from source");
    return Result<ReplacementObject>::Failure();
  }

  // The compile stage's front end, rename map and objcopy step; only the version
  // suffix and the export visibility (every export stays global: binding slots
  // retarget to it) differ.
  // The replacement file is laid over the build's sources, which resolve its
  // #includes.
  const SourceView replacement_sources(sources, source_name, source);
  TypeTable types;
  SemaInfo info;
  Result<TranslationUnit> tu = FrontUnit(elaboration, replacement_sources, {source_name}, unit,
                                         "replacement for " + instance_path, types, &info, diags);
  if (!tu.ok()) {
    return Result<ReplacementObject>::Failure();
  }
  InstanceNames names;
  if (!BuildInstanceNames(elaboration, config, instance_index, version_suffix,
                          [](int) { return true; }, names, diags)) {
    return Result<ReplacementObject>::Failure();
  }

  CodegenOptions codegen_options;
  if (!unit.flags_name.empty()) {
    const FlagsDecl* flags = elaboration.FindFlags(unit.flags_name);
    if (flags != nullptr) {
      codegen_options.ApplyFlags(flags->flags);
    }
  }
  Result<ObjectFile> object = CompileTranslationUnit(tu.value(), info, types, codegen_options,
                                                     instance_path + version_suffix + ".o", diags);
  if (!object.ok()) {
    return Result<ReplacementObject>::Failure();
  }
  ReplacementObject out;
  out.object = object.take();
  if (!RenameAndLocalize(out.object, instance, names, diags)) {
    return Result<ReplacementObject>::Failure();
  }
  for (const PortDecl& port : unit.exports) {
    const BundleTypeDecl* bundle = elaboration.FindBundleType(port.bundle_type);
    for (const std::string& symbol : bundle->symbols) {
      std::string link = MangleExport(instance_path, port.local_name, symbol);
      out.export_links[link] = link + version_suffix;
    }
  }
  for (const InitFiniDecl& decl : unit.initializers) {
    out.initializers.push_back(names.renames.at(decl.function));
  }
  for (const InitFiniDecl& decl : unit.finalizers) {
    out.finalizers.push_back(names.renames.at(decl.function));
  }
  return out;
}

}  // namespace knit
