// The staged Knit compilation pipeline.
//
// The paper's §6 observation — ">95% of build time is spent in the C compiler" —
// makes the per-unit compile stage the place where a component build system earns
// scale. This header splits the monolithic KnitBuild() of src/driver/knitc.h into
// explicit, resumable stages with one artifact type per phase:
//
//   ParsedProgram → ElaboratedConfig → ScheduledConfig → CheckedConfig
//                 → CompiledUnits → LinkedImage
//
// Each stage is a separate KnitPipeline method, so a host (a bench, a test, the
// knitc CLI, an IDE-style tool) can stop after any phase, inspect the artifact,
// cache it, or re-enter the pipeline later from it. Artifacts are plain values:
// copyable, and safe to hold across further pipeline calls (shared front-end
// state — the Elaboration the Configuration points into — is reference-counted).
//
// On top of the stage boundaries the compile stage adds:
//   * parallel unit compilation (KnitcOptions::jobs) on a small thread pool
//     (src/support/executor.h). Every compile task owns its TypeTable and
//     Diagnostics and writes into an indexed slot, and the merge runs in task
//     order on the calling thread — so images are bit-identical for every jobs
//     value, and diagnostics keep a deterministic order;
//   * a content-hash artifact cache (src/driver/build_cache.h) keyed on the unit
//     source text (transitive #include closure), resolved codegen options, and —
//     for flatten groups — member paths, rename maps, and flatten options. Warm
//     rebuilds skip unchanged units entirely.
//
// Every stage records StageMetrics (wall time, items, cache hits/misses, threads)
// into PipelineMetrics; PipelineMetrics::ToJson() feeds `knitc --stats-json`.
#ifndef SRC_DRIVER_PIPELINE_H_
#define SRC_DRIVER_PIPELINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/constraints/check.h"
#include "src/driver/build_cache.h"
#include "src/knitlang/ast.h"
#include "src/knitsem/elaborate.h"
#include "src/knitsem/instantiate.h"
#include "src/ld/link.h"
#include "src/minic/clexer.h"
#include "src/obj/object.h"
#include "src/sched/init_sched.h"
#include "src/support/diagnostics.h"
#include "src/support/result.h"
#include "src/vm/image.h"
#include "src/vm/passes.h"
#include "src/vm/profile_trace.h"

namespace knit {

// ---- options -----------------------------------------------------------------

struct KnitcOptions {
  // Optimization level (knitc -O0/-O1/-O2), the one optimization knob: 0
  // disables all optimization, 1 runs the per-TU passes (the default — per-file gcc,
  // as the paper's modular builds had), 2 additionally runs the whole-image
  // link-time passes (cross-unit inlining, global DCE, devirtualization) in the
  // LinkOptimize stage. Every level produces bit-identical program outputs;
  // levels differ only in speed and text size.
  int opt_level = 1;

  bool check_constraints = true;   // run the §4 constraint checker
  bool flatten = true;             // honor `flatten` markers in compound units
  bool flatten_everything = false; // merge the whole program into one TU (ablation)
  bool sort_definitions = true;    // flattener defs-before-uses sorting (ablation)
  bool callers_first_definitions = false;  // adversarial order (ablation)

  // Failure-aware initialization (see DESIGN.md "Initialization failure
  // semantics"). When on, the generated knit__init records per-instance progress
  // into a status array, treats a nonzero return from an int-returning initializer
  // as failure (rolling back and reporting the failing instance index), and a
  // generated knit__rollback finalizes exactly the already-initialized instances in
  // finalizer-schedule order. When off, knit__init is the paper's monolithic void
  // call sequence.
  bool failsafe_init = true;

  // Compile-stage worker threads (>= 1). Images are bit-identical for every value:
  // parallelism only reorders *when* units compile, never how results merge.
  int jobs = 1;

  // Persist compile-stage artifacts under this directory (created if missing).
  // "" keeps the cache in-memory only — per pipeline, unless `cache` is shared.
  std::string cache_dir;

  // Explicitly shared artifact cache (e.g. one cache across the four Table-1
  // router builds). Null: the pipeline creates its own from `cache_dir`.
  std::shared_ptr<BuildCache> cache;

  // Extra native names to make available at link time (besides the intrinsics and
  // the environment symbols derived from the top unit's imports).
  std::vector<std::string> extra_natives;

  // Pre-compiled components (paper §3.2 fn. 2: "Knit can actually work with C,
  // assembly, and object code"). A unit whose files clause names a single "*.o"
  // entry takes its object from this map instead of compiling sources; such units
  // go through the normal objcopy duplicate/rename/localize path but cannot be
  // source-flattened (they are pulled out of any flatten group). Prebuilt objects
  // are never cached: the caller already owns the artifact.
  std::map<std::string, ObjectFile> prebuilt_objects;

  // Profile-guided optimization (`knitc --profile-use=FILE`): a profile
  // previously recorded with --profile (or snapshotted from RunResult::profile)
  // and loaded via ParseComponentProfile. Null = no PGO; with a profile and
  // opt_level >= 2, LinkOptimize ranks cross-inline candidates hottest-first
  // and runs the layout-pgo / outline-cold passes. A profile whose recording
  // context does not match this build (different top unit, configuration, or
  // -O level) is ignored with a warning — stale profiles can cost speed, never
  // correctness. The profile digest is part of the compile-stage cache keys:
  // same sources + different profile ⇒ recompile and relink.
  std::shared_ptr<const LoadedProfile> profile;

  // Instance paths whose component boundary stays rebindable at run time (the
  // live-reconfiguration subsystem, src/reconfig/). "*" marks every instance.
  // A swappable instance is pulled out of any flatten group (its boundary must
  // survive as call sites), its global text symbols get binding slots at link
  // time (Image::bindings; cross-component callers compile to kCallBound), and
  // the -O2 image passes neither devirtualize into it nor eliminate the slot
  // targets — the deopt that keeps hot-swap sound under whole-image optimization.
  std::vector<std::string> swappable;
};

// ---- metrics -----------------------------------------------------------------

// One record per executed stage (stages re-entered or repeated append new rows).
struct StageMetrics {
  std::string stage;   // "parse", "elaborate", "schedule", "check", "compile",
                       // "objcopy", "flatten", "init-object", "link",
                       // "link-optimize"
  double seconds = 0;  // wall time
  int items = 0;       // units parsed / instances / compile tasks / objects linked
  int cache_hits = 0;
  int cache_misses = 0;
  int threads = 1;     // worker threads that ran this stage
};

struct PipelineMetrics {
  std::vector<StageMetrics> stages;

  // Per-pass optimizer statistics (knitc --print-passes): object-scope rows
  // merged from every fresh compile task in deterministic task order, then the
  // image-scope rows from LinkOptimize. Cache hits contribute nothing — the
  // rows describe work this build actually did.
  std::vector<PassStats> pass_stats;

  int instance_count = 0;
  int object_count = 0;
  int flatten_group_count = 0;

  // Sum of `seconds` over rows named `stage` (0 when absent).
  double StageSeconds(const std::string& stage) const;
  double TotalSeconds() const;
  int CacheHits() const;
  int CacheMisses() const;

  // Last row with this stage name; nullptr when the stage never ran.
  const StageMetrics* Find(const std::string& stage) const;

  // Structured dump for `knitc --stats-json`.
  std::string ToJson() const;
};

// Renders the stage timings as a Chrome trace-event JSON document (`knitc
// --trace=FILE`): one "X" span per executed stage row, laid end to end in
// execution order (stage rows record durations, not absolute start times; the
// pipeline runs stages sequentially, so the reconstruction is faithful), with
// items/cache-hits/misses/threads attached as args.
std::string PipelineMetricsTraceJson(const PipelineMetrics& metrics);

// ---- stage artifacts ---------------------------------------------------------

// After Parse: the syntactic unit/bundletype/property declarations.
struct ParsedProgram {
  std::shared_ptr<const KnitProgram> program;
};

// After Elaborate: name-resolved definitions plus the flat instance graph for one
// top-level unit. `config` points into `*elaboration`, which is kept alive by the
// shared_ptr — artifacts stay valid independent of the pipeline.
struct ElaboratedConfig {
  std::shared_ptr<const Elaboration> elaboration;
  std::shared_ptr<const Configuration> config;
  std::string top_unit;
};

// After Schedule: a legal init/fini order.
struct ScheduledConfig {
  ElaboratedConfig elaborated;
  std::shared_ptr<const Schedule> schedule;
};

// After Check: constraint domains (empty solution when checking is disabled).
struct CheckedConfig {
  ScheduledConfig scheduled;
  std::shared_ptr<const ConstraintSolution> solution;
};

// After Compile: every object in final link order (standalone instances in
// instance order, then flatten groups, then the generated init/fini object), plus
// the init-runtime metadata the host needs to drive knit__init / knit__rollback.
struct CompiledUnits {
  CheckedConfig checked;
  std::vector<ObjectFile> objects;

  std::string init_function;
  std::string fini_function;
  std::string rollback_function;  // "" when failsafe init is disabled
  std::string status_symbol;
  std::string failed_symbol;
  std::vector<std::string> instance_paths;
  std::map<std::string, int> init_symbol_instances;  // init/fini link name -> instance
};

// After Link: the executable image.
struct LinkedImage {
  CompiledUnits compiled;
  Image image;
  std::vector<PlacedObject> placements;
  std::vector<std::string> natives;
  // (port, symbol) -> link name for every top-level export.
  std::map<std::pair<std::string, std::string>, std::string> export_names;
};

// After LinkOptimize: the image with the whole-image -O2 passes applied (the
// identity at -O0/-O1). Wraps a LinkedImage so every downstream consumer —
// Machine construction, KnitBuildResultFrom, the benches — is unchanged; the
// stage is re-enterable and replay-bit-identical like the other six.
struct OptimizedImage {
  LinkedImage linked;
  std::vector<PassStats> pass_stats;  // image-scope rows from this run
};

// A compiled replacement for one instance, ready for the reconfig engine
// (src/reconfig/) to patch-link into a running image. Instance-owned globals
// carry a version suffix so the replacement coexists with the retired code.
struct ReplacementObject {
  ObjectFile object;
  std::vector<std::string> initializers;  // versioned link names, declaration order
  std::vector<std::string> finalizers;    // versioned link names, declaration order
  // Unversioned export link name (== BindingSlot::symbol) -> versioned name.
  std::map<std::string, std::string> export_links;
};

// Compiles `source` as a replacement for the instance at `instance_path`
// through the compile stage's own per-instance code: the same interface
// contract (exports/initializers defined, imports only declared), the same
// rename map and the same rename/localize step. Exports and init/fini entry
// points are renamed to their instance link names plus `version_suffix` and all
// stay global; imports resolve to the running configuration's (unversioned)
// supplier link names; everything else is localized. The object is compiled
// with default codegen options plus the unit's `flags`. `sources` provides
// #include resolution; `source_name` labels diagnostics.
Result<ReplacementObject> CompileInstanceReplacement(
    const Elaboration& elaboration, const Configuration& config,
    const std::string& instance_path, const std::string& source,
    const std::string& source_name, const SourceMap& sources,
    const std::string& version_suffix, Diagnostics& diags);

// ---- the pipeline ------------------------------------------------------------

class KnitPipeline {
 public:
  explicit KnitPipeline(KnitcOptions options = KnitcOptions());

  // Stages. Each reports failures into `diags` and returns Failure(); artifacts
  // from a failed call must not be fed forward.
  Result<ParsedProgram> Parse(const std::string& knit_source, Diagnostics& diags);
  Result<ElaboratedConfig> Elaborate(const ParsedProgram& parsed, const std::string& top_unit,
                                     Diagnostics& diags);
  Result<ScheduledConfig> Schedule(const ElaboratedConfig& elaborated, Diagnostics& diags);
  Result<CheckedConfig> Check(const ScheduledConfig& scheduled, Diagnostics& diags);
  Result<CompiledUnits> Compile(const CheckedConfig& checked, const SourceMap& sources,
                                Diagnostics& diags);
  Result<LinkedImage> Link(const CompiledUnits& compiled, Diagnostics& diags);
  Result<OptimizedImage> LinkOptimize(const LinkedImage& linked, Diagnostics& diags);

  // Convenience: all seven stages (LinkOptimize's result is folded into the
  // returned LinkedImage, so callers see optimized code transparently).
  Result<LinkedImage> Build(const std::string& knit_source, const SourceMap& sources,
                            const std::string& top_unit, Diagnostics& diags);

  const KnitcOptions& options() const { return options_; }
  const PipelineMetrics& metrics() const { return metrics_; }
  BuildCache& cache() { return *cache_; }
  const std::shared_ptr<BuildCache>& shared_cache() const { return cache_; }

 private:
  StageMetrics& BeginStage(const std::string& stage);

  KnitcOptions options_;
  std::shared_ptr<BuildCache> cache_;
  PipelineMetrics metrics_;
};

// The ProfileMeta a profile recorded from a build of `config` at `opt_level`
// carries (see profile_trace.h): the top unit name plus a digest over the
// elaborated instance paths and their unit names. The CLI stamps this into
// --profile documents; LinkOptimize compares it against --profile-use input and
// falls back to plain -O2 (with a warning) on any mismatch.
ProfileMeta MakeProfileMeta(const ElaboratedConfig& config, int opt_level);

// Stable 64-bit digest of everything a Machine observes in an image: functions
// (name, layout, code), natives, data bytes, and symbol tables. Two images with
// equal fingerprints are behaviorally identical; the determinism tests sweep
// --jobs and cache states against this.
uint64_t FingerprintImage(const Image& image);

// The intrinsic natives every image may use (the VM pre-binds implementations).
const std::vector<std::string>& IntrinsicNatives();

}  // namespace knit

#endif  // SRC_DRIVER_PIPELINE_H_
