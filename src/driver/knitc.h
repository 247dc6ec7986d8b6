// knitc: the end-to-end Knit compiler (paper §6, first paragraph):
//
//   "In a typical use, the Knit compiler reads the linking specification and unit
//    files, generates initialization and finalization code, runs the C compiler or
//    assembler when necessary, and ultimately produces object files. The object
//    files are then processed by a slightly modified version of GNU's objcopy,
//    which handles renaming symbols and duplicating object code for multiply-
//    instantiated units. Finally, these object files are linked together using ld
//    to produce the program."
//
// This header is the one-shot convenience entry point. The build itself is the
// staged pipeline of src/driver/pipeline.h (Parse → Elaborate → Schedule → Check
// → Compile → Link); KnitBuild() runs all six stages and repackages the final
// LinkedImage as a KnitBuildResult. Hosts that want to stop between phases,
// inspect artifacts, share an artifact cache, or compile in parallel should use
// KnitPipeline directly.
#ifndef SRC_DRIVER_KNITC_H_
#define SRC_DRIVER_KNITC_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/vm/machine.h"

namespace knit {

// A fully built Knit program.
struct KnitBuildResult {
  // Owns the definitions Configuration points into; shared with any pipeline
  // artifacts that outlive this result.
  std::shared_ptr<const Elaboration> elaboration;
  Configuration config;
  Schedule schedule;
  ConstraintSolution constraint_solution;

  Image image;
  // ld's placement map: where each instance object landed (text/data), for link-map
  // style reporting.
  std::vector<PlacedObject> placements;
  PipelineMetrics stats;

  // Call these (via the VM) around the workload. With failsafe init, knit__init
  // returns -1 (0xFFFFFFFF) on success or the failing instance index after an
  // initializer reported a nonzero status (rollback has already run in that case).
  std::string init_function = "knit__init";
  std::string fini_function = "knit__fini";

  // Failure-aware init runtime, generated when KnitcOptions::failsafe_init:
  //   rollback_function — call after a *trapped* knit__init to finalize exactly the
  //     already-initialized instances (finalizer-schedule order) and reset progress
  //     so knit__init can be retried; "" when failsafe init is disabled.
  //   status_symbol — data symbol of the per-instance array of completed
  //     initializer counts (instance i is initialized when it reaches
  //     InitializerCounts(config)[i]).
  //   failed_symbol — data symbol holding the instance index currently (or last)
  //     being initialized; -1 when init is not running / succeeded.
  std::string rollback_function;
  std::string status_symbol;
  std::string failed_symbol;

  // Instance index -> Knit component path ("Top/Log#2"), for failure reporting.
  std::vector<std::string> instance_paths;

  // Maps an init/fini link symbol (e.g. from RunResult::backtrace) back to the
  // instance it belongs to; -1 if the symbol is not an init/fini entry point.
  int InstanceOfInitSymbol(const std::string& link_name) const;

  // The failing instance of a knit__init RunResult: -1 on success, the reported
  // index for a status failure, or the instance of the innermost init symbol on the
  // trap backtrace (-1 if none can be identified).
  int FailingInstance(const RunResult& result) const;

  // Reports an init failure as Knit-level component diagnostics (instance path +
  // initializer) instead of raw VM symbols. Returns FailingInstance(result).
  int ReportInitFailure(const RunResult& result, Diagnostics& diags) const;

  // Native names the image was linked against; bind environment functions on the
  // Machine under these names (see EnvSymbol() in src/support/mangle.h).
  std::vector<std::string> natives;

  // Link name of `symbol` exported through the top-level unit's export `port`;
  // "" if unknown.
  std::string ExportedSymbol(const std::string& port, const std::string& symbol) const;

 private:
  friend Result<KnitBuildResult> KnitBuild(const std::string&, const SourceMap&,
                                           const std::string&, const KnitcOptions&,
                                           Diagnostics&);
  friend KnitBuildResult KnitBuildResultFrom(LinkedImage built, PipelineMetrics metrics);
  std::map<std::pair<std::string, std::string>, std::string> export_names_;
  std::map<std::string, int> init_symbol_instances_;  // init/fini link name -> instance
};

// Builds `top_unit` from a Knit source and a map of MiniC sources. Thin wrapper:
// constructs a KnitPipeline over `options` and runs all six stages.
Result<KnitBuildResult> KnitBuild(const std::string& knit_source, const SourceMap& sources,
                                  const std::string& top_unit, const KnitcOptions& options,
                                  Diagnostics& diags);

// Repackages a staged-pipeline LinkedImage (plus the pipeline's metrics) as the
// legacy result type — for hosts mid-migration that drive KnitPipeline themselves
// but still feed KnitBuildResult-shaped consumers.
KnitBuildResult KnitBuildResultFrom(LinkedImage built, PipelineMetrics metrics);

}  // namespace knit

#endif  // SRC_DRIVER_KNITC_H_
