// The optimizer's two fixed pipelines and their statistics. Every transform the
// compiler applies runs in one of them, and every pass run is recorded as a
// PassStats row (runs, insn counts before/after, wall time) for
// `knitc --print-passes`:
//
//  * the object pipeline — OptimizeObject (src/vm/optimize.h), run by codegen
//    on each relocatable object: inline, simplify, lvn, jump-thread and
//    peephole on every function, *functions as the outer loop*, then
//    dce-local. That ordering is load-bearing — the inliner only splices
//    callees defined earlier in the object, so callees must be fully optimized
//    before later callers inline them.
//
//  * the image pipeline — OptimizeImage below, run by the pipeline's
//    LinkOptimize stage at -O2 on the linked Image: indirect-call
//    devirtualization, cross-object inlining through resolved import/export
//    bindings (this is what deletes the boundary calls that source flattening
//    deletes in the paper), global reachability-based dead-function/dead-export
//    elimination from the image entry points, per-function re-simplification,
//    and text re-layout. Dead functions are stubbed (code cleared, id kept)
//    rather than erased, so patched call targets and function refs stored in
//    data never need remapping.
#ifndef SRC_VM_PASSES_H_
#define SRC_VM_PASSES_H_

#include <chrono>
#include <string>
#include <vector>

#include "src/vm/image.h"
#include "src/vm/machine.h"

namespace knit {

// One pass's accumulated bookkeeping. `runs` counts invocations (functions for
// function passes, whole objects/images otherwise); insn counts are summed over
// the code the pass ran on, so `insns_before - insns_after` is the pass's total
// shrinkage across the build.
struct PassStats {
  std::string pass;
  std::string scope;  // "object" or "image"
  long long runs = 0;
  long long insns_before = 0;
  long long insns_after = 0;
  double seconds = 0;
};

// Runs one pass (`run()`) and adds the run to `row`: the instruction count of
// the code it runs on (`insns()`) before and after, and the wall time.
template <typename Insns, typename Run>
void RunPassRow(PassStats& row, const Insns& insns, const Run& run) {
  auto t0 = std::chrono::steady_clock::now();
  row.insns_before += insns();
  run();
  row.insns_after += insns();
  row.seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ++row.runs;
}

// Total instructions across `functions`; ImageInsnCount is the image's total,
// which knitbench reports.
long long InsnCount(const std::vector<BytecodeFunction>& functions);
inline long long ImageInsnCount(const Image& image) { return InsnCount(image.functions); }

// Accumulates `from` into `into`, matching rows by (pass, scope) and keeping
// first-seen order (so object-scope rows stay in pipeline order ahead of the
// image-scope rows appended by LinkOptimize).
void MergePassStats(std::vector<PassStats>& into, const std::vector<PassStats>& from);

// Configuration for the image pipeline. The inline budgets are the constants of
// src/vm/optimize.h; entry points must be named explicitly because a linked
// image has no symbol table scoping.
struct ImagePassOptions {
  // Link names that stay callable from the host (exports, knit__init/fini/
  // rollback). Everything unreachable from these is dead.
  std::vector<std::string> entry_points;
  // Recorded workload measurements (null = no profile). A profile selects the
  // profile-guided pipeline: cross-inline ranks call sites hottest-first by
  // component cycles and boundary-edge weight, and the final layout becomes
  // layout-pgo (component text clustered by edge affinity) then outline-cold
  // (functions the profile never saw executed moved to the text tail). The
  // pointer must outlive OptimizeImage.
  const ComponentProfile* profile = nullptr;
};

// The -O2 image pipeline: devirt, cross-inline, dce-image, simplify, then
// layout — or, with `options.profile`, layout-pgo and outline-cold. `stats`
// (optional) receives one row per pass with scope "image".
void OptimizeImage(Image& image, const ImagePassOptions& options,
                   std::vector<PassStats>* stats = nullptr);

}  // namespace knit

#endif  // SRC_VM_PASSES_H_
