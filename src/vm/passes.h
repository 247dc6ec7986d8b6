// The optimization pass manager. Every transform the compiler applies — per
// relocatable object during codegen, and per linked image after ld — is a named
// Pass driven by a PassManager, which records per-pass statistics (runs, insn
// counts before/after, wall time) for `knitc --print-passes`.
//
// Two scopes:
//
//  * object scope — the per-TU pipeline (inline, simplify, lvn, jump-thread,
//    peephole, dce-local). The manager drives *functions as the outer loop*:
//    every function pass runs on function f before any pass runs on f+1. That
//    ordering is load-bearing — the inliner only splices callees defined earlier
//    in the object, so callees must be fully optimized before later callers
//    inline them. Output is bit-identical to the historical OptimizeObject.
//
//  * image scope — whole-program passes over the linked Image, run by the
//    pipeline's LinkOptimize stage at -O2: indirect-call devirtualization,
//    cross-object inlining through resolved import/export bindings (this is
//    what deletes the boundary calls that source flattening deletes in the
//    paper), global reachability-based dead-function/dead-export elimination
//    from the image entry points, per-function re-simplification, and text
//    re-layout. Dead functions are stubbed (code cleared, id kept) rather than
//    erased, so patched call targets and function refs stored in data never
//    need remapping.
#ifndef SRC_VM_PASSES_H_
#define SRC_VM_PASSES_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/obj/object.h"
#include "src/vm/codegen.h"
#include "src/vm/image.h"
#include "src/vm/machine.h"
#include "src/vm/optimize.h"

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

// Accumulates `from` into `into`, matching rows by (pass, scope) and keeping
// first-seen order (so object-scope rows stay in pipeline order ahead of the
// image-scope rows appended by LinkOptimize).
void MergePassStats(std::vector<PassStats>& into, const std::vector<PassStats>& from);

// Configuration for the image-scope passes. Budgets mirror CodegenOptions; the
// extra fields exist because a linked image has no symbol table scoping — entry
// points must be named explicitly.
struct ImagePassOptions {
  int inline_limit = 48;
  bool inline_single_call = true;
  int single_call_limit = 8192;
  int caller_growth = 32768;
  // Link names that stay callable from the host (exports, knit__init/fini/
  // rollback). Everything unreachable from these is dead.
  std::vector<std::string> entry_points;
  // Instance paths that must stay hot-swappable (LinkOptions::swappable_
  // components of the producing link): devirtualization must not bake a direct
  // call to their code, and DCE must keep every binding-slot target alive.
  std::set<std::string> swappable_components;
  // Recorded workload measurements steering the PGO passes (null = no profile).
  // cross-inline ranks callers and call sites hottest-first by component cycles
  // and boundary-edge weight; layout-pgo clusters component text by edge
  // affinity; outline-cold moves functions the profile never saw executed to
  // the text tail. The pointer must outlive RunOnImage. With profile == nullptr
  // every pass behaves exactly as before this field existed.
  const ComponentProfile* profile = nullptr;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
};

// A pass over one function of a relocatable object. Passes may read the whole
// object (the inliner copies earlier callees) but only mutate the indexed
// function. `optimizer` is shared by the function passes of one RunOnObject;
// a pass that edits code without it must call its Invalidate().
class FunctionPass : public Pass {
 public:
  virtual void Run(ObjectFile& object, int function_index, const CodegenOptions& options,
                   FunctionOptimizer& optimizer) = 0;
};

// A pass over a whole relocatable object, run after the function passes.
class ObjectPass : public Pass {
 public:
  virtual void Run(ObjectFile& object, const CodegenOptions& options) = 0;
};

// A pass over a linked image.
class ImagePass : public Pass {
 public:
  virtual void Run(Image& image, const ImagePassOptions& options) = 0;
};

class PassManager {
 public:
  void AddFunctionPass(std::unique_ptr<FunctionPass> pass);
  void AddObjectPass(std::unique_ptr<ObjectPass> pass);
  void AddImagePass(std::unique_ptr<ImagePass> pass);

  // Runs every function pass on every function (functions outer, definition
  // order), then the object passes in registration order. `stats` (optional)
  // receives per-pass rows with scope "object".
  void RunOnObject(ObjectFile& object, const CodegenOptions& options,
                   std::vector<PassStats>* stats = nullptr);

  // Runs the image passes in registration order; rows carry scope "image".
  void RunOnImage(Image& image, const ImagePassOptions& options,
                  std::vector<PassStats>* stats = nullptr);

 private:
  std::vector<std::unique_ptr<FunctionPass>> function_passes_;
  std::vector<std::unique_ptr<ObjectPass>> object_passes_;
  std::vector<std::unique_ptr<ImagePass>> image_passes_;
};

// The standard per-object pipeline: inline, simplify, lvn, jump-thread,
// peephole, then dce-local. Exactly the historical OptimizeObject sequence.
PassManager MakeObjectPassManager();

// The -O2 image pipeline: devirt, cross-inline, dce-image, simplify, layout.
// With `profile_guided`, the final layout pass is replaced by the PGO pair —
// layout-pgo (hot-path affinity ordering) then outline-cold (never-executed
// functions to the text tail); the earlier passes are the same objects, which
// consult ImagePassOptions::profile when it is set.
PassManager MakeImagePassManager(bool profile_guided = false);

// Total instructions across an image's (live) functions; exposed for stats and
// tests.
long long ImageInsnCount(const Image& image);

}  // namespace knit

#endif  // SRC_VM_PASSES_H_
