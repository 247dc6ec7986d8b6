// Per-translation-unit bytecode optimizer, deliberately modeled on what the paper
// relies on from gcc 2.95 after flattening ("turns function call nests into compact
// straight-line code, and eliminates redundant reads via common subexpression
// elimination"):
//
//  * Inlining of direct calls whose callee is defined EARLIER in the same object —
//    the same restriction that makes the flattener's defs-before-uses sorting
//    matter, and that confines inlining to a translation unit (so componentized
//    builds cannot inline across units; flattened builds can — and -O2's image
//    passes in src/vm/passes.h recover the same wins after linking).
//  * Local value numbering per basic block: constant folding, algebraic identities,
//    redundant-load elimination with store-to-load forwarding, dead pure code.
//  * Jump threading, unreachable-code removal, scratch store/load peepholes.
//  * Dead local-function elimination (inlined-away statics shrink the text, which
//    is why Table 1's flattened router is *smaller* than the modular one).
//
// OptimizeObject runs them as the fixed object pipeline (src/vm/passes.h); the
// -O2 image pipeline reuses the per-function optimizer and the splice.
#ifndef SRC_VM_OPTIMIZE_H_
#define SRC_VM_OPTIMIZE_H_

#include <memory>
#include <vector>

#include "src/obj/object.h"

namespace knit {

struct CodegenOptions;

// A function called exactly once (and whose address is never taken) is inlined
// whole up to this many instructions — in effect always: the body is removed
// afterwards, so text never grows, which is what lets flattened builds both
// speed up and shrink, as in Table 1. Both inliners apply it.
inline constexpr int kSingleCallInlineLimit = 8192;

// The inline budgets. A callee of at most kInlineLimit instructions is inlined at
// any call site (a unit's `flags` may set the object inliner's limit:
// -finline-limit=N, -fno-inline), and a caller takes no more callees once it
// reaches kCallerGrowthLimit instructions. Both inliners apply them.
inline constexpr int kInlineLimit = 48;
inline constexpr int kCallerGrowthLimit = 32768;

// The object pipeline: inline, simplify, lvn, jump-thread and peephole on every
// function in definition order, then removal of dead local functions. Appends
// one row per pass to `options.pass_stats` when it is set.
void OptimizeObject(ObjectFile& object, const CodegenOptions& options);

// The per-function optimizer: the transforms the object pipeline runs on every
// function, and the image-scope `simplify` pass runs again at -O2. The
// transforms share one flow analysis of the function (block leaders, the stack
// depth on entry to every instruction, the jumps reaching each leader):
// SimplifyControlFlow and ThreadJumpChains compute it, the transform after
// each reads it, and LVN and the peephole drop it. They also share scratch
// storage, which a pass run keeps for all its functions. Code edited by
// anything else must be followed by Invalidate() before the next transform.
class FunctionOptimizer {
 public:
  FunctionOptimizer();
  ~FunctionOptimizer();
  FunctionOptimizer(const FunctionOptimizer&) = delete;
  FunctionOptimizer& operator=(const FunctionOptimizer&) = delete;

  // Forgets the flow analysis.
  void Invalidate();

  // Unreachable-code removal + nop compaction.
  void SimplifyControlFlow(BytecodeFunction& function);
  // Local value numbering over extended basic blocks.
  void LocalValueNumber(BytecodeFunction& function);
  // Jump-to-jump threading, then re-simplification.
  void ThreadJumpChains(BytecodeFunction& function);
  // Scratch store/load peephole plus the dead-store / pop-cancellation fixpoint.
  void PeepholeOptimize(BytecodeFunction& function);
  // The full sequence: SimplifyControlFlow, LocalValueNumber, ThreadJumpChains,
  // PeepholeOptimize.
  void Optimize(BytecodeFunction& function);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// The splice both inliners share (the object pipeline's `inline` and the image
// pipeline's `cross-inline`). SpliceCheck::CanSplice: the call site `call`
// matches the arity and return convention of `functions[callee]`, and no path
// of the callee reaches a bare kRet (its splice would jump past the body
// without the value the site expects). The bare-return walk runs once per callee; an
// inliner calls Changed(f) after splicing into f.
class SpliceCheck {
 public:
  explicit SpliceCheck(const std::vector<BytecodeFunction>& functions);
  bool CanSplice(const Insn& call, int callee);
  void Changed(int function);

 private:
  const std::vector<BytecodeFunction>& functions_;
  std::vector<signed char> reaches_bare_return_;  // per function; -1 not walked yet
};

// Replaces the call at `caller.code[p]` with a copy of `callee`'s body: the
// arguments are stored into a fresh frame region past the caller's locals, the
// copy's locals and jumps are rebased, each kRet becomes a jump past the body,
// and the caller's jumps over the site are retargeted. `callee` must not alias
// `caller`.
void SpliceCallee(BytecodeFunction& caller, size_t p, const BytecodeFunction& callee);

}  // namespace knit

#endif  // SRC_VM_OPTIMIZE_H_
