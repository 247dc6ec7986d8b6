// Load-time bytecode verification. The Machine verifies an image once, when it is
// constructed (and each batch of functions the reconfig engine appends), so the
// interpreter loop can drop the safety checks the verifier proves instead of
// paying for them on every instruction. What is proven, per reachable
// instruction of every function:
//
//   * a known opcode, and no kConstSym (unlinked code) anywhere;
//   * a consistent evaluation-stack depth: every path reaching a pc arrives with
//     the same depth, no instruction pops more than is there, control never
//     falls off the end, and kRet carries a value only when the function
//     returns one (a bare kRet in a value-returning function returns 0) —
//     which bounds the stack by a per-function maximum;
//   * jump targets inside the function;
//   * kLoadLocal/kStoreLocal/kAddrLocal operands inside the function's frame;
//   * direct kCall callees in the callable range, never a stub (a function
//     dead-function elimination emptied), with at least the callee's fixed
//     parameters and its return convention;
//   * kCallBound slot indices inside the binding table (and, for a whole image,
//     every slot's target in the callable range).
//
// What stays dynamic (data-dependent): data-memory ranges, division by zero,
// fuel, stack overflow, fault injection, and the target of indirect and bound
// calls (a function reference or slot can change at run time).
#ifndef SRC_VM_VERIFY_H_
#define SRC_VM_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/vm/image.h"

namespace knit {

// Evaluation-stack depth at the start of each instruction (-1 = unreachable),
// by abstract interpretation from pc 0. Without `error` the walk is lenient
// (the optimizer runs it on intermediate code): out-of-range successors are
// ignored and the first depth to reach a pc wins. With `error`, the walk stops
// at the first structural violation — underflow, a join reached at two depths,
// a jump outside the function, falling off the end — and describes it there.
std::vector<int> ComputeDepths(const BytecodeFunction& function, std::string* error = nullptr);

// ComputeDepths into `depth`, with `work` as scratch, for a caller that walks
// many functions and keeps its buffers (the optimizer).
void ComputeDepthsInto(const BytecodeFunction& function, std::vector<int>& depth,
                       std::vector<int>& work, std::string* error = nullptr);

// True for the byte widths a local or memory access may have: 1 and 4.
bool IsAccessSize(int32_t size);

// True when a value-returning function can reach a bare kRet, which returns 0.
// The inliners turn kRet into a jump past the spliced body, where a value must
// be on the stack, so they leave such a callee as a call.
bool ReachesBareReturn(const BytecodeFunction& function);

struct VerifyResult {
  std::string error;           // first violation; empty when everything verified
  std::vector<int> max_depth;  // per verified function, in id order from `first`;
                               // -1 for a stub, which must never be entered
  bool ok() const { return error.empty(); }
};

// Verifies functions [first, image.functions.size()) of a linked image against
// the whole image's callable space. With first == 0 the binding slots' targets
// are checked too.
VerifyResult VerifyImage(const Image& image, size_t first = 0);

}  // namespace knit

#endif  // SRC_VM_VERIFY_H_
