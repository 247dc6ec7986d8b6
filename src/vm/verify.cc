#include "src/vm/verify.h"

#include <algorithm>
#include <cstdint>

namespace knit {
namespace {

struct StackEffect {
  int pops = 0;
  int pushes = 0;
};

StackEffect EffectOf(const Insn& insn) {
  const int returns = CallReturns(insn.b) ? 1 : 0;
  switch (insn.op) {
    case Op::kConstInt:
    case Op::kConstSym:
    case Op::kAddrLocal:
    case Op::kLoadLocal:
      return {0, 1};
    case Op::kDup:
      return {1, 2};
    case Op::kStoreLocal:
    case Op::kPop:
    case Op::kJz:
    case Op::kJnz:
      return {1, 0};
    case Op::kLoadMem:
    case Op::kNeg:
    case Op::kBitNot:
    case Op::kLogNot:
    case Op::kSext8:
      return {1, 1};
    case Op::kSwap:
      return {2, 2};
    case Op::kStoreMem:
      return {2, 0};
    case Op::kCall:
    case Op::kCallBound:
      return {CallArgc(insn.b), returns};
    case Op::kCallIndirect:
      return {1 + CallArgc(insn.b), returns};
    case Op::kRet:
      return {insn.a != 0 ? 1 : 0, 0};
    case Op::kJmp:
    case Op::kNop:
      return {0, 0};
    default:
      return {2, 1};  // binary ALU
  }
}

std::string At(int pc, const Insn& insn) {
  return "pc " + std::to_string(pc) + " (" + DisassembleInsn(insn) + "): ";
}

// Operand checks for one reachable instruction; "" when it is well formed.
std::string CheckOperands(const Image& image, const BytecodeFunction& function, int pc) {
  const Insn& insn = function.code[pc];
  const int64_t frame = function.frame_size;
  switch (insn.op) {
    case Op::kLoadLocal:
    case Op::kStoreLocal:
      if (!IsAccessSize(insn.b) || insn.a < 0 || insn.a + int64_t{insn.b} > frame) {
        return At(pc, insn) + "local access outside the " + std::to_string(frame) +
               "-byte frame";
      }
      return "";
    case Op::kAddrLocal:
      if (insn.a < 0 || insn.a >= frame) {
        return At(pc, insn) + "local address outside the " + std::to_string(frame) +
               "-byte frame";
      }
      return "";
    case Op::kLoadMem:
    case Op::kStoreMem:
      return IsAccessSize(insn.b) ? "" : At(pc, insn) + "unsupported access size";
    case Op::kRet:
      // A value-returning function may still reach a bare kRet: codegen ends
      // every body with one, and a path the walk cannot rule out (a `while (1)`
      // exit, an if-chain sema cannot prove exhaustive) leads to it. The
      // interpreter returns 0 there, so only a value from a void function is an
      // error.
      if (insn.a != 0 && !function.returns_value) {
        return At(pc, insn) + "return with a value from a void function";
      }
      return "";
    case Op::kCall: {
      if (!image.IsCallable(insn.a)) {
        return At(pc, insn) + "call to invalid callee id " + std::to_string(insn.a);
      }
      if (Image::IsNativeId(insn.a)) {
        return "";  // natives take any arguments and return what the site asks for
      }
      const BytecodeFunction& callee = image.functions[insn.a];
      if (callee.code.empty()) {
        return At(pc, insn) + "call to '" + callee.name + "', a stub without a body";
      }
      if (CallArgc(insn.b) < callee.param_count) {
        return At(pc, insn) + "call to '" + callee.name + "' passes " +
               std::to_string(CallArgc(insn.b)) + " arguments, it takes " +
               std::to_string(callee.param_count);
      }
      if (CallReturns(insn.b) != callee.returns_value) {
        return At(pc, insn) + "call to '" + callee.name + "' disagrees with its return convention";
      }
      return "";
    }
    case Op::kCallBound:
      if (insn.a < 0 || static_cast<size_t>(insn.a) >= image.bindings.size()) {
        return At(pc, insn) + "bound call through invalid binding slot " + std::to_string(insn.a);
      }
      return "";
    default:
      return "";
  }
}

// Verifies one function; returns "" and sets *max_depth when it is well formed.
// A stub (no code: dead-function elimination cleared it) is well formed and
// gets max_depth -1: nothing may call it directly, and entering it traps.
std::string VerifyFunction(const Image& image, const BytecodeFunction& function,
                           int* max_depth) {
  if (function.code.empty()) {
    *max_depth = -1;
    return "";
  }
  if (function.frame_size < 0 || function.param_count < 0) {
    return "negative frame size or parameter count";
  }
  for (size_t pc = 0; pc < function.code.size(); ++pc) {
    const Insn& insn = function.code[pc];
    if (insn.op > Op::kNop) {
      return "pc " + std::to_string(pc) + ": invalid opcode " +
             std::to_string(static_cast<int>(insn.op));
    }
    if (insn.op == Op::kConstSym) {
      return At(static_cast<int>(pc), insn) + "unresolved symbol reference (unlinked code)";
    }
  }
  std::string error;
  std::vector<int> depth = ComputeDepths(function, &error);
  if (!error.empty()) {
    return error;
  }
  *max_depth = 0;
  for (size_t pc = 0; pc < function.code.size(); ++pc) {
    if (depth[pc] < 0) {
      continue;  // unreachable: never executes
    }
    *max_depth = std::max(*max_depth, depth[pc]);
    error = CheckOperands(image, function, static_cast<int>(pc));
    if (!error.empty()) {
      return error;
    }
  }
  return "";
}

}  // namespace

bool IsAccessSize(int32_t size) { return size == 1 || size == 4; }

std::vector<int> ComputeDepths(const BytecodeFunction& function, std::string* error) {
  std::vector<int> depth;
  std::vector<int> work;
  ComputeDepthsInto(function, depth, work, error);
  return depth;
}

void ComputeDepthsInto(const BytecodeFunction& function, std::vector<int>& depth,
                       std::vector<int>& work, std::string* error) {
  const std::vector<Insn>& code = function.code;
  const int size = static_cast<int>(code.size());
  depth.assign(code.size(), -1);
  work.clear();
  if (size == 0) {
    return;
  }
  depth[0] = 0;
  work.push_back(0);
  // Records `d` as the depth on entry to `target` (reached from `pc`); false
  // after reporting a violation.
  auto propagate = [&](int pc, int target, int d) {
    if (target < 0 || target >= size) {
      if (error == nullptr) {
        return true;
      }
      *error = At(pc, code[pc]) + (target == pc + 1
                                       ? "execution falls off the end of the function"
                                       : "jump target " + std::to_string(target) +
                                             " outside the function (" +
                                             std::to_string(size) + " insns)");
      return false;
    }
    if (depth[target] == -1) {
      depth[target] = d;
      work.push_back(target);
    } else if (error != nullptr && depth[target] != d) {
      *error = At(pc, code[pc]) + "reaches pc " + std::to_string(target) + " at stack depth " +
               std::to_string(d) + ", another path reaches it at depth " +
               std::to_string(depth[target]);
      return false;
    }
    return true;
  };
  while (!work.empty()) {
    int pc = work.back();
    work.pop_back();
    const Insn& insn = code[pc];
    const int d = depth[pc];
    const StackEffect effect = EffectOf(insn);
    if (error != nullptr && effect.pops > d) {
      *error = At(pc, insn) + "evaluation stack underflow (depth " + std::to_string(d) + ")";
      return;
    }
    const int after = d - effect.pops + effect.pushes;
    bool ok = true;
    switch (insn.op) {
      case Op::kRet:
        continue;  // no successor
      case Op::kJmp:
        ok = propagate(pc, insn.a, d);
        break;
      case Op::kJz:
      case Op::kJnz:
        ok = propagate(pc, insn.a, after) && propagate(pc, pc + 1, after);
        break;
      default:
        ok = propagate(pc, pc + 1, after);
        break;
    }
    if (!ok) {
      return;
    }
  }
}

bool ReachesBareReturn(const BytecodeFunction& function) {
  if (!function.returns_value) {
    return false;
  }
  std::vector<int> depth;
  for (size_t pc = 0; pc < function.code.size(); ++pc) {
    if (function.code[pc].op == Op::kRet && function.code[pc].a == 0) {
      if (depth.empty()) {
        depth = ComputeDepths(function);
      }
      if (depth[pc] >= 0) {
        return true;
      }
    }
  }
  return false;
}

VerifyResult VerifyImage(const Image& image, size_t first) {
  VerifyResult result;
  for (size_t f = first; f < image.functions.size(); ++f) {
    const BytecodeFunction& function = image.functions[f];
    int max_depth = 0;
    std::string error = VerifyFunction(image, function, &max_depth);
    if (!error.empty()) {
      result.error = "bytecode verification failed in '" + function.name + "': " + error;
      result.max_depth.clear();
      return result;
    }
    result.max_depth.push_back(max_depth);
  }
  if (first == 0) {
    for (size_t s = 0; s < image.bindings.size(); ++s) {
      const BindingSlot& slot = image.bindings[s];
      if (!image.IsCallable(slot.target)) {
        result.error = "bytecode verification failed: binding slot " + std::to_string(s) +
                       " ('" + slot.symbol + "') targets invalid callable " +
                       std::to_string(slot.target);
        result.max_depth.clear();
        return result;
      }
    }
  }
  return result;
}

}  // namespace knit
