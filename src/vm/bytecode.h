// Bytecode for the MiniC virtual machine.
//
// Machine model: 32-bit words, byte-addressable data memory (globals + heap +
// stack), a separate evaluation stack (not addressable), and a text space in which
// each instruction occupies 4 bytes — text addresses feed the instruction-cache
// simulator that produces the paper's "instruction fetch stall" column.
//
// Function references are first-class values encoded as 0x80000000 | function_id
// (data addresses stay below 2 GiB), so function pointers can live in ordinary
// globals/structs — the object-style Click emulation depends on this.
#ifndef SRC_VM_BYTECODE_H_
#define SRC_VM_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace knit {

enum class Op : uint8_t {
  // Constants / addresses.
  kConstInt,   // push a
  kConstSym,   // push value of symbol #a (object-file form; the linker rewrites
               //   this to kConstInt with the address / function reference)
  kAddrLocal,  // push fp + a

  // Locals are register-like (cost 1): direct frame slots.
  kLoadLocal,   // push *(fp + a) (b = size: 1 or 4; chars zero-extend... see kSext)
  kStoreLocal,  // pop into *(fp + a) (b = size)

  // Data memory access (cost 2).
  kLoadMem,   // pop addr; push mem[addr] (b = size; a = 1 to sign-extend chars)
  kStoreMem,  // pop value, pop addr; store (b = size)

  // Stack shuffling.
  kDup,   // duplicate top
  kPop,   // discard top
  kSwap,  // swap top two

  // Integer ALU (32-bit two's complement).
  kAdd, kSub, kMul, kDivS, kDivU, kModS, kModU,
  kShl, kShrS, kShrU, kAnd, kOr, kXor,
  kNeg, kBitNot, kLogNot,
  kEq, kNe, kLtS, kLtU, kLeS, kLeU, kGtS, kGtU, kGeS, kGeU,
  kSext8,  // sign-extend low 8 bits (after a char load that was zero-extended)

  // Control flow. a = instruction index within the function.
  kJmp,
  kJz,   // pop; jump if zero
  kJnz,  // pop; jump if nonzero

  // Calls. Arguments are pushed left-to-right.
  kCall,          // a = symbol #(object form) / resolved callee (linked form: a
                  //   callable id, see Image — a VM function below
                  //   functions.size(), a native at kNativeBase + n); b = argc
  kCallIndirect,  // pop function reference, then pop b args
  kCallBound,     // linked form only: call through binding slot #a of the image
                  //   (Image::bindings[a].target), b = argc/returns as kCall. The
                  //   extra indirection is what makes an instance hot-swappable:
                  //   rebinding the slot retargets every caller at once.
  kRet,           // a = 1 if a return value is on the stack

  kNop,  // emitted by the optimizer; removed by ResolveJumps/compaction
};

struct Insn {
  Op op = Op::kNop;
  int32_t a = 0;
  int32_t b = 0;

  bool operator==(const Insn& other) const = default;
};

// One compiled function.
struct BytecodeFunction {
  std::string name;
  int frame_size = 0;    // bytes of locals (params first)
  int param_count = 0;   // fixed parameters (each occupies a 4-byte slot)
  bool variadic = false;
  bool returns_value = false;
  std::vector<Insn> code;

  // Knit component attribution: the instance path ("Top/Log#2") of the component
  // this function's code belongs to, "" when the function is not component code
  // (e.g. hand-assembled test images). Assigned by the compile stage — the objcopy
  // path stamps the owning instance, the flattener stamps each merged definition
  // with its originating member — and carried through the linker into the Image,
  // where the Machine's profiling mode (see ComponentProfile) reads it. Not part
  // of the image fingerprint: attribution is metadata, not behavior.
  std::string component;

  // Assigned at link time: byte offset of this function in the text space.
  int text_offset = -1;

  // Text bytes this function occupies (4 bytes per instruction, padded to the
  // 16-byte function alignment at placement).
  int TextBytes() const { return static_cast<int>(code.size()) * 4; }
};

// kCall/kCallIndirect encode (argc, returns-a-value) in `b`, because the callee may
// live in another object and the stack effect must be knowable locally.
inline int32_t MakeCallB(int argc, bool returns_value) {
  return argc | (returns_value ? 0x10000 : 0);
}
inline int CallArgc(int32_t b) { return b & 0xFFFF; }
inline bool CallReturns(int32_t b) { return (b & 0x10000) != 0; }

// The ops whose `a` is an instruction index within the function.
inline bool IsJump(Op op) { return op == Op::kJmp || op == Op::kJz || op == Op::kJnz; }

// Rounds `value` up to a multiple of `align`: frame slots, data placement, and
// function text placement.
inline int RoundUp(int value, int align) { return (value + align - 1) / align * align; }

// Function-reference encoding shared by the VM, linker, and data relocations.
constexpr uint32_t kFuncRefBit = 0x80000000u;
inline uint32_t EncodeFuncRef(int function_id) {
  return kFuncRefBit | static_cast<uint32_t>(function_id);
}
inline bool IsFuncRef(uint32_t value) { return (value & kFuncRefBit) != 0; }
inline int DecodeFuncRef(uint32_t value) { return static_cast<int>(value & ~kFuncRefBit); }

// Human-readable disassembly, for tests and debugging.
std::string DisassembleInsn(const Insn& insn);
std::string Disassemble(const BytecodeFunction& function);

}  // namespace knit

#endif  // SRC_VM_BYTECODE_H_
