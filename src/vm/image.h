// A fully linked program image, ready to execute on the VM (src/vm/machine.h).
// Produced by the bag-of-objects linker (src/ld/link.h).
#ifndef SRC_VM_IMAGE_H_
#define SRC_VM_IMAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/vm/bytecode.h"

namespace knit {

// Where every linked image loads its data.
inline constexpr uint32_t kDataBase = 0x1000;

// Native n has callable id kNativeBase + n: above every function id, so
// appending functions to a linked image never renumbers a native.
inline constexpr int kNativeBase = 1 << 30;

// A function ref to a slotted export names binding slot s as kSlotBase + s, a
// range between every function id and the natives. kCallIndirect resolves it
// through the slot, so a ref that running code stored anywhere follows a swap.
inline constexpr int kSlotBase = 1 << 29;

// Every function starts on a kTextAlign-byte text boundary (the I-cache model
// sees the padding).
inline constexpr int kTextAlign = 16;

// Places `function` at text offset `cursor` and returns the cursor past it. The
// linker, swap appends and the image layout passes all place text through it.
inline int PlaceText(BytecodeFunction& function, int cursor) {
  function.text_offset = cursor;
  return cursor + RoundUp(function.TextBytes(), kTextAlign);
}

// One rebindable call target. Slots exist for the global text symbols of
// components the link marked swappable (LinkOptions::swappable_components):
// cross-component calls into such a symbol compile to kCallBound on the slot
// instead of a baked-in function id, and every ref to it is the slot's ref
// (kSlotBase), so live reconfiguration can retarget every caller and every
// stored ref by rewriting `target` — no code patching, no caller enumeration.
struct BindingSlot {
  std::string symbol;     // global link name the slot stands for
  std::string component;  // instance path that owns the definition
  int target = -1;        // current callee's callable id (see Image)
};

struct Image {
  // Callable space: ids [0, functions.size()) are VM functions; ids
  // [kNativeBase, kNativeBase + natives.size()) are natives. The two ranges
  // never meet, so every id keeps its meaning as the image grows. Function refs
  // may also carry slot refs, [kSlotBase, kSlotBase + bindings.size()).
  std::vector<BytecodeFunction> functions;  // text_offset assigned, code resolved
  std::vector<std::string> natives;         // native callable names, in id order

  std::vector<uint8_t> data;       // initialized data image, loaded at data_base
  uint32_t data_base = kDataBase;

  std::map<std::string, int> function_symbols;     // global name -> function id
  std::map<std::string, uint32_t> data_symbols;    // global name -> absolute address

  int text_bytes = 0;  // total placed text (the paper's "text size" column)

  // Absolute addresses of data words a fresh link patched with a function ref
  // (address-of-function initializers). The image optimizer treats the referenced
  // functions as reachability roots, so indirect calls through stored pointers
  // can never reach an eliminated body. Derived metadata: not part of the image
  // fingerprint.
  std::vector<uint32_t> func_ref_data;

  // Binding-slot table for swappable components; kCallBound indexes into it,
  // and a slot ref (kSlotBase + index) names it.
  // Order is deterministic (sorted by symbol name at link time) so slot indices
  // are stable across identical links and safe to fingerprint.
  std::vector<BindingSlot> bindings;

  int FindFunction(const std::string& name) const {
    auto it = function_symbols.find(name);
    return it == function_symbols.end() ? -1 : it->second;
  }

  static bool IsNativeId(int callable) { return callable >= kNativeBase; }
  static int NativeIndex(int callable) { return callable - kNativeBase; }
  static int NativeId(int index) { return kNativeBase + index; }

  static bool IsSlotRef(int callable) { return callable >= kSlotBase && callable < kNativeBase; }
  static int SlotIndex(int callable) { return callable - kSlotBase; }
  static int SlotRef(int index) { return kSlotBase + index; }

  // The callable a function ref's decoded value names now: a slot ref's current
  // target, -1 for a slot ref past the table, any other value unchanged.
  int RefTarget(int callable) const {
    if (!IsSlotRef(callable)) {
      return callable;
    }
    return SlotIndex(callable) < static_cast<int>(bindings.size())
               ? bindings[SlotIndex(callable)].target
               : -1;
  }

  // Whether `callable` names a function or a native of this image.
  bool IsCallable(int callable) const {
    return IsNativeId(callable) ? NativeIndex(callable) < static_cast<int>(natives.size())
                                : callable >= 0 && callable < static_cast<int>(functions.size());
  }
};

}  // namespace knit

#endif  // SRC_VM_IMAGE_H_
