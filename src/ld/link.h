// The bag-of-objects linker (paper §2.1, Figure 1).
//
// Faithful to classic Unix ld where it matters to the paper:
//  * A link line is an ordered list of objects and archives.
//  * Explicit objects are always included; archive members are pulled only when
//    they define a symbol that is currently referenced and undefined — which is
//    what enables the "override by listing a replacement object first" idiom, and
//    what makes interposition (Figure 1c) inexpressible.
//  * Two included objects defining the same global symbol is a multiple-definition
//    error; unresolved references are undefined-symbol errors.
//  * Local symbols resolve only within their object.
//
// Symbols that remain undefined after archive processing are resolved against the
// supplied native (environment) table — the VM's device/OS interface.
#ifndef SRC_LD_LINK_H_
#define SRC_LD_LINK_H_

#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "src/obj/object.h"
#include "src/support/diagnostics.h"
#include "src/support/result.h"
#include "src/vm/image.h"

namespace knit {

using LinkItem = std::variant<ObjectFile, Archive>;

struct LinkOptions {
  // Native callables available to resolve remaining undefined symbols. Native n
  // has callable id kNativeBase + n (see Image).
  std::vector<std::string> natives;

  // Instance paths (BytecodeFunction::component) whose global text symbols get
  // binding slots (Image::bindings): cross-component calls into them are emitted
  // as kCallBound through the slot instead of a baked-in function id, and every
  // ref to them as the slot's ref (kSlotBase), making the instance hot-swappable
  // at the cost of one indirection per boundary call.
  std::set<std::string> swappable_components;
};

// Link-map entry for reporting/tests.
struct PlacedObject {
  std::string name;
  uint32_t data_offset = 0;  // absolute address of this object's data blob
  int first_function = -1;   // first global function id contributed (-1 if none)
  int function_count = 0;
};

struct LinkResult {
  Image image;
  std::vector<PlacedObject> placements;
};

Result<LinkResult> Link(std::vector<LinkItem> items, const LinkOptions& options,
                        Diagnostics& diags);

// Links one more object into an already linked image by Link's own rules (live
// reconfiguration's patch-link step). The object's functions go after the
// existing text and its data at `data_address`; undefined globals resolve
// against the image's symbols, then its natives. Everything is resolved and
// checked before the image changes, so a failed append leaves it untouched. An
// append never writes the image's existing code or data: function ids and
// native ids (kNativeBase + n) keep their meaning as the image grows.
// `slot_definitions` maps a binding slot's symbol to the object's global
// function that will serve the slot (a swap's versioned export); a ref to it
// links as that slot's ref, like every ref to a current slot target. Returns
// the object's relocated data, for the caller to load at `data_address`.
Result<std::vector<uint8_t>> LinkAppend(
    Image& image, const ObjectFile& object, uint32_t data_address, Diagnostics& diags,
    const std::map<std::string, std::string>& slot_definitions = {});

}  // namespace knit

#endif  // SRC_LD_LINK_H_
