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
  // Native callables available to resolve remaining undefined symbols. Order
  // defines native ids.
  std::vector<std::string> natives;

  // Instance paths (BytecodeFunction::component) whose global text symbols get
  // binding slots (Image::bindings): cross-component calls into them are emitted
  // as kCallBound through the slot instead of a baked-in function id, making the
  // instance hot-swappable at the cost of one indirection per boundary call.
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

// A code site of a linked image: instruction `pc` of function `function`.
struct CodeSite {
  int function = 0;
  int pc = 0;
  bool operator==(const CodeSite&) const = default;
};

// The code sites whose operand a growing image may have to rewrite, in
// (function, pc) order: every kCall that names a native (appending functions
// shifts native ids) and every kConstInt whose value carries the funcref bit
// (a native ref shifts; a hot swap repoints refs to retired functions). A
// negative integer constant carries the bit too; it is listed, and the
// rewrites leave it as it is. Rewriting a listed site keeps it in its list.
struct CodeSiteIndex {
  std::vector<CodeSite> native_calls;
  std::vector<CodeSite> func_refs;
  bool operator==(const CodeSiteIndex&) const = default;
};

// Appends the sites of functions [first, functions.size()) of `image` to
// `index`.
void ScanCodeSites(const Image& image, size_t first, CodeSiteIndex& index);

// Links one more object into an already linked image by Link's own rules (live
// reconfiguration's patch-link step). The object's functions go after the
// existing text and its data at `data_address`; undefined globals resolve
// against the image's symbols, then its natives. Everything is resolved and
// checked before the image changes, so a failed append leaves it (and `sites`)
// untouched. Appending shifts the native ids; the old code is shifted to match
// at the sites `sites` lists, which must be exactly the image's (see
// ScanCodeSites), and the linked data at Image::func_ref_data (ShiftNativeRef).
// The appended functions' sites are then added to `sites`. Returns the
// object's relocated data, for the caller to load at `data_address`.
Result<std::vector<uint8_t>> LinkAppend(Image& image, const ObjectFile& object,
                                        uint32_t data_address, CodeSiteIndex& sites,
                                        Diagnostics& diags);

// A stored word after `appended` functions were added to an image that had
// `old_functions` functions and `natives` natives: a funcref naming a native
// moves up by `appended`; any other value (a negative integer carries the
// funcref bit too) stays.
uint32_t ShiftNativeRef(uint32_t value, int old_functions, int natives, int appended);

}  // namespace knit

#endif  // SRC_LD_LINK_H_
