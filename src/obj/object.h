// Simulated object files, archives, and objcopy-style symbol surgery.
//
// This reproduces the toolchain layer Knit manipulates: compiled objects with
// global/local symbols, archives with pull-on-demand member semantics, and the
// renaming/localizing/duplication operations Knit performs with its modified
// objcopy ("renaming symbols and duplicating object code for multiply-instantiated
// units"). The bag-of-objects linker over this format lives in src/ld.
#ifndef SRC_OBJ_OBJECT_H_
#define SRC_OBJ_OBJECT_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/diagnostics.h"
#include "src/support/result.h"
#include "src/vm/bytecode.h"

namespace knit {

class ObjectFile;
Result<void> ObjcopyRename(ObjectFile& object, const std::map<std::string, std::string>& renames,
                           Diagnostics& diags);

// One entry of an object's symbol table. An object files its symbols by name,
// so a symbol's name is fixed once it is in a table: only ObjectFile and
// ObjcopyRename change it, and a symbol cannot be assigned over. Every other
// field may be edited in place.
class ObjSymbol {
 public:
  enum class Section {
    kUndefined,  // referenced, defined elsewhere
    kText,       // a function: `index` is into ObjectFile::functions
    kData,       // a global: `index` is a byte offset into ObjectFile::data
  };

  ObjSymbol(std::string name, Section section, bool global, int index = 0, int size = 0,
            int align = 4)
      : section(section),
        global(global),
        index(index),
        size(size),
        align(align),
        name_(std::move(name)) {}
  ObjSymbol(const ObjSymbol&) = default;
  ObjSymbol(ObjSymbol&&) = default;
  ObjSymbol& operator=(const ObjSymbol&) = delete;
  ObjSymbol& operator=(ObjSymbol&&) = delete;

  const std::string& name() const { return name_; }

  Section section;
  bool global;  // false: local (invisible to other objects)
  int index;    // function index (kText) or data offset (kData)
  int size;     // data bytes (kData)
  int align;    // data alignment (kData)

 private:
  friend class ObjectFile;
  friend Result<void> ObjcopyRename(ObjectFile& object,
                                    const std::map<std::string, std::string>& renames,
                                    Diagnostics& diags);
  std::string name_;
};

// An absolute 32-bit relocation inside the data image: the word at `data_offset`
// must be patched with the address/function-reference of `symbol`.
struct DataReloc {
  int data_offset = 0;
  int symbol = 0;  // index into ObjectFile::symbols()
};

class ObjectFile {
 public:
  ObjectFile() = default;
  ObjectFile(const ObjectFile&) = default;
  ObjectFile(ObjectFile&&) = default;
  ObjectFile& operator=(const ObjectFile& other) { return *this = ObjectFile(other); }
  ObjectFile& operator=(ObjectFile&&) = default;

  std::string name;                         // for diagnostics and link maps
  std::vector<BytecodeFunction> functions;  // code refers to symbols by index
                                            // (kCall.a / kConstSym.a)
  std::vector<uint8_t> data;                // initialized + zero-init globals
  std::vector<DataReloc> data_relocs;

  // The symbol table. No two symbols share a name.
  std::span<const ObjSymbol> symbols() const { return symbols_; }
  std::span<ObjSymbol> symbols() { return symbols_; }

  // The index of the symbol named `name`, or -1. Constant time.
  int FindSymbol(std::string_view name) const;

  // Appends `symbol` and returns its index, or returns -1 and changes nothing if
  // the table already has a symbol of that name.
  int Add(ObjSymbol symbol);

  // The index of the symbol named `name`, added as an undefined global if absent.
  int AddUndefined(const std::string& name);

 private:
  friend Result<void> ObjcopyRename(ObjectFile& object,
                                    const std::map<std::string, std::string>& renames,
                                    Diagnostics& diags);

  // The bucket that holds `name`'s symbol, or the empty bucket where it would go.
  size_t Bucket(std::string_view name) const;
  // Files every symbol again in `bucket_count` buckets.
  void Reindex(size_t bucket_count);

  std::vector<ObjSymbol> symbols_;
  // The name index: open addressing with linear probing over symbol indices, -1
  // for an empty bucket. Empty, or a power of two at least twice the symbol count.
  std::vector<int> buckets_;
};

// An archive: an ordered bag of objects with standard member-pull semantics.
struct Archive {
  std::string name;
  std::vector<ObjectFile> members;
};

// ---- objcopy operations ------------------------------------------------------

// Renames symbols per `renames` (old -> new). Both defined and undefined symbols
// are renamed; code references follow automatically (they go through the symbol
// table). Renaming onto a name that already exists in the object is an error.
// Undefined globals renamed onto one name (two imports bound to one export)
// become one symbol; any other two symbols renamed onto one name are an error.
// On error the object is unchanged.
Result<void> ObjcopyRename(ObjectFile& object, const std::map<std::string, std::string>& renames,
                           Diagnostics& diags);

// Makes a defined global symbol local (Knit hides defined-but-not-exported names).
// Unknown or undefined symbols are an error.
Result<void> ObjcopyLocalize(ObjectFile& object, const std::string& symbol, Diagnostics& diags);

// Clones an object under a new name (for multiply-instantiated units; the caller
// then renames the clone's symbols per instance).
ObjectFile ObjcopyDuplicate(const ObjectFile& object, const std::string& new_name);

}  // namespace knit

#endif  // SRC_OBJ_OBJECT_H_
