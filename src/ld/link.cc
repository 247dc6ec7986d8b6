#include "src/ld/link.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace knit {
namespace {

class Linker {
 public:
  Linker(std::vector<LinkItem> items, const LinkOptions& options, Diagnostics& diags)
      : items_(std::move(items)), options_(options), diags_(diags) {}

  Result<LinkResult> Run() {
    if (!SelectObjects()) {
      return Result<LinkResult>::Failure();
    }
    if (!CheckDefinitions()) {
      return Result<LinkResult>::Failure();
    }
    Layout();
    if (!Resolve()) {
      return Result<LinkResult>::Failure();
    }
    CreateBindings();
    if (!Patch()) {
      return Result<LinkResult>::Failure();
    }
    return std::move(result_);
  }

 private:
  // Phase 1: decide which objects participate (archive pull semantics).
  bool SelectObjects() {
    // Explicit objects first, in order; track wanted (referenced, undefined
    // globally) symbols.
    std::set<std::string> defined;
    std::set<std::string> wanted;

    auto note_object = [&](const ObjectFile& object) {
      for (const ObjSymbol& symbol : object.symbols) {
        if (!symbol.global) {
          continue;
        }
        if (symbol.section == ObjSymbol::Section::kUndefined) {
          if (defined.count(symbol.name) == 0) {
            wanted.insert(symbol.name);
          }
        } else {
          defined.insert(symbol.name);
          wanted.erase(symbol.name);
        }
      }
    };

    for (LinkItem& item : items_) {
      if (std::holds_alternative<ObjectFile>(item)) {
        ObjectFile& object = std::get<ObjectFile>(item);
        note_object(object);
        included_.push_back(&object);
        continue;
      }
      // Archive: pull members while they satisfy wanted symbols.
      Archive& archive = std::get<Archive>(item);
      std::vector<bool> pulled(archive.members.size(), false);
      bool progress = true;
      while (progress) {
        progress = false;
        for (size_t m = 0; m < archive.members.size(); ++m) {
          if (pulled[m]) {
            continue;
          }
          const ObjectFile& member = archive.members[m];
          bool satisfies = false;
          for (const ObjSymbol& symbol : member.symbols) {
            if (symbol.global && symbol.section != ObjSymbol::Section::kUndefined &&
                wanted.count(symbol.name) > 0) {
              satisfies = true;
              break;
            }
          }
          if (!satisfies) {
            continue;
          }
          pulled[m] = true;
          note_object(member);
          included_.push_back(&archive.members[m]);
          progress = true;
        }
      }
    }
    return true;
  }

  // Phase 2: global definition table; duplicate definitions are errors.
  bool CheckDefinitions() {
    bool ok = true;
    for (const ObjectFile* object : included_) {
      for (size_t s = 0; s < object->symbols.size(); ++s) {
        const ObjSymbol& symbol = object->symbols[s];
        if (!symbol.global || symbol.section == ObjSymbol::Section::kUndefined) {
          continue;
        }
        auto [it, inserted] =
            global_defs_.emplace(symbol.name, std::make_pair(object, static_cast<int>(s)));
        if (!inserted) {
          diags_.Error(SourceLoc{object->name, 0, 0},
                       "multiple definition of '" + symbol.name + "' (first defined in " +
                           it->second.first->name + ")");
          ok = false;
        }
      }
    }
    return ok;
  }

  // Phase 3: place data blobs and functions.
  void Layout() {
    Image& image = result_.image;
    image.data_base = options_.data_base;
    image.natives = options_.natives;

    int text_cursor = 0;
    for (const ObjectFile* object : included_) {
      PlacedObject placement;
      placement.name = object->name;

      // Data blob.
      int data_offset = RoundUp(static_cast<int>(image.data.size()), 8);
      image.data.resize(static_cast<size_t>(data_offset), 0);
      image.data.insert(image.data.end(), object->data.begin(), object->data.end());
      data_offsets_[object] = data_offset;
      placement.data_offset = options_.data_base + static_cast<uint32_t>(data_offset);

      // Functions, in object order.
      placement.first_function = static_cast<int>(image.functions.size());
      placement.function_count = static_cast<int>(object->functions.size());
      for (const BytecodeFunction& function : object->functions) {
        BytecodeFunction placed = function;
        placed.text_offset = text_cursor;
        text_cursor += RoundUp(placed.TextBytes(), options_.text_align);
        function_base_[object] = placement.first_function;
        image.functions.push_back(std::move(placed));
      }
      function_base_[object] = placement.first_function;
      result_.placements.push_back(placement);
    }
    image.text_bytes = text_cursor;
  }

  // The callable id / address a symbol index in `object` resolves to.
  struct Resolved {
    enum class Kind { kFunction, kNative, kData };
    Kind kind = Kind::kData;
    int callable = -1;     // kFunction/kNative
    uint32_t address = 0;  // kData
  };

  bool ResolveSymbol(const ObjectFile* object, int symbol_index, Resolved& out) {
    const ObjSymbol& symbol = object->symbols[symbol_index];
    if (symbol.section == ObjSymbol::Section::kUndefined && !symbol.global) {
      // A dead local symbol (e.g. a static function removed by DCE): nothing can
      // reference it; leave it unresolved.
      out.kind = Resolved::Kind::kFunction;
      out.callable = -1;
      return true;
    }
    const ObjectFile* def_object = nullptr;
    const ObjSymbol* def = nullptr;
    if (symbol.section != ObjSymbol::Section::kUndefined) {
      def_object = object;  // local or defined here
      def = &symbol;
    } else {
      auto it = global_defs_.find(symbol.name);
      if (it != global_defs_.end()) {
        def_object = it->second.first;
        def = &def_object->symbols[it->second.second];
      }
    }
    if (def == nullptr) {
      // Try natives.
      for (size_t n = 0; n < options_.natives.size(); ++n) {
        if (options_.natives[n] == symbol.name) {
          out.kind = Resolved::Kind::kNative;
          out.callable = static_cast<int>(result_.image.functions.size()) + static_cast<int>(n);
          return true;
        }
      }
      diags_.Error(SourceLoc{object->name, 0, 0},
                   "undefined reference to '" + symbol.name + "'");
      return false;
    }
    if (def->section == ObjSymbol::Section::kText) {
      out.kind = Resolved::Kind::kFunction;
      out.callable = function_base_[def_object] + def->index;
      return true;
    }
    out.kind = Resolved::Kind::kData;
    out.address = options_.data_base + static_cast<uint32_t>(data_offsets_[def_object]) +
                  static_cast<uint32_t>(def->index);
    return true;
  }

  bool Resolve() {
    bool ok = true;
    for (const ObjectFile* object : included_) {
      std::vector<Resolved>& table = resolution_[object];
      table.resize(object->symbols.size());
      for (size_t s = 0; s < object->symbols.size(); ++s) {
        if (!ResolveSymbol(object, static_cast<int>(s), table[s])) {
          ok = false;
        }
      }
    }
    if (!ok) {
      return false;
    }
    // Export the global symbol tables.
    Image& image = result_.image;
    for (const auto& [name, def] : global_defs_) {
      const ObjectFile* object = def.first;
      const ObjSymbol& symbol = object->symbols[def.second];
      if (symbol.section == ObjSymbol::Section::kText) {
        image.function_symbols[name] = function_base_[object] + symbol.index;
      } else {
        image.data_symbols[name] = options_.data_base +
                                   static_cast<uint32_t>(data_offsets_[object]) +
                                   static_cast<uint32_t>(symbol.index);
      }
    }
    return true;
  }

  // Phase 3.5: binding slots for swappable components. Every global text symbol
  // defined by a swappable instance gets a slot; iteration over the sorted
  // global_defs_ map makes slot indices deterministic for identical links.
  void CreateBindings() {
    if (options_.swappable_components.empty()) {
      return;
    }
    Image& image = result_.image;
    for (const auto& [name, def] : global_defs_) {
      const ObjectFile* object = def.first;
      const ObjSymbol& symbol = object->symbols[def.second];
      if (symbol.section != ObjSymbol::Section::kText) {
        continue;
      }
      int target = function_base_[object] + symbol.index;
      const std::string& component = image.functions[target].component;
      if (options_.swappable_components.count(component) == 0) {
        continue;
      }
      slot_of_callable_[target] = static_cast<int>(image.bindings.size());
      image.bindings.push_back(BindingSlot{name, component, target});
    }
  }

  uint32_t ValueOf(const Resolved& resolved) const {
    switch (resolved.kind) {
      case Resolved::Kind::kFunction:
      case Resolved::Kind::kNative:
        return EncodeFuncRef(resolved.callable);
      case Resolved::Kind::kData:
        return resolved.address;
    }
    return 0;
  }

  // Phase 4: rewrite code and data relocations. A call to a data symbol (a
  // prototype in one unit, a variable in another) is an error.
  bool Patch() {
    bool ok = true;
    Image& image = result_.image;
    for (const ObjectFile* object : included_) {
      const std::vector<Resolved>& table = resolution_[object];
      int base = function_base_[object];
      for (int f = 0; f < static_cast<int>(object->functions.size()); ++f) {
        BytecodeFunction& function = image.functions[base + f];
        for (Insn& insn : function.code) {
          if (insn.op == Op::kConstSym) {
            insn.op = Op::kConstInt;
            insn.a = static_cast<int32_t>(ValueOf(table[insn.a]));
          } else if (insn.op == Op::kCall) {
            const Resolved& resolved = table[insn.a];
            if (resolved.kind == Resolved::Kind::kData) {
              diags_.Error(SourceLoc{object->name, 0, 0},
                           "'" + function.name + "' calls '" + object->symbols[insn.a].name +
                               "', which is data, not a function");
              ok = false;
            } else {
              auto slot = slot_of_callable_.find(resolved.callable);
              if (slot != slot_of_callable_.end() &&
                  function.component != image.bindings[slot->second].component) {
                // Cross-component edge into a swappable instance: call through
                // the binding slot so a swap retargets this site. Intra-instance
                // calls stay direct — they are replaced wholesale with the code.
                insn.op = Op::kCallBound;
                insn.a = slot->second;
              } else {
                insn.a = resolved.callable;
              }
            }
          }
        }
      }
      // Data relocations.
      int data_offset = data_offsets_[object];
      for (const DataReloc& reloc : object->data_relocs) {
        size_t at = static_cast<size_t>(data_offset) + reloc.data_offset;
        uint32_t addend = 0;
        for (int i = 0; i < 4; ++i) {
          addend |= static_cast<uint32_t>(image.data[at + i]) << (8 * i);
        }
        const Resolved& resolved = table[reloc.symbol];
        uint32_t value = ValueOf(resolved) + addend;
        for (int i = 0; i < 4; ++i) {
          image.data[at + i] = static_cast<uint8_t>((value >> (8 * i)) & 0xFF);
        }
        if (resolved.kind != Resolved::Kind::kData) {
          // A function ref now lives in data; record where, so the image
          // optimizer keeps its target alive (see Image::func_ref_data).
          image.func_ref_data.push_back(options_.data_base + static_cast<uint32_t>(at));
        }
      }
    }
    return ok;
  }

  std::vector<LinkItem> items_;
  const LinkOptions& options_;
  Diagnostics& diags_;
  LinkResult result_;

  std::vector<ObjectFile*> included_;
  std::map<std::string, std::pair<const ObjectFile*, int>> global_defs_;
  std::map<const ObjectFile*, int> data_offsets_;
  std::map<const ObjectFile*, int> function_base_;
  std::map<const ObjectFile*, std::vector<Resolved>> resolution_;
  std::map<int, int> slot_of_callable_;  // function id -> binding slot index
};

}  // namespace

Result<LinkResult> Link(std::vector<LinkItem> items, const LinkOptions& options,
                        Diagnostics& diags) {
  Linker linker(std::move(items), options, diags);
  return linker.Run();
}

}  // namespace knit
