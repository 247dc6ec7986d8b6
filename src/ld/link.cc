#include "src/ld/link.h"

#include <set>
#include <utility>

namespace knit {
namespace {

uint32_t LoadWord(const uint8_t* bytes) {
  uint32_t word = 0;
  for (int i = 0; i < 4; ++i) {
    word |= static_cast<uint32_t>(bytes[i]) << (8 * i);
  }
  return word;
}

void StoreWord(uint8_t* bytes, uint32_t word) {
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<uint8_t>((word >> (8 * i)) & 0xFF);
  }
}

// The callable id / address a symbol index in an object resolves to.
struct Resolved {
  enum class Kind { kFunction, kNative, kData };
  Kind kind = Kind::kData;
  int callable = -1;     // kFunction/kNative
  uint32_t address = 0;  // kData
};

class Linker {
 public:
  // A fresh link of `items` into a new image.
  Linker(std::vector<LinkItem> items, const LinkOptions& options, Diagnostics& diags)
      : items_(std::move(items)), options_(&options), diags_(diags) {}

  // An append to the already linked `image`.
  Linker(Image& image, Diagnostics& diags) : diags_(diags), image_(&image) {}

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
    RegisterSymbols();
    CreateBindings();
    bool ok = true;
    Image& image = *image_;
    for (const ObjectFile* object : included_) {
      ok = PatchCode(object, image.functions.data() + function_base_[object]) && ok;
      RelocateData(object, image.data.data() + (data_address_[object] - kDataBase));
    }
    if (!ok) {
      return Result<LinkResult>::Failure();
    }
    return std::move(result_);
  }

  Result<std::vector<uint8_t>> Append(const ObjectFile& object, uint32_t data_address,
                                      const std::map<std::string, std::string>& slot_definitions) {
    Image& image = *image_;
    included_.push_back(&object);
    function_base_[&object] = static_cast<int>(image.functions.size());
    data_address_[&object] = data_address;
    for (size_t slot = 0; slot < image.bindings.size(); ++slot) {
      slot_of_callable_[image.bindings[slot].target] = static_cast<int>(slot);
      auto successor = slot_definitions.find(image.bindings[slot].symbol);
      int symbol = successor == slot_definitions.end() ? -1 : object.FindSymbol(successor->second);
      if (symbol >= 0 && object.symbols()[symbol].section == ObjSymbol::Section::kText) {
        slot_of_callable_[function_base_[&object] + object.symbols()[symbol].index] =
            static_cast<int>(slot);
      }
    }
    std::vector<BytecodeFunction> placed = object.functions;
    if (!CheckDefinitions() || !Resolve() || !PatchCode(&object, placed.data())) {
      return Result<std::vector<uint8_t>>::Failure();
    }
    // Everything resolved: nothing below can fail.
    int text_cursor = image.text_bytes;
    for (BytecodeFunction& function : placed) {
      text_cursor = PlaceText(function, text_cursor);
      image.functions.push_back(std::move(function));
    }
    image.text_bytes = text_cursor;
    std::vector<uint8_t> data = object.data;
    RelocateData(&object, data.data());
    RegisterSymbols();
    return data;
  }

 private:
  // Phase 1: decide which objects participate (archive pull semantics).
  bool SelectObjects() {
    // Explicit objects first, in order; track wanted (referenced, undefined
    // globally) symbols.
    std::set<std::string> defined;
    std::set<std::string> wanted;

    auto note_object = [&](const ObjectFile& object) {
      for (const ObjSymbol& symbol : object.symbols()) {
        if (!symbol.global) {
          continue;
        }
        if (symbol.section == ObjSymbol::Section::kUndefined) {
          if (defined.count(symbol.name()) == 0) {
            wanted.insert(symbol.name());
          }
        } else {
          defined.insert(symbol.name());
          wanted.erase(symbol.name());
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
          for (const ObjSymbol& symbol : member.symbols()) {
            if (symbol.global && symbol.section != ObjSymbol::Section::kUndefined &&
                wanted.count(symbol.name()) > 0) {
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
      for (size_t s = 0; s < object->symbols().size(); ++s) {
        const ObjSymbol& symbol = object->symbols()[s];
        if (!symbol.global || symbol.section == ObjSymbol::Section::kUndefined) {
          continue;
        }
        auto [it, inserted] =
            global_defs_.emplace(symbol.name(), std::make_pair(object, static_cast<int>(s)));
        if (!inserted) {
          diags_.Error(SourceLoc{object->name, 0, 0},
                       "multiple definition of '" + symbol.name() + "' (first defined in " +
                           it->second.first->name + ")");
          ok = false;
        }
      }
    }
    return ok;
  }

  // Phase 3: place data blobs and functions.
  void Layout() {
    Image& image = *image_;
    image.natives = options_->natives;

    int text_cursor = 0;
    for (const ObjectFile* object : included_) {
      PlacedObject placement;
      placement.name = object->name;

      // Data blob.
      int data_offset = RoundUp(static_cast<int>(image.data.size()), 8);
      image.data.resize(static_cast<size_t>(data_offset), 0);
      image.data.insert(image.data.end(), object->data.begin(), object->data.end());
      placement.data_offset = kDataBase + static_cast<uint32_t>(data_offset);
      data_address_[object] = placement.data_offset;

      // Functions, in object order.
      placement.first_function = static_cast<int>(image.functions.size());
      placement.function_count = static_cast<int>(object->functions.size());
      function_base_[object] = placement.first_function;
      for (const BytecodeFunction& function : object->functions) {
        image.functions.push_back(function);
        text_cursor = PlaceText(image.functions.back(), text_cursor);
      }
      result_.placements.push_back(placement);
    }
    image.text_bytes = text_cursor;
  }

  bool ResolveSymbol(const ObjectFile* object, int symbol_index, Resolved& out) {
    const ObjSymbol& symbol = object->symbols()[symbol_index];
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
      auto it = global_defs_.find(symbol.name());
      if (it != global_defs_.end()) {
        def_object = it->second.first;
        def = &def_object->symbols()[it->second.second];
      }
    }
    if (def != nullptr) {
      if (def->section == ObjSymbol::Section::kText) {
        out.kind = Resolved::Kind::kFunction;
        out.callable = function_base_[def_object] + def->index;
      } else {
        out.kind = Resolved::Kind::kData;
        out.address = data_address_[def_object] + static_cast<uint32_t>(def->index);
      }
      return true;
    }
    // Not defined by the objects being linked: the image already linked (empty
    // for a fresh link), then natives.
    const Image& image = *image_;
    auto function = image.function_symbols.find(symbol.name());
    if (function != image.function_symbols.end()) {
      out.kind = Resolved::Kind::kFunction;
      out.callable = function->second;
      return true;
    }
    auto data = image.data_symbols.find(symbol.name());
    if (data != image.data_symbols.end()) {
      out.kind = Resolved::Kind::kData;
      out.address = data->second;
      return true;
    }
    for (size_t n = 0; n < image.natives.size(); ++n) {
      if (image.natives[n] == symbol.name()) {
        out.kind = Resolved::Kind::kNative;
        out.callable = Image::NativeId(static_cast<int>(n));
        return true;
      }
    }
    diags_.Error(SourceLoc{object->name, 0, 0},
                 "undefined reference to '" + symbol.name() + "'");
    return false;
  }

  bool Resolve() {
    bool ok = true;
    for (const ObjectFile* object : included_) {
      std::vector<Resolved>& table = resolution_[object];
      table.resize(object->symbols().size());
      for (size_t s = 0; s < object->symbols().size(); ++s) {
        if (!ResolveSymbol(object, static_cast<int>(s), table[s])) {
          ok = false;
        }
      }
    }
    return ok;
  }

  // Exports the linked objects' global definitions into the image's symbol tables.
  void RegisterSymbols() {
    Image& image = *image_;
    for (const auto& [name, def] : global_defs_) {
      const ObjectFile* object = def.first;
      const ObjSymbol& symbol = object->symbols()[def.second];
      if (symbol.section == ObjSymbol::Section::kText) {
        image.function_symbols[name] = function_base_[object] + symbol.index;
      } else {
        image.data_symbols[name] = data_address_[object] + static_cast<uint32_t>(symbol.index);
      }
    }
  }

  // Phase 3.5: binding slots for swappable components. Every global text symbol
  // defined by a swappable instance gets a slot; iteration over the sorted
  // global_defs_ map makes slot indices deterministic for identical links.
  void CreateBindings() {
    Image& image = *image_;
    for (const auto& [name, def] : global_defs_) {
      const ObjectFile* object = def.first;
      const ObjSymbol& symbol = object->symbols()[def.second];
      if (symbol.section != ObjSymbol::Section::kText) {
        continue;
      }
      int target = function_base_[object] + symbol.index;
      const std::string& component = image.functions[target].component;
      if (options_->swappable_components.count(component) == 0) {
        continue;
      }
      slot_of_callable_[target] = static_cast<int>(image.bindings.size());
      image.bindings.push_back(BindingSlot{name, component, target});
    }
  }

  // The word a reference to `resolved` links to: a data address, or a function
  // ref. A ref to a function behind a binding slot names the slot (see
  // kSlotBase), whichever component takes it, so it follows every swap.
  uint32_t ValueOf(const Resolved& resolved) const {
    if (resolved.kind == Resolved::Kind::kData) {
      return resolved.address;
    }
    auto slot = slot_of_callable_.find(resolved.callable);
    return EncodeFuncRef(slot == slot_of_callable_.end() ? resolved.callable
                                                         : Image::SlotRef(slot->second));
  }

  // Phase 4a: rewrite `object`'s code, placed at `placed` (one function per
  // object function). A call to a data symbol (a prototype in one unit, a
  // variable in another) is an error.
  bool PatchCode(const ObjectFile* object, BytecodeFunction* placed) {
    bool ok = true;
    const std::vector<Resolved>& table = resolution_[object];
    for (size_t f = 0; f < object->functions.size(); ++f) {
      BytecodeFunction& function = placed[f];
      for (Insn& insn : function.code) {
        if (insn.op == Op::kConstSym) {
          insn.op = Op::kConstInt;
          insn.a = static_cast<int32_t>(ValueOf(table[insn.a]));
        } else if (insn.op == Op::kCall) {
          const Resolved& resolved = table[insn.a];
          if (resolved.kind == Resolved::Kind::kData) {
            diags_.Error(SourceLoc{object->name, 0, 0},
                         "'" + function.name + "' calls '" + object->symbols()[insn.a].name() +
                             "', which is data, not a function");
            ok = false;
          } else {
            auto slot = slot_of_callable_.find(resolved.callable);
            if (slot != slot_of_callable_.end() &&
                function.component != image_->bindings[slot->second].component) {
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
    return ok;
  }

  // Phase 4b: rewrite `object`'s data relocations in its blob `bytes`.
  void RelocateData(const ObjectFile* object, uint8_t* bytes) {
    const std::vector<Resolved>& table = resolution_[object];
    for (const DataReloc& reloc : object->data_relocs) {
      uint8_t* word = bytes + reloc.data_offset;
      const Resolved& resolved = table[reloc.symbol];
      StoreWord(word, ValueOf(resolved) + LoadWord(word));
      if (resolved.kind != Resolved::Kind::kData && options_ != nullptr) {
        // A function ref now lives in linked data; record where, so the image
        // optimizer keeps its target alive (see Image::func_ref_data). An
        // append's data goes on the heap, which nothing reads that list for.
        image_->func_ref_data.push_back(data_address_[object] +
                                        static_cast<uint32_t>(reloc.data_offset));
      }
    }
  }

  std::vector<LinkItem> items_;
  const LinkOptions* options_ = nullptr;  // null when appending
  Diagnostics& diags_;
  LinkResult result_;
  Image* image_ = &result_.image;  // the image being built or appended to

  std::vector<const ObjectFile*> included_;
  std::map<std::string, std::pair<const ObjectFile*, int>> global_defs_;
  std::map<const ObjectFile*, uint32_t> data_address_;
  std::map<const ObjectFile*, int> function_base_;
  std::map<const ObjectFile*, std::vector<Resolved>> resolution_;
  std::map<int, int> slot_of_callable_;  // function id -> binding slot index it serves
};

}  // namespace

Result<LinkResult> Link(std::vector<LinkItem> items, const LinkOptions& options,
                        Diagnostics& diags) {
  Linker linker(std::move(items), options, diags);
  return linker.Run();
}

Result<std::vector<uint8_t>> LinkAppend(Image& image, const ObjectFile& object,
                                        uint32_t data_address, Diagnostics& diags,
                                        const std::map<std::string, std::string>& slot_definitions) {
  Linker linker(image, diags);
  return linker.Append(object, data_address, slot_definitions);
}

}  // namespace knit
