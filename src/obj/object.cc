#include "src/obj/object.h"

#include <algorithm>
#include <functional>

namespace knit {

size_t ObjectFile::Bucket(std::string_view symbol_name) const {
  const size_t mask = buckets_.size() - 1;
  for (size_t bucket = std::hash<std::string_view>{}(symbol_name) & mask;;
       bucket = (bucket + 1) & mask) {
    if (buckets_[bucket] < 0 || symbols_[buckets_[bucket]].name_ == symbol_name) {
      return bucket;
    }
  }
}

void ObjectFile::Reindex(size_t bucket_count) {
  buckets_.assign(bucket_count, -1);
  for (size_t s = 0; s < symbols_.size(); ++s) {
    buckets_[Bucket(symbols_[s].name_)] = static_cast<int>(s);
  }
}

int ObjectFile::FindSymbol(std::string_view symbol_name) const {
  return buckets_.empty() ? -1 : buckets_[Bucket(symbol_name)];
}

int ObjectFile::Add(ObjSymbol symbol) {
  if (2 * (symbols_.size() + 1) > buckets_.size()) {
    Reindex(std::max<size_t>(16, 2 * buckets_.size()));
  }
  const size_t bucket = Bucket(symbol.name_);
  if (buckets_[bucket] >= 0) {
    return -1;
  }
  buckets_[bucket] = static_cast<int>(symbols_.size());
  symbols_.push_back(std::move(symbol));
  return buckets_[bucket];
}

int ObjectFile::AddUndefined(const std::string& symbol_name) {
  int existing = FindSymbol(symbol_name);
  return existing >= 0 ? existing
                       : Add(ObjSymbol(symbol_name, ObjSymbol::Section::kUndefined, true));
}

namespace {

bool IsImport(const ObjSymbol& symbol) {
  return symbol.section == ObjSymbol::Section::kUndefined && symbol.global;
}

Result<void> RenameCollides(const ObjectFile& object, std::string_view from, std::string_view to,
                            Diagnostics& diags) {
  diags.Error(SourceLoc{object.name, 0, 0},
              "objcopy rename '" + std::string(from) + "' -> '" + std::string(to) +
                  "' collides with an existing symbol in " + object.name);
  return Result<void>::Failure();
}

}  // namespace

Result<void> ObjcopyRename(ObjectFile& object, const std::map<std::string, std::string>& renames,
                           Diagnostics& diags) {
  // Validate before changing anything. Renaming a -> b when b exists in the
  // object and keeps its name would merge distinct symbols, and so would
  // renaming a defined symbol and another one onto one new name.
  std::vector<std::pair<std::string_view, int>> targets;  // (new name, symbol)
  targets.reserve(renames.size());
  for (const auto& [from, to] : renames) {
    const int source = object.FindSymbol(from);
    if (source < 0 || from == to) {
      continue;  // nothing to rename; harmless (unit may not reference an import)
    }
    auto away = renames.find(to);
    if (object.FindSymbol(to) >= 0 && (away == renames.end() || away->second == to)) {
      return RenameCollides(object, from, to, diags);
    }
    targets.emplace_back(to, source);
  }
  std::sort(targets.begin(), targets.end());
  bool merge = false;
  for (size_t t = 1; t < targets.size(); ++t) {
    const auto& [to, source] = targets[t];
    if (to == targets[t - 1].first) {
      if (!IsImport(object.symbols_[source]) || !IsImport(object.symbols_[targets[t - 1].second])) {
        return RenameCollides(object, object.symbols_[source].name_, to, diags);
      }
      merge = true;
    }
  }
  for (ObjSymbol& symbol : object.symbols_) {
    auto it = renames.find(symbol.name_);
    if (it != renames.end()) {
      symbol.name_ = it->second;
    }
  }
  if (merge) {
    // Each import keeps the first symbol of its new name; references to the
    // others move to it.
    std::vector<ObjSymbol> table = std::move(object.symbols_);
    object.symbols_.clear();
    object.buckets_.clear();
    std::vector<int> remap(table.size());
    for (size_t s = 0; s < table.size(); ++s) {
      const int kept = object.FindSymbol(table[s].name_);
      remap[s] = kept >= 0 ? kept : object.Add(std::move(table[s]));
    }
    for (BytecodeFunction& function : object.functions) {
      for (Insn& insn : function.code) {
        if (insn.op == Op::kCall || insn.op == Op::kConstSym) {
          insn.a = remap[insn.a];
        }
      }
    }
    for (DataReloc& reloc : object.data_relocs) {
      reloc.symbol = remap[reloc.symbol];
    }
  } else {
    object.Reindex(object.buckets_.size());
  }
  // Function display names track their defining symbol where one exists.
  for (BytecodeFunction& function : object.functions) {
    auto it = renames.find(function.name);
    if (it != renames.end()) {
      function.name = it->second;
    }
  }
  return Result<void>::Success();
}

Result<void> ObjcopyLocalize(ObjectFile& object, const std::string& symbol_name,
                             Diagnostics& diags) {
  int index = object.FindSymbol(symbol_name);
  if (index < 0) {
    diags.Error(SourceLoc{object.name, 0, 0},
                "objcopy localize: no symbol '" + symbol_name + "' in " + object.name);
    return Result<void>::Failure();
  }
  ObjSymbol& symbol = object.symbols()[index];
  if (symbol.section == ObjSymbol::Section::kUndefined) {
    diags.Error(SourceLoc{object.name, 0, 0},
                "objcopy localize: symbol '" + symbol_name + "' is undefined in " + object.name);
    return Result<void>::Failure();
  }
  symbol.global = false;
  return Result<void>::Success();
}

ObjectFile ObjcopyDuplicate(const ObjectFile& object, const std::string& new_name) {
  ObjectFile copy = object;
  copy.name = new_name;
  return copy;
}

}  // namespace knit
