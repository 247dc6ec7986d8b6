// ScopedMap: a block-scoped symbol table. A name maps to its innermost visible
// binding; Push/Pop open and close a scope, and Declare, Find and Pop cost one
// hash probe per name. Shadowed bindings are chained, so closing a scope
// restores what the outer scopes saw.
//
// Keys are views: the caller keeps the named text alive (the AST, for the MiniC
// checker and code generator) until Clear().
#ifndef SRC_SUPPORT_SCOPED_MAP_H_
#define SRC_SUPPORT_SCOPED_MAP_H_

#include <cstddef>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace knit {

template <typename Value>
class ScopedMap {
 public:
  void Clear() {
    index_.clear();
    bindings_.clear();
    scope_starts_.clear();
  }

  void Push() { scope_starts_.push_back(bindings_.size()); }

  void Pop() {
    size_t start = scope_starts_.back();
    scope_starts_.pop_back();
    while (bindings_.size() > start) {
      const Binding& binding = bindings_.back();
      index_[binding.name] = binding.shadowed;
      bindings_.pop_back();
    }
  }

  // Binds `name` in the innermost scope. Returns false, binding nothing, when
  // that scope already binds it.
  bool Declare(std::string_view name, Value value) {
    auto [it, inserted] = index_.try_emplace(name, kNone);
    size_t shadowed = it->second;
    if (shadowed != kNone && !scope_starts_.empty() && shadowed >= scope_starts_.back()) {
      return false;
    }
    it->second = bindings_.size();
    bindings_.push_back(Binding{name, shadowed, std::move(value)});
    return true;
  }

  // The innermost visible binding of `name`, or null. Valid until the next
  // Declare, Pop or Clear.
  const Value* Find(std::string_view name) const {
    auto it = index_.find(name);
    if (it == index_.end() || it->second == kNone) {
      return nullptr;
    }
    return &bindings_[it->second].value;
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Binding {
    std::string_view name;
    size_t shadowed;  // the binding this one hides, or kNone
    Value value;
  };

  std::unordered_map<std::string_view, size_t> index_;  // name -> innermost binding
  std::vector<Binding> bindings_;                        // in declaration order
  std::vector<size_t> scope_starts_;                     // first binding of each scope
};

}  // namespace knit

#endif  // SRC_SUPPORT_SCOPED_MAP_H_
