// MiniC type system. MiniC targets a 32-bit machine model (the paper's evaluation
// hardware was a Pentium Pro): char is 1 byte, int/unsigned/pointers are 4 bytes.
// Types are interned in a TypeTable and referenced as `const Type*`; pointer equality
// is type equality (struct types are interned by tag + field layout).
#ifndef SRC_MINIC_TYPES_H_
#define SRC_MINIC_TYPES_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace knit {

struct Type;

struct StructField {
  std::string name;
  const Type* type = nullptr;
  int offset = 0;  // computed when the struct is completed
};

struct FuncParam {
  const Type* type = nullptr;
};

struct Type {
  enum class Kind {
    kVoid,
    kChar,      // signed 8-bit
    kInt,       // signed 32-bit
    kUnsigned,  // unsigned 32-bit
    kPointer,
    kArray,
    kStruct,
    kFunc,
  };

  Kind kind = Kind::kVoid;

  // kPointer: pointee; kArray: element; kFunc: return type.
  const Type* base = nullptr;

  // kArray: element count (>= 0).
  int array_count = 0;

  // kStruct:
  std::string struct_tag;           // "" for anonymous (not supported by the parser)
  std::vector<StructField> fields;  // empty while incomplete
  bool complete = false;
  int struct_size = 0;
  int struct_align = 1;

  // kFunc:
  std::vector<FuncParam> params;
  bool variadic = false;

  bool IsInteger() const {
    return kind == Kind::kChar || kind == Kind::kInt || kind == Kind::kUnsigned;
  }
  bool IsPointer() const { return kind == Kind::kPointer; }
  bool IsScalar() const { return IsInteger() || IsPointer(); }
  bool IsVoid() const { return kind == Kind::kVoid; }
  bool IsFunc() const { return kind == Kind::kFunc; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsStruct() const { return kind == Kind::kStruct; }

  // Size/alignment in bytes; 0 for void/func/incomplete structs.
  int SizeOf() const;
  int AlignOf() const;

  // Field lookup for kStruct; nullptr if absent.
  const StructField* FindField(const std::string& name) const;

  // C-ish rendering for diagnostics ("int", "struct packet *", "int (*)(char *)").
  std::string ToString() const;
};

// Owns and interns types. One table is shared across every translation unit of a
// compilation so that `const Type*` equality works across merged/linked units.
class TypeTable {
 public:
  TypeTable();

  const Type* Void() const { return void_; }
  const Type* Char() const { return char_; }
  const Type* Int() const { return int_; }
  const Type* Unsigned() const { return unsigned_; }

  const Type* PointerTo(const Type* base);
  const Type* ArrayOf(const Type* element, int count);
  const Type* Function(const Type* ret, std::vector<FuncParam> params, bool variadic);

  // Returns the struct type for `tag`, creating an incomplete one on first use.
  // Struct tags are a single global namespace within one TypeTable; the flattener
  // renames conflicting tags before merging.
  Type* StructFor(const std::string& tag);

  // Completes `type` with fields, computing layout. Returns false if it was already
  // complete with a *different* layout (redefinition conflict); identical
  // re-completion is accepted (common headers).
  bool CompleteStruct(Type* type, std::vector<StructField> fields);

 private:
  Type* NewType();

  std::vector<std::unique_ptr<Type>> all_;
  // Interning indexes over all_.
  std::map<const Type*, const Type*> pointers_;                // pointee -> pointer
  std::map<std::pair<const Type*, int>, const Type*> arrays_;  // (element, count) -> array
  std::map<std::tuple<const Type*, bool, std::vector<const Type*>>, const Type*>
      functions_;                                  // (return, variadic, params) -> function
  std::unordered_map<std::string, Type*> structs_;  // tag -> struct
  const Type* void_;
  const Type* char_;
  const Type* int_;
  const Type* unsigned_;
};

}  // namespace knit

#endif  // SRC_MINIC_TYPES_H_
