#include "src/minic/types.h"

namespace knit {

namespace {
constexpr int kWordSize = 4;  // 32-bit machine model

int RoundUp(int value, int align) { return (value + align - 1) / align * align; }
}  // namespace

int Type::SizeOf() const {
  switch (kind) {
    case Kind::kVoid:
    case Kind::kFunc:
      return 0;
    case Kind::kChar:
      return 1;
    case Kind::kInt:
    case Kind::kUnsigned:
    case Kind::kPointer:
      return kWordSize;
    case Kind::kArray:
      return base->SizeOf() * array_count;
    case Kind::kStruct:
      return complete ? struct_size : 0;
  }
  return 0;
}

int Type::AlignOf() const {
  switch (kind) {
    case Kind::kVoid:
    case Kind::kFunc:
      return 1;
    case Kind::kChar:
      return 1;
    case Kind::kInt:
    case Kind::kUnsigned:
    case Kind::kPointer:
      return kWordSize;
    case Kind::kArray:
      return base->AlignOf();
    case Kind::kStruct:
      return complete ? struct_align : 1;
  }
  return 1;
}

const StructField* Type::FindField(const std::string& name) const {
  for (const StructField& field : fields) {
    if (field.name == name) {
      return &field;
    }
  }
  return nullptr;
}

std::string Type::ToString() const {
  switch (kind) {
    case Kind::kVoid:
      return "void";
    case Kind::kChar:
      return "char";
    case Kind::kInt:
      return "int";
    case Kind::kUnsigned:
      return "unsigned";
    case Kind::kPointer:
      if (base->IsFunc()) {
        std::string out = base->base->ToString() + " (*)(";
        for (size_t i = 0; i < base->params.size(); ++i) {
          if (i > 0) {
            out += ", ";
          }
          out += base->params[i].type->ToString();
        }
        if (base->variadic) {
          out += base->params.empty() ? "..." : ", ...";
        }
        return out + ")";
      }
      return base->ToString() + " *";
    case Kind::kArray:
      return base->ToString() + "[" + std::to_string(array_count) + "]";
    case Kind::kStruct:
      return "struct " + struct_tag;
    case Kind::kFunc: {
      std::string out = base->ToString() + " (";
      for (size_t i = 0; i < params.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += params[i].type->ToString();
      }
      if (variadic) {
        out += params.empty() ? "..." : ", ...";
      }
      return out + ")";
    }
  }
  return "?";
}

TypeTable::TypeTable() {
  Type* v = NewType();
  v->kind = Type::Kind::kVoid;
  void_ = v;
  Type* c = NewType();
  c->kind = Type::Kind::kChar;
  char_ = c;
  Type* i = NewType();
  i->kind = Type::Kind::kInt;
  int_ = i;
  Type* u = NewType();
  u->kind = Type::Kind::kUnsigned;
  unsigned_ = u;
}

Type* TypeTable::NewType() {
  all_.push_back(std::make_unique<Type>());
  return all_.back().get();
}

const Type* TypeTable::PointerTo(const Type* base) {
  const Type*& slot = pointers_[base];
  if (slot == nullptr) {
    Type* t = NewType();
    t->kind = Type::Kind::kPointer;
    t->base = base;
    slot = t;
  }
  return slot;
}

const Type* TypeTable::ArrayOf(const Type* element, int count) {
  const Type*& slot = arrays_[{element, count}];
  if (slot == nullptr) {
    Type* t = NewType();
    t->kind = Type::Kind::kArray;
    t->base = element;
    t->array_count = count;
    slot = t;
  }
  return slot;
}

const Type* TypeTable::Function(const Type* ret, std::vector<FuncParam> params, bool variadic) {
  std::vector<const Type*> param_types;
  param_types.reserve(params.size());
  for (const FuncParam& param : params) {
    param_types.push_back(param.type);
  }
  const Type*& slot = functions_[{ret, variadic, std::move(param_types)}];
  if (slot == nullptr) {
    Type* t = NewType();
    t->kind = Type::Kind::kFunc;
    t->base = ret;
    t->params = std::move(params);
    t->variadic = variadic;
    slot = t;
  }
  return slot;
}

Type* TypeTable::StructFor(const std::string& tag) {
  Type*& slot = structs_[tag];
  if (slot == nullptr) {
    slot = NewType();
    slot->kind = Type::Kind::kStruct;
    slot->struct_tag = tag;
  }
  return slot;
}

bool TypeTable::CompleteStruct(Type* type, std::vector<StructField> fields) {
  // Layout first so we can compare against an existing completion.
  int offset = 0;
  int align = 1;
  for (StructField& field : fields) {
    int field_align = field.type->AlignOf();
    offset = RoundUp(offset, field_align);
    field.offset = offset;
    offset += field.type->SizeOf();
    align = std::max(align, field_align);
  }
  int size = RoundUp(offset, align);

  if (type->complete) {
    if (type->fields.size() != fields.size() || type->struct_size != size) {
      return false;
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      if (type->fields[i].name != fields[i].name || type->fields[i].type != fields[i].type ||
          type->fields[i].offset != fields[i].offset) {
        return false;
      }
    }
    return true;  // identical redefinition (shared header)
  }
  type->fields = std::move(fields);
  type->struct_size = size;
  type->struct_align = align;
  type->complete = true;
  return true;
}

}  // namespace knit
