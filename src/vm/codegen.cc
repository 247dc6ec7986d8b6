#include "src/vm/codegen.h"

#include <cassert>
#include <limits>
#include <map>
#include <string_view>

#include "src/support/scoped_map.h"
#include "src/support/strings.h"
#include "src/vm/optimize.h"

namespace knit {

bool CodegenOptions::ApplyFlags(const std::vector<std::string>& flags, std::string* error) {
  constexpr std::string_view kInlineLimit = "-finline-limit=";
  bool ok = true;
  for (const std::string& flag : flags) {
    if (flag == "-O0") {
      opt_level = 0;
    } else if (flag == "-O" || flag == "-O1") {
      opt_level = 1;
    } else if (flag == "-O2") {
      opt_level = 2;
    } else if (flag == "-fno-inline") {
      inline_limit = 0;
    } else if (flag.rfind(kInlineLimit, 0) == 0) {
      long long limit = 0;
      if (ParseInt(std::string_view(flag).substr(kInlineLimit.size()), 0,
                   std::numeric_limits<int>::max(), limit)) {
        inline_limit = static_cast<int>(limit);
      } else {
        if (error != nullptr && ok) {
          *error = "flag '" + flag + "' expects a non-negative integer inline limit";
        }
        ok = false;
      }
    }
    // Unknown flags (e.g. -I paths, kept for paper fidelity) are ignored.
  }
  return ok;
}

namespace {

constexpr int kWordSize = 4;

// A link-time constant: value + optional symbol addend (for address initializers).
struct ConstVal {
  long long value = 0;
  int symbol = -1;  // object symbol index, or -1 for a pure integer
};

class UnitCompiler {
 public:
  UnitCompiler(const TranslationUnit& unit, const SemaInfo& info, TypeTable& types,
               const std::string& object_name, Diagnostics& diags)
      : unit_(unit), info_(info), types_(types), diags_(diags) {
    object_.name = object_name;
  }

  Result<ObjectFile> Run() {
    // Pass 1: create symbols for all definitions so forward references resolve to
    // the right kind, and lay out global variables.
    for (const Decl& decl : unit_.decls) {
      if (decl.kind == Decl::Kind::kFunction && decl.is_definition) {
        DefineFunctionSymbol(decl);
      } else if (decl.kind == Decl::Kind::kGlobalVar && !decl.is_extern &&
                 seen_globals_.insert(decl.name).second) {
        if (!LayoutGlobal(decl)) {
          return Result<ObjectFile>::Failure();
        }
      }
    }
    // Pass 2: compile function bodies (in declaration order — the order matters to
    // the inliner, which is the point of the flattener's definition sorting).
    for (const Decl& decl : unit_.decls) {
      if (decl.kind == Decl::Kind::kFunction && decl.is_definition) {
        if (!CompileFunction(decl)) {
          return Result<ObjectFile>::Failure();
        }
      }
    }
    if (diags_.has_errors()) {
      return Result<ObjectFile>::Failure();
    }
    return std::move(object_);
  }

 private:
  // ---- symbols and data -----------------------------------------------------

  void DefineFunctionSymbol(const Decl& decl) {
    int index = object_.AddUndefined(decl.name);
    ObjSymbol& symbol = object_.symbols()[index];
    symbol.section = ObjSymbol::Section::kText;
    symbol.global = !decl.is_static;
    symbol.index = -1;  // patched in CompileFunction
  }

  bool LayoutGlobal(const Decl& decl) {
    int size = decl.var_type->SizeOf();
    if (size <= 0) {
      diags_.Error(decl.loc, "global '" + decl.name + "' has zero-sized type");
      return false;
    }
    int align = std::max(decl.var_type->AlignOf(), kWordSize);
    int offset = RoundUp(static_cast<int>(object_.data.size()), align);
    object_.data.resize(static_cast<size_t>(offset) + size, 0);

    int index = object_.AddUndefined(decl.name);
    ObjSymbol& symbol = object_.symbols()[index];
    symbol.section = ObjSymbol::Section::kData;
    symbol.global = !decl.is_static;
    symbol.index = offset;
    symbol.size = size;
    symbol.align = align;

    // Initializers.
    if (decl.init) {
      return EmitConstInto(*decl.init, decl.var_type, offset, decl.loc);
    }
    if (!decl.init_list.empty()) {
      if (decl.var_type->IsArray()) {
        int element = decl.var_type->base->SizeOf();
        for (size_t i = 0; i < decl.init_list.size(); ++i) {
          if (!EmitConstInto(*decl.init_list[i], decl.var_type->base,
                             offset + static_cast<int>(i) * element, decl.loc)) {
            return false;
          }
        }
        return true;
      }
      if (decl.var_type->IsStruct()) {
        for (size_t i = 0; i < decl.init_list.size(); ++i) {
          const StructField& field = decl.var_type->fields[i];
          if (!EmitConstInto(*decl.init_list[i], field.type, offset + field.offset, decl.loc)) {
            return false;
          }
        }
        return true;
      }
      diags_.Error(decl.loc, "brace initializer on scalar '" + decl.name + "'");
      return false;
    }
    return true;  // zero-initialized
  }

  bool EmitConstInto(const Expr& expr, const Type* type, int offset, const SourceLoc& loc) {
    ConstVal value;
    if (!EvalConst(expr, value)) {
      diags_.Error(expr.loc, "initializer is not a link-time constant");
      return false;
    }
    int size = type->IsInteger() ? type->SizeOf() : kWordSize;
    if (value.symbol >= 0) {
      object_.data_relocs.push_back(DataReloc{offset, value.symbol});
      // The addend (value.value) is stored in place and added by the linker.
    }
    for (int i = 0; i < size; ++i) {
      object_.data[static_cast<size_t>(offset) + i] =
          static_cast<uint8_t>((static_cast<unsigned long long>(value.value) >> (8 * i)) & 0xFF);
    }
    (void)loc;
    return true;
  }

  // Adds a string literal to the data image (NUL-terminated) under a fresh local
  // symbol; returns the symbol index. Identical strings are shared.
  int InternString(const std::string& text) {
    auto it = string_symbols_.find(text);
    if (it != string_symbols_.end()) {
      return it->second;
    }
    int offset = RoundUp(static_cast<int>(object_.data.size()), kWordSize);
    object_.data.resize(static_cast<size_t>(offset) + text.size() + 1, 0);
    for (size_t i = 0; i < text.size(); ++i) {
      object_.data[static_cast<size_t>(offset) + i] = static_cast<uint8_t>(text[i]);
    }
    int index = object_.Add(ObjSymbol(".str" + std::to_string(string_symbols_.size()),
                                      ObjSymbol::Section::kData, false, offset,
                                      static_cast<int>(text.size()) + 1, kWordSize));
    string_symbols_[text] = index;
    return index;
  }

  bool EvalConst(const Expr& expr, ConstVal& out) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
        out = ConstVal{expr.int_value, -1};
        return true;
      case Expr::Kind::kStrLit:
        out = ConstVal{0, InternString(expr.text)};
        return true;
      case Expr::Kind::kSizeof:
        out = ConstVal{expr.sizeof_type->SizeOf(), -1};
        return true;
      case Expr::Kind::kCast:
        return EvalConst(*expr.args[0], out);
      case Expr::Kind::kIdent:
        if (info_.functions.count(expr.text) > 0) {
          out = ConstVal{0, object_.AddUndefined(expr.text)};
          return true;
        }
        if (expr.type != nullptr && expr.type->IsArray()) {
          out = ConstVal{0, object_.AddUndefined(expr.text)};
          return true;
        }
        return false;
      case Expr::Kind::kUnary: {
        if (expr.text == "&") {
          const Expr& target = *expr.args[0];
          if (target.kind == Expr::Kind::kIdent) {
            out = ConstVal{0, object_.AddUndefined(target.text)};
            return true;
          }
          return false;
        }
        ConstVal v;
        if (!EvalConst(*expr.args[0], v) || v.symbol >= 0) {
          return false;
        }
        if (expr.text == "-") {
          out = ConstVal{-v.value, -1};
          return true;
        }
        if (expr.text == "~") {
          out = ConstVal{~v.value, -1};
          return true;
        }
        return false;
      }
      case Expr::Kind::kBinary: {
        ConstVal a;
        ConstVal b;
        if (!EvalConst(*expr.args[0], a) || !EvalConst(*expr.args[1], b)) {
          return false;
        }
        // Allow symbol + integer.
        if (a.symbol >= 0 && b.symbol >= 0) {
          return false;
        }
        int symbol = a.symbol >= 0 ? a.symbol : b.symbol;
        const std::string& op = expr.text;
        long long x = a.value;
        long long y = b.value;
        long long r = 0;
        if (op == "+") {
          r = x + y;
        } else if (op == "-" && b.symbol < 0) {
          r = x - y;
        } else if (symbol < 0 && op == "*") {
          r = x * y;
        } else if (symbol < 0 && op == "/" && y != 0) {
          r = x / y;
        } else if (symbol < 0 && op == "<<") {
          r = x << y;
        } else if (symbol < 0 && op == ">>") {
          r = x >> y;
        } else if (symbol < 0 && op == "|") {
          r = x | y;
        } else if (symbol < 0 && op == "&") {
          r = x & y;
        } else if (symbol < 0 && op == "^") {
          r = x ^ y;
        } else {
          return false;
        }
        out = ConstVal{r, symbol};
        return true;
      }
      default:
        return false;
    }
  }

  // ---- function compilation ---------------------------------------------------

  struct LocalSlot {
    int offset = 0;
    const Type* type = nullptr;
  };

  bool CompileFunction(const Decl& decl) {
    code_.clear();
    locals_.Clear();
    frame_size_ = 0;
    break_targets_.clear();
    continue_targets_.clear();

    locals_.Push();
    // Parameters occupy the first slots, one word each (chars are promoted).
    for (const ParamDecl& param : decl.params) {
      int offset = AllocSlot(kWordSize, kWordSize);
      locals_.Declare(param.name, LocalSlot{offset, param.type});
    }

    if (!GenStmt(*decl.body)) {
      return false;
    }
    Emit(Op::kRet, 0, 0);  // implicit return (no value)

    BytecodeFunction function;
    function.name = decl.name;
    function.frame_size = RoundUp(frame_size_, kWordSize);
    function.param_count = static_cast<int>(decl.params.size());
    function.variadic = decl.func_type->variadic;
    function.returns_value = !decl.func_type->base->IsVoid();
    function.code = std::move(code_);

    object_.functions.push_back(std::move(function));
    int symbol = object_.AddUndefined(decl.name);
    object_.symbols()[symbol].index = static_cast<int>(object_.functions.size()) - 1;
    return true;
  }

  int AllocSlot(int size, int align) {
    frame_size_ = RoundUp(frame_size_, align);
    int offset = frame_size_;
    frame_size_ += size;
    return offset;
  }

  const LocalSlot* FindLocal(const std::string& name) const { return locals_.Find(name); }

  int Emit(Op op, int32_t a = 0, int32_t b = 0) {
    code_.push_back(Insn{op, a, b});
    return static_cast<int>(code_.size()) - 1;
  }

  int Here() const { return static_cast<int>(code_.size()); }
  void Patch(int insn, int target) { code_[insn].a = target; }

  // ---- statements ---------------------------------------------------------------

  bool GenStmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kEmpty:
        return true;
      case Stmt::Kind::kExpr:
        return GenExprForEffect(*stmt.exprs[0]);
      case Stmt::Kind::kBlock: {
        locals_.Push();
        bool ok = true;
        for (const StmtPtr& child : stmt.stmts) {
          ok = ok && GenStmt(*child);
        }
        locals_.Pop();
        return ok;
      }
      case Stmt::Kind::kLocalDecl: {
        int size = std::max(stmt.decl_type->SizeOf(), 1);
        int align = std::max(stmt.decl_type->AlignOf(), 1);
        // Scalars get word-aligned slots; aggregates use natural layout.
        if (stmt.decl_type->IsScalar()) {
          align = kWordSize;
        }
        int offset = AllocSlot(size, align);
        locals_.Declare(stmt.text, LocalSlot{offset, stmt.decl_type});
        if (!stmt.exprs.empty() && stmt.exprs[0]) {
          if (!GenValue(*stmt.exprs[0])) {
            return false;
          }
          Emit(Op::kStoreLocal, offset, SlotSize(stmt.decl_type));
        }
        return true;
      }
      case Stmt::Kind::kIf: {
        if (!GenValue(*stmt.exprs[0])) {
          return false;
        }
        int jz = Emit(Op::kJz);
        if (!GenStmt(*stmt.stmts[0])) {
          return false;
        }
        if (stmt.stmts.size() > 1) {
          int jend = Emit(Op::kJmp);
          Patch(jz, Here());
          if (!GenStmt(*stmt.stmts[1])) {
            return false;
          }
          Patch(jend, Here());
        } else {
          Patch(jz, Here());
        }
        return true;
      }
      case Stmt::Kind::kWhile: {
        int top = Here();
        if (!GenValue(*stmt.exprs[0])) {
          return false;
        }
        int jz = Emit(Op::kJz);
        break_targets_.push_back({});
        continue_targets_.push_back({});
        if (!GenStmt(*stmt.stmts[0])) {
          return false;
        }
        for (int insn : continue_targets_.back()) {
          Patch(insn, top);
        }
        Emit(Op::kJmp, top);
        Patch(jz, Here());
        for (int insn : break_targets_.back()) {
          Patch(insn, Here());
        }
        break_targets_.pop_back();
        continue_targets_.pop_back();
        return true;
      }
      case Stmt::Kind::kFor: {
        locals_.Push();
        if (stmt.stmts[0] && !GenStmt(*stmt.stmts[0])) {
          return false;
        }
        int top = Here();
        int jz = -1;
        if (stmt.exprs[0]) {
          if (!GenValue(*stmt.exprs[0])) {
            return false;
          }
          jz = Emit(Op::kJz);
        }
        break_targets_.push_back({});
        continue_targets_.push_back({});
        if (!GenStmt(*stmt.stmts[1])) {
          return false;
        }
        int step_at = Here();
        if (stmt.exprs[1] && !GenExprForEffect(*stmt.exprs[1])) {
          return false;
        }
        Emit(Op::kJmp, top);
        int end = Here();
        if (jz >= 0) {
          Patch(jz, end);
        }
        for (int insn : continue_targets_.back()) {
          Patch(insn, step_at);
        }
        for (int insn : break_targets_.back()) {
          Patch(insn, end);
        }
        break_targets_.pop_back();
        continue_targets_.pop_back();
        locals_.Pop();
        return true;
      }
      case Stmt::Kind::kReturn:
        if (stmt.exprs.empty()) {
          Emit(Op::kRet, 0);
          return true;
        }
        if (!GenValue(*stmt.exprs[0])) {
          return false;
        }
        Emit(Op::kRet, 1);
        return true;
      case Stmt::Kind::kBreak: {
        if (break_targets_.empty()) {
          diags_.Error(stmt.loc, "'break' outside of a loop");
          return false;
        }
        break_targets_.back().push_back(Emit(Op::kJmp));
        return true;
      }
      case Stmt::Kind::kContinue: {
        if (continue_targets_.empty()) {
          diags_.Error(stmt.loc, "'continue' outside of a loop");
          return false;
        }
        continue_targets_.back().push_back(Emit(Op::kJmp));
        return true;
      }
    }
    return true;
  }

  // ---- expressions ----------------------------------------------------------------

  static int SlotSize(const Type* type) {
    return type->kind == Type::Kind::kChar ? 1 : kWordSize;
  }

  // Is this identifier a local variable (as opposed to a global/function)?
  const LocalSlot* AsLocal(const Expr& expr) const {
    if (expr.kind != Expr::Kind::kIdent) {
      return nullptr;
    }
    return FindLocal(expr.text);
  }

  // Generates code leaving the expression's *value* on the stack.
  bool GenValue(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
        Emit(Op::kConstInt, static_cast<int32_t>(expr.int_value));
        return true;
      case Expr::Kind::kStrLit:
        Emit(Op::kConstSym, InternString(expr.text));
        return true;
      case Expr::Kind::kIdent: {
        const LocalSlot* local = FindLocal(expr.text);
        if (local != nullptr) {
          if (local->type->IsArray() || local->type->IsStruct()) {
            Emit(Op::kAddrLocal, local->offset);  // arrays/structs decay to address
            return true;
          }
          Emit(Op::kLoadLocal, local->offset, SlotSize(local->type));
          if (local->type->kind == Type::Kind::kChar) {
            Emit(Op::kSext8);
          }
          return true;
        }
        if (info_.functions.count(expr.text) > 0) {
          Emit(Op::kConstSym, object_.AddUndefined(expr.text));  // function reference
          return true;
        }
        // Global variable.
        Emit(Op::kConstSym, object_.AddUndefined(expr.text));
        if (expr.type->IsArray() || expr.type->IsStruct()) {
          return true;  // decays to its address
        }
        EmitLoadMem(expr.type);
        return true;
      }
      case Expr::Kind::kUnary:
        return GenUnary(expr);
      case Expr::Kind::kBinary:
        return GenBinary(expr);
      case Expr::Kind::kAssign:
        return GenAssign(expr, /*need_value=*/true);
      case Expr::Kind::kCall:
        return GenCall(expr, /*need_value=*/true);
      case Expr::Kind::kIndex:
      case Expr::Kind::kMember: {
        if (!GenAddr(expr)) {
          return false;
        }
        if (expr.type->IsArray() || expr.type->IsStruct()) {
          return true;  // aggregate value == its address
        }
        EmitLoadMem(expr.type);
        return true;
      }
      case Expr::Kind::kCast: {
        if (!GenValue(*expr.args[0])) {
          return false;
        }
        if (expr.cast_type->kind == Type::Kind::kChar &&
            expr.args[0]->type->kind != Type::Kind::kChar) {
          Emit(Op::kSext8);
        }
        if (expr.cast_type->IsVoid()) {
          Emit(Op::kPop);
          // A void cast produces no value; only legal in effect position, which
          // GenExprForEffect handles. Push a dummy for safety in value position.
          Emit(Op::kConstInt, 0);
        }
        return true;
      }
      case Expr::Kind::kCond: {
        if (!GenValue(*expr.args[0])) {
          return false;
        }
        int jz = Emit(Op::kJz);
        if (!GenValue(*expr.args[1])) {
          return false;
        }
        int jend = Emit(Op::kJmp);
        Patch(jz, Here());
        if (!GenValue(*expr.args[2])) {
          return false;
        }
        Patch(jend, Here());
        return true;
      }
      case Expr::Kind::kSizeof:
        Emit(Op::kConstInt, expr.sizeof_type->SizeOf());
        return true;
      case Expr::Kind::kIncDec:
        return GenIncDec(expr, /*need_value=*/true);
    }
    return false;
  }

  // Generates the expression for side effects only (statement position).
  bool GenExprForEffect(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kAssign:
        return GenAssign(expr, /*need_value=*/false);
      case Expr::Kind::kCall:
        return GenCall(expr, /*need_value=*/false);
      case Expr::Kind::kIncDec:
        return GenIncDec(expr, /*need_value=*/false);
      case Expr::Kind::kCast:
        if (expr.cast_type->IsVoid()) {
          return GenExprForEffect(*expr.args[0]);
        }
        break;
      default:
        break;
    }
    if (!GenValue(expr)) {
      return false;
    }
    Emit(Op::kPop);
    return true;
  }

  // Generates code leaving the expression's *address* on the stack (lvalues only;
  // Sema guaranteed lvalue-ness).
  bool GenAddr(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kIdent: {
        const LocalSlot* local = FindLocal(expr.text);
        if (local != nullptr) {
          Emit(Op::kAddrLocal, local->offset);
          return true;
        }
        Emit(Op::kConstSym, object_.AddUndefined(expr.text));
        return true;
      }
      case Expr::Kind::kUnary:
        assert(expr.text == "*");
        return GenValue(*expr.args[0]);
      case Expr::Kind::kIndex: {
        if (!GenValue(*expr.args[0])) {  // decays to pointer
          return false;
        }
        if (!GenValue(*expr.args[1])) {
          return false;
        }
        int element = expr.type->IsArray() ? expr.type->base->SizeOf() * expr.type->array_count
                                           : expr.type->SizeOf();
        // expr.type is the element type; scale the index by its size.
        element = expr.type->SizeOf();
        if (element != 1) {
          Emit(Op::kConstInt, element);
          Emit(Op::kMul);
        }
        Emit(Op::kAdd);
        return true;
      }
      case Expr::Kind::kMember: {
        const Expr& base = *expr.args[0];
        const Type* struct_type = expr.member_arrow
                                      ? base.type->IsArray() ? base.type->base : base.type->base
                                      : base.type;
        if (expr.member_arrow) {
          if (!GenValue(base)) {
            return false;
          }
        } else {
          if (!GenAddr(base)) {
            return false;
          }
        }
        const StructField* field = struct_type->FindField(expr.text);
        assert(field != nullptr);
        if (field->offset != 0) {
          Emit(Op::kConstInt, field->offset);
          Emit(Op::kAdd);
        }
        return true;
      }
      default:
        diags_.Error(expr.loc, "expression is not addressable");
        return false;
    }
  }

  void EmitLoadMem(const Type* type) {
    if (type->kind == Type::Kind::kChar) {
      Emit(Op::kLoadMem, 1, 1);
      Emit(Op::kSext8);
    } else {
      Emit(Op::kLoadMem, 0, kWordSize);
    }
  }

  void EmitStoreMem(const Type* type) {
    Emit(Op::kStoreMem, 0, type->kind == Type::Kind::kChar ? 1 : kWordSize);
  }

  bool GenUnary(const Expr& expr) {
    const std::string& op = expr.text;
    if (op == "&") {
      const Expr& target = *expr.args[0];
      if (target.type != nullptr && target.type->IsFunc()) {
        Emit(Op::kConstSym, object_.AddUndefined(target.text));
        return true;
      }
      return GenAddr(target);
    }
    if (op == "*") {
      if (!GenValue(*expr.args[0])) {
        return false;
      }
      if (expr.type->IsFunc() || expr.type->IsArray() || expr.type->IsStruct()) {
        return true;  // function designator / aggregate: value is the address
      }
      EmitLoadMem(expr.type);
      return true;
    }
    if (!GenValue(*expr.args[0])) {
      return false;
    }
    if (op == "-") {
      Emit(Op::kNeg);
    } else if (op == "~") {
      Emit(Op::kBitNot);
    } else {
      Emit(Op::kLogNot);
    }
    return true;
  }

  // Pointer-arithmetic scale factor when `pointer op integer`; 1 otherwise.
  static int PointerScale(const Type* pointer_side) {
    if (pointer_side->IsPointer()) {
      return pointer_side->base->SizeOf();
    }
    if (pointer_side->IsArray()) {
      return pointer_side->base->SizeOf();
    }
    return 1;
  }

  bool GenBinary(const Expr& expr) {
    const std::string& op = expr.text;
    const Type* at = expr.args[0]->type;
    const Type* bt = expr.args[1]->type;

    if (op == "&&" || op == "||") {
      // Short-circuit, producing 0/1.
      if (!GenValue(*expr.args[0])) {
        return false;
      }
      int jshort = Emit(op == "&&" ? Op::kJz : Op::kJnz);
      if (!GenValue(*expr.args[1])) {
        return false;
      }
      Emit(Op::kConstInt, 0);
      Emit(Op::kNe);
      int jend = Emit(Op::kJmp);
      Patch(jshort, Here());
      Emit(Op::kConstInt, op == "&&" ? 0 : 1);
      Patch(jend, Here());
      return true;
    }

    bool a_ptr = at->IsPointer() || at->IsArray();
    bool b_ptr = bt->IsPointer() || bt->IsArray();

    if ((op == "+" || op == "-") && a_ptr && !b_ptr) {
      if (!GenValue(*expr.args[0]) || !GenValue(*expr.args[1])) {
        return false;
      }
      int scale = PointerScale(at);
      if (scale != 1) {
        Emit(Op::kConstInt, scale);
        Emit(Op::kMul);
      }
      Emit(op == "+" ? Op::kAdd : Op::kSub);
      return true;
    }
    if (op == "+" && !a_ptr && b_ptr) {
      if (!GenValue(*expr.args[0])) {
        return false;
      }
      int scale = PointerScale(bt);
      if (scale != 1) {
        Emit(Op::kConstInt, scale);
        Emit(Op::kMul);
      }
      if (!GenValue(*expr.args[1])) {
        return false;
      }
      Emit(Op::kAdd);
      return true;
    }
    if (op == "-" && a_ptr && b_ptr) {
      if (!GenValue(*expr.args[0]) || !GenValue(*expr.args[1])) {
        return false;
      }
      Emit(Op::kSub);
      int scale = PointerScale(at);
      if (scale != 1) {
        Emit(Op::kConstInt, scale);
        Emit(Op::kDivS);
      }
      return true;
    }

    if (!GenValue(*expr.args[0]) || !GenValue(*expr.args[1])) {
      return false;
    }
    bool is_unsigned = at->kind == Type::Kind::kUnsigned || bt->kind == Type::Kind::kUnsigned ||
                       a_ptr || b_ptr;
    if (op == "+") {
      Emit(Op::kAdd);
    } else if (op == "-") {
      Emit(Op::kSub);
    } else if (op == "*") {
      Emit(Op::kMul);
    } else if (op == "/") {
      Emit(is_unsigned ? Op::kDivU : Op::kDivS);
    } else if (op == "%") {
      Emit(is_unsigned ? Op::kModU : Op::kModS);
    } else if (op == "<<") {
      Emit(Op::kShl);
    } else if (op == ">>") {
      Emit(at->kind == Type::Kind::kUnsigned ? Op::kShrU : Op::kShrS);
    } else if (op == "&") {
      Emit(Op::kAnd);
    } else if (op == "|") {
      Emit(Op::kOr);
    } else if (op == "^") {
      Emit(Op::kXor);
    } else if (op == "==") {
      Emit(Op::kEq);
    } else if (op == "!=") {
      Emit(Op::kNe);
    } else if (op == "<") {
      Emit(is_unsigned ? Op::kLtU : Op::kLtS);
    } else if (op == "<=") {
      Emit(is_unsigned ? Op::kLeU : Op::kLeS);
    } else if (op == ">") {
      Emit(is_unsigned ? Op::kGtU : Op::kGtS);
    } else if (op == ">=") {
      Emit(is_unsigned ? Op::kGeU : Op::kGeS);
    } else {
      diags_.Error(expr.loc, "unsupported binary operator '" + op + "'");
      return false;
    }
    return true;
  }

  bool GenAssign(const Expr& expr, bool need_value) {
    const Expr& lhs = *expr.args[0];
    const Expr& rhs = *expr.args[1];
    const LocalSlot* local = AsLocal(lhs);

    auto gen_rhs_combined = [&](bool lhs_on_stack_is_value) -> bool {
      // For compound ops the current lhs value is on the stack; compute value OP rhs.
      (void)lhs_on_stack_is_value;
      if (!GenValue(rhs)) {
        return false;
      }
      std::string op = expr.text.substr(0, expr.text.size() - 1);
      // Pointer += integer scaling.
      if (lhs.type->IsPointer() && (op == "+" || op == "-")) {
        int scale = PointerScale(lhs.type);
        if (scale != 1) {
          Emit(Op::kConstInt, scale);
          Emit(Op::kMul);
        }
      }
      if (op == "+") {
        Emit(Op::kAdd);
      } else if (op == "-") {
        Emit(Op::kSub);
      } else if (op == "*") {
        Emit(Op::kMul);
      } else if (op == "/") {
        Emit(lhs.type->kind == Type::Kind::kUnsigned ? Op::kDivU : Op::kDivS);
      } else if (op == "%") {
        Emit(lhs.type->kind == Type::Kind::kUnsigned ? Op::kModU : Op::kModS);
      } else if (op == "&") {
        Emit(Op::kAnd);
      } else if (op == "|") {
        Emit(Op::kOr);
      } else if (op == "^") {
        Emit(Op::kXor);
      } else if (op == "<<") {
        Emit(Op::kShl);
      } else if (op == ">>") {
        Emit(lhs.type->kind == Type::Kind::kUnsigned ? Op::kShrU : Op::kShrS);
      }
      return true;
    };

    if (local != nullptr) {
      // Local variable: register-like store.
      if (expr.text == "=") {
        if (!GenValue(rhs)) {
          return false;
        }
      } else {
        Emit(Op::kLoadLocal, local->offset, SlotSize(local->type));
        if (local->type->kind == Type::Kind::kChar) {
          Emit(Op::kSext8);
        }
        if (!gen_rhs_combined(true)) {
          return false;
        }
      }
      if (need_value) {
        Emit(Op::kDup);
      }
      Emit(Op::kStoreLocal, local->offset, SlotSize(local->type));
      return true;
    }

    // Memory lvalue: compute address, keep it in a scratch slot if needed twice.
    if (expr.text == "=") {
      if (!GenAddr(lhs)) {
        return false;
      }
      if (!GenValue(rhs)) {
        return false;
      }
      if (need_value) {
        int scratch = Scratch();
        Emit(Op::kStoreLocal, scratch, kWordSize);
        Emit(Op::kLoadLocal, scratch, kWordSize);
        EmitStoreMem(lhs.type);
        Emit(Op::kLoadLocal, scratch, kWordSize);
        return true;
      }
      EmitStoreMem(lhs.type);
      return true;
    }
    // Compound op on memory: addr -> scratch; load; combine; store.
    int addr = Scratch();
    if (!GenAddr(lhs)) {
      return false;
    }
    Emit(Op::kStoreLocal, addr, kWordSize);
    Emit(Op::kLoadLocal, addr, kWordSize);
    Emit(Op::kLoadLocal, addr, kWordSize);
    EmitLoadMem(lhs.type);
    if (!gen_rhs_combined(true)) {
      return false;
    }
    if (need_value) {
      int value = Scratch();
      Emit(Op::kStoreLocal, value, kWordSize);
      Emit(Op::kLoadLocal, value, kWordSize);
      EmitStoreMem(lhs.type);
      Emit(Op::kLoadLocal, value, kWordSize);
      return true;
    }
    EmitStoreMem(lhs.type);
    return true;
  }

  bool GenIncDec(const Expr& expr, bool need_value) {
    const Expr& target = *expr.args[0];
    bool is_inc = expr.text == "++";
    bool prefix = expr.int_value != 0;
    int step = 1;
    if (target.type->IsPointer()) {
      step = PointerScale(target.type);
    }
    const LocalSlot* local = AsLocal(target);
    if (local != nullptr) {
      Emit(Op::kLoadLocal, local->offset, SlotSize(local->type));
      if (local->type->kind == Type::Kind::kChar) {
        Emit(Op::kSext8);
      }
      if (need_value && !prefix) {
        Emit(Op::kDup);  // old value result
      }
      Emit(Op::kConstInt, step);
      Emit(is_inc ? Op::kAdd : Op::kSub);
      if (need_value && prefix) {
        Emit(Op::kDup);
      }
      Emit(Op::kStoreLocal, local->offset, SlotSize(local->type));
      return true;
    }
    // Memory target.
    int addr = Scratch();
    if (!GenAddr(target)) {
      return false;
    }
    Emit(Op::kStoreLocal, addr, kWordSize);
    Emit(Op::kLoadLocal, addr, kWordSize);   // address for the store
    Emit(Op::kLoadLocal, addr, kWordSize);   // address for the load
    EmitLoadMem(target.type);
    if (need_value && !prefix) {
      int old = Scratch();
      Emit(Op::kDup);
      Emit(Op::kStoreLocal, old, kWordSize);
      Emit(Op::kConstInt, step);
      Emit(is_inc ? Op::kAdd : Op::kSub);
      EmitStoreMem(target.type);
      Emit(Op::kLoadLocal, old, kWordSize);
      return true;
    }
    Emit(Op::kConstInt, step);
    Emit(is_inc ? Op::kAdd : Op::kSub);
    if (need_value) {  // prefix
      int val = Scratch();
      Emit(Op::kDup);
      Emit(Op::kStoreLocal, val, kWordSize);
      EmitStoreMem(target.type);
      Emit(Op::kLoadLocal, val, kWordSize);
      return true;
    }
    EmitStoreMem(target.type);
    return true;
  }

  bool GenCall(const Expr& expr, bool need_value) {
    const Expr& callee = *expr.args[0];
    int argc = static_cast<int>(expr.args.size()) - 1;
    for (int i = 0; i < argc; ++i) {
      if (!GenValue(*expr.args[i + 1])) {
        return false;
      }
    }
    bool returns_value = expr.type != nullptr && !expr.type->IsVoid();
    bool direct = callee.kind == Expr::Kind::kIdent && FindLocal(callee.text) == nullptr &&
                  info_.functions.count(callee.text) > 0;
    if (direct) {
      Emit(Op::kCall, object_.AddUndefined(callee.text), MakeCallB(argc, returns_value));
    } else {
      if (!GenValue(callee)) {
        return false;
      }
      Emit(Op::kCallIndirect, 0, MakeCallB(argc, returns_value));
    }
    if (returns_value && !need_value) {
      Emit(Op::kPop);
    } else if (!returns_value && need_value) {
      Emit(Op::kConstInt, 0);  // void used in value position (sema warned/errored)
    }
    return true;
  }

  // A fresh word-sized scratch slot (not reused across needs; frames are cheap).
  int Scratch() { return AllocSlot(kWordSize, kWordSize); }

  const TranslationUnit& unit_;
  const SemaInfo& info_;
  TypeTable& types_;
  Diagnostics& diags_;
  ObjectFile object_;

  std::map<std::string, int> string_symbols_;
  std::set<std::string> seen_globals_;

  // Per-function state.
  std::vector<Insn> code_;
  ScopedMap<LocalSlot> locals_;  // keys view the AST's names
  int frame_size_ = 0;
  std::vector<std::vector<int>> break_targets_;
  std::vector<std::vector<int>> continue_targets_;
};

}  // namespace

Result<ObjectFile> CompileTranslationUnit(const TranslationUnit& unit, const SemaInfo& info,
                                          TypeTable& types, const CodegenOptions& options,
                                          const std::string& object_name, Diagnostics& diags) {
  UnitCompiler compiler(unit, info, types, object_name, diags);
  Result<ObjectFile> object = compiler.Run();
  if (!object.ok()) {
    return object;
  }
  if (options.opt_level >= 1) {
    OptimizeObject(object.value(), options);
  }
  return object;
}

}  // namespace knit
