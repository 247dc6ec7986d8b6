#include "src/minic/sema.h"

#include <cassert>
#include <vector>

#include "src/support/scoped_map.h"

namespace knit {
namespace {

class Sema {
 public:
  Sema(TranslationUnit& unit, TypeTable& types, Diagnostics& diags)
      : unit_(unit), types_(types), diags_(diags) {}

  Result<SemaInfo> Run() {
    if (!CollectToplevel()) {
      return Result<SemaInfo>::Failure();
    }
    DeclareAllocBuiltins();
    for (Decl& decl : unit_.decls) {
      if (decl.kind == Decl::Kind::kFunction && decl.is_definition) {
        if (!CheckFunction(decl)) {
          return Result<SemaInfo>::Failure();
        }
      }
      if (decl.kind == Decl::Kind::kGlobalVar && !decl.is_extern) {
        if (!CheckGlobalInit(decl)) {
          return Result<SemaInfo>::Failure();
        }
      }
    }
    // Undefined = referenced but not defined here.
    for (const auto& [name, type] : info_.functions) {
      if (info_.defined_functions.count(name) == 0 && referenced_.count(name) > 0) {
        info_.undefined.insert(name);
      }
    }
    for (const auto& [name, type] : info_.globals) {
      if (info_.defined_globals.count(name) == 0 && referenced_.count(name) > 0) {
        info_.undefined.insert(name);
      }
    }
    if (diags_.has_errors()) {
      return Result<SemaInfo>::Failure();
    }
    return std::move(info_);
  }

 private:
  // ---- symbol collection ---------------------------------------------------

  bool CollectToplevel() {
    bool ok = true;
    for (const Decl& decl : unit_.decls) {
      if (decl.kind == Decl::Kind::kFunction) {
        auto it = info_.functions.find(decl.name);
        if (it != info_.functions.end() && it->second != decl.func_type) {
          diags_.Error(decl.loc, "conflicting declarations of function '" + decl.name + "': " +
                                     it->second->ToString() + " vs " +
                                     decl.func_type->ToString());
          ok = false;
          continue;
        }
        if (info_.globals.count(decl.name) > 0) {
          diags_.Error(decl.loc, "'" + decl.name + "' declared as both function and variable");
          ok = false;
          continue;
        }
        info_.functions[decl.name] = decl.func_type;
        if (decl.is_definition) {
          if (!info_.defined_functions.insert(decl.name).second) {
            diags_.Error(decl.loc, "function '" + decl.name + "' defined more than once");
            ok = false;
          }
        }
      } else if (decl.kind == Decl::Kind::kGlobalVar) {
        auto it = info_.globals.find(decl.name);
        if (it != info_.globals.end() && it->second != decl.var_type) {
          diags_.Error(decl.loc, "conflicting declarations of global '" + decl.name + "': " +
                                     it->second->ToString() + " vs " + decl.var_type->ToString());
          ok = false;
          continue;
        }
        if (info_.functions.count(decl.name) > 0) {
          diags_.Error(decl.loc, "'" + decl.name + "' declared as both function and variable");
          ok = false;
          continue;
        }
        info_.globals[decl.name] = decl.var_type;
        if (!decl.is_extern) {
          if (!info_.defined_globals.insert(decl.name).second) {
            diags_.Error(decl.loc, "global '" + decl.name + "' defined more than once");
            ok = false;
          }
          if (decl.var_type->IsStruct() && !decl.var_type->complete) {
            diags_.Error(decl.loc, "global '" + decl.name + "' has incomplete type " +
                                       decl.var_type->ToString());
            ok = false;
          }
        }
      }
    }
    return ok;
  }

  // Implicit allocator builtins: `malloc(n)` / `free(p)` are callable without a
  // declaration. They lower to ordinary undefined-symbol calls, which the link
  // stage resolves against the unit's `Alloc` bundle import exactly like any
  // other cross-component call (so devirtualization, cross-unit inlining, and
  // PGO apply unchanged). A TU's own declaration or definition — the allocator
  // units themselves define malloc/free — always wins; the builtins are seeded
  // only when the name is entirely absent.
  void DeclareAllocBuiltins() {
    if (info_.functions.count("malloc") == 0 && info_.globals.count("malloc") == 0) {
      info_.functions["malloc"] = types_.Function(
          types_.PointerTo(types_.Void()), {FuncParam{types_.Unsigned()}}, false);
    }
    if (info_.functions.count("free") == 0 && info_.globals.count("free") == 0) {
      info_.functions["free"] = types_.Function(
          types_.Void(), {FuncParam{types_.PointerTo(types_.Void())}}, false);
    }
  }

  // ---- scopes ----------------------------------------------------------------

  void PushScope() { locals_.Push(); }
  void PopScope() { locals_.Pop(); }

  bool DeclareLocal(const std::string& name, const Type* type, const SourceLoc& loc) {
    if (!locals_.Declare(name, type)) {
      diags_.Error(loc, "redeclaration of '" + name + "' in the same scope");
      return false;
    }
    return true;
  }

  const Type* LookupLocal(const std::string& name) const {
    const Type* const* type = locals_.Find(name);
    return type != nullptr ? *type : nullptr;
  }

  // ---- function bodies -------------------------------------------------------

  bool CheckFunction(Decl& decl) {
    current_return_ = decl.func_type->base;
    locals_.Clear();
    PushScope();
    for (const ParamDecl& param : decl.params) {
      if (!DeclareLocal(param.name, param.type, decl.loc)) {
        return false;
      }
    }
    bool ok = CheckStmt(*decl.body);
    PopScope();
    return ok;
  }

  bool CheckStmt(Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kEmpty:
      case Stmt::Kind::kBreak:
      case Stmt::Kind::kContinue:
        return true;
      case Stmt::Kind::kExpr:
        return CheckExpr(*stmt.exprs[0]) != nullptr;
      case Stmt::Kind::kIf: {
        bool ok = CheckScalarExpr(*stmt.exprs[0]);
        ok &= CheckStmt(*stmt.stmts[0]);
        if (stmt.stmts.size() > 1) {
          ok &= CheckStmt(*stmt.stmts[1]);
        }
        return ok;
      }
      case Stmt::Kind::kWhile: {
        bool ok = CheckScalarExpr(*stmt.exprs[0]);
        return CheckStmt(*stmt.stmts[0]) && ok;
      }
      case Stmt::Kind::kFor: {
        PushScope();
        bool ok = true;
        if (stmt.stmts[0]) {
          ok &= CheckStmt(*stmt.stmts[0]);
        }
        if (stmt.exprs[0]) {
          ok &= CheckScalarExpr(*stmt.exprs[0]);
        }
        if (stmt.exprs[1]) {
          ok &= CheckExpr(*stmt.exprs[1]) != nullptr;
        }
        ok &= CheckStmt(*stmt.stmts[1]);
        PopScope();
        return ok;
      }
      case Stmt::Kind::kReturn: {
        if (stmt.exprs.empty()) {
          if (!current_return_->IsVoid()) {
            diags_.Error(stmt.loc, "return without a value in a non-void function");
            return false;
          }
          return true;
        }
        const Type* type = CheckExpr(*stmt.exprs[0]);
        if (type == nullptr) {
          return false;
        }
        if (current_return_->IsVoid()) {
          diags_.Error(stmt.loc, "returning a value from a void function");
          return false;
        }
        return RequireConvertible(type, current_return_, stmt.loc, "return value");
      }
      case Stmt::Kind::kBlock: {
        PushScope();
        bool ok = true;
        for (StmtPtr& child : stmt.stmts) {
          ok &= CheckStmt(*child);
        }
        PopScope();
        return ok;
      }
      case Stmt::Kind::kLocalDecl: {
        if (stmt.decl_type->IsVoid() ||
            (stmt.decl_type->IsStruct() && !stmt.decl_type->complete)) {
          diags_.Error(stmt.loc, "local '" + stmt.text + "' has invalid type " +
                                     stmt.decl_type->ToString());
          return false;
        }
        bool ok = DeclareLocal(stmt.text, stmt.decl_type, stmt.loc);
        if (!stmt.exprs.empty() && stmt.exprs[0]) {
          const Type* init = CheckExpr(*stmt.exprs[0]);
          if (init == nullptr) {
            return false;
          }
          ok &= RequireConvertible(init, stmt.decl_type, stmt.loc,
                                   "initializer of '" + stmt.text + "'");
        }
        return ok;
      }
    }
    return true;
  }

  bool CheckScalarExpr(Expr& expr) {
    const Type* type = CheckExpr(expr);
    if (type == nullptr) {
      return false;
    }
    if (!Decayed(type)->IsScalar()) {
      diags_.Error(expr.loc, "condition has non-scalar type " + type->ToString());
      return false;
    }
    return true;
  }

  // ---- global initializers ---------------------------------------------------

  bool CheckGlobalInit(Decl& decl) {
    bool ok = true;
    if (decl.init) {
      const Type* type = CheckExpr(*decl.init);
      if (type == nullptr) {
        return false;
      }
      ok &= RequireConvertible(type, decl.var_type, decl.loc,
                               "initializer of '" + decl.name + "'");
      ok &= RequireConstant(*decl.init);
    }
    for (ExprPtr& element : decl.init_list) {
      const Type* type = CheckExpr(*element);
      if (type == nullptr) {
        return false;
      }
      const Type* target = decl.var_type->IsArray() ? decl.var_type->base : nullptr;
      if (target != nullptr) {
        ok &= RequireConvertible(type, target, element->loc,
                                 "initializer element of '" + decl.name + "'");
      }
      ok &= RequireConstant(*element);
    }
    if (!decl.init_list.empty() && decl.var_type->IsArray() &&
        static_cast<int>(decl.init_list.size()) > decl.var_type->array_count) {
      diags_.Error(decl.loc, "too many initializers for '" + decl.name + "'");
      ok = false;
    }
    if (!decl.init_list.empty() && decl.var_type->IsStruct()) {
      if (decl.init_list.size() > decl.var_type->fields.size()) {
        diags_.Error(decl.loc, "too many initializers for '" + decl.name + "'");
        ok = false;
      }
    }
    return ok;
  }

  // Static initializers must be link-time constants: integer constant expressions,
  // string literals, or addresses of globals/functions (possibly with a cast).
  bool RequireConstant(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
      case Expr::Kind::kStrLit:
        return true;
      case Expr::Kind::kIdent:
        // A function name or global array used as a value is an address constant.
        if (info_.functions.count(expr.text) > 0) {
          return true;
        }
        if (expr.type != nullptr && expr.type->IsArray() &&
            info_.globals.count(expr.text) > 0) {
          return true;
        }
        diags_.Error(expr.loc, "initializer element '" + expr.text + "' is not constant");
        return false;
      case Expr::Kind::kUnary:
        if (expr.text == "&" && expr.args[0]->kind == Expr::Kind::kIdent) {
          return true;  // address of a global (locals can't appear at file scope)
        }
        return RequireConstant(*expr.args[0]);
      case Expr::Kind::kBinary:
        return RequireConstant(*expr.args[0]) && RequireConstant(*expr.args[1]);
      case Expr::Kind::kCast:
      case Expr::Kind::kSizeof:
        return expr.args.empty() || RequireConstant(*expr.args[0]);
      default:
        diags_.Error(expr.loc, "initializer is not a link-time constant");
        return false;
    }
  }

  // ---- expression checking ---------------------------------------------------

  // Array-of-T used as a value decays to pointer-to-T.
  const Type* Decayed(const Type* type) const {
    if (type->IsArray()) {
      return types_.PointerTo(type->base);
    }
    if (type->IsFunc()) {
      return types_.PointerTo(type);
    }
    return type;
  }

  bool RequireConvertible(const Type* from, const Type* to, const SourceLoc& loc,
                          const std::string& what) {
    from = Decayed(from);
    to = Decayed(to);
    if (from == to) {
      return true;
    }
    if (from->IsInteger() && to->IsInteger()) {
      return true;
    }
    if (from->IsPointer() && to->IsPointer()) {
      // void* converts freely; otherwise warn but accept (C is C).
      if (from->base->IsVoid() || to->base->IsVoid()) {
        return true;
      }
      diags_.Warning(loc, what + " converts " + from->ToString() + " to " + to->ToString() +
                              " without a cast");
      return true;
    }
    if (from->IsInteger() && to->IsPointer()) {
      diags_.Warning(loc, what + " makes pointer from integer without a cast");
      return true;
    }
    if (from->IsPointer() && to->IsInteger()) {
      diags_.Warning(loc, what + " makes integer from pointer without a cast");
      return true;
    }
    diags_.Error(loc, what + ": cannot convert " + from->ToString() + " to " + to->ToString());
    return false;
  }

  const Type* Arith(const Type* a, const Type* b) const {
    if (a->kind == Type::Kind::kUnsigned || b->kind == Type::Kind::kUnsigned) {
      return types_.Unsigned();
    }
    return types_.Int();
  }

  // Returns the annotated type, or nullptr after reporting.
  const Type* CheckExpr(Expr& expr) {
    const Type* type = CheckExprInner(expr);
    if (type != nullptr) {
      expr.type = type;
    }
    return type;
  }

  const Type* CheckExprInner(Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
        expr.is_lvalue = false;
        return types_.Int();
      case Expr::Kind::kStrLit:
        expr.is_lvalue = false;
        return types_.PointerTo(types_.Char());
      case Expr::Kind::kIdent: {
        const Type* local = LookupLocal(expr.text);
        if (local != nullptr) {
          expr.is_lvalue = true;
          return local;
        }
        auto git = info_.globals.find(expr.text);
        if (git != info_.globals.end()) {
          referenced_.insert(expr.text);
          expr.is_lvalue = true;
          return git->second;
        }
        auto fit = info_.functions.find(expr.text);
        if (fit != info_.functions.end()) {
          referenced_.insert(expr.text);
          if (!suppress_function_addr_) {
            // Used as a value (stored, passed, compared): its address escapes.
            info_.address_taken.insert(expr.text);
          }
          expr.is_lvalue = false;
          return fit->second;  // function designator
        }
        diags_.Error(expr.loc, "use of undeclared identifier '" + expr.text + "'");
        return nullptr;
      }
      case Expr::Kind::kUnary:
        return CheckUnary(expr);
      case Expr::Kind::kBinary:
        return CheckBinary(expr);
      case Expr::Kind::kAssign:
        return CheckAssign(expr);
      case Expr::Kind::kCall:
        return CheckCall(expr);
      case Expr::Kind::kIndex: {
        const Type* base = CheckExpr(*expr.args[0]);
        const Type* index = CheckExpr(*expr.args[1]);
        if (base == nullptr || index == nullptr) {
          return nullptr;
        }
        base = Decayed(base);
        if (!base->IsPointer()) {
          diags_.Error(expr.loc, "indexed expression has type " + base->ToString() +
                                     ", not pointer/array");
          return nullptr;
        }
        if (!Decayed(index)->IsInteger()) {
          diags_.Error(expr.loc, "array index has non-integer type " + index->ToString());
          return nullptr;
        }
        expr.is_lvalue = true;
        return base->base;
      }
      case Expr::Kind::kMember: {
        const Type* base = CheckExpr(*expr.args[0]);
        if (base == nullptr) {
          return nullptr;
        }
        const Type* struct_type = nullptr;
        if (expr.member_arrow) {
          base = Decayed(base);
          if (!base->IsPointer() || !base->base->IsStruct()) {
            diags_.Error(expr.loc, "'->' applied to non-pointer-to-struct type " +
                                       base->ToString());
            return nullptr;
          }
          struct_type = base->base;
        } else {
          if (!base->IsStruct()) {
            diags_.Error(expr.loc, "'.' applied to non-struct type " + base->ToString());
            return nullptr;
          }
          struct_type = base;
        }
        if (!struct_type->complete) {
          diags_.Error(expr.loc, "member access into incomplete " + struct_type->ToString());
          return nullptr;
        }
        const StructField* field = struct_type->FindField(expr.text);
        if (field == nullptr) {
          diags_.Error(expr.loc, struct_type->ToString() + " has no member '" + expr.text + "'");
          return nullptr;
        }
        expr.is_lvalue = true;
        return field->type;
      }
      case Expr::Kind::kCast: {
        const Type* from = CheckExpr(*expr.args[0]);
        if (from == nullptr) {
          return nullptr;
        }
        expr.is_lvalue = false;
        return expr.cast_type;
      }
      case Expr::Kind::kCond: {
        if (!CheckScalarExpr(*expr.args[0])) {
          return nullptr;
        }
        const Type* a = CheckExpr(*expr.args[1]);
        const Type* b = CheckExpr(*expr.args[2]);
        if (a == nullptr || b == nullptr) {
          return nullptr;
        }
        a = Decayed(a);
        b = Decayed(b);
        expr.is_lvalue = false;
        if (a == b) {
          return a;
        }
        if (a->IsInteger() && b->IsInteger()) {
          return Arith(a, b);
        }
        if (a->IsPointer() && b->IsPointer()) {
          return a;
        }
        diags_.Error(expr.loc, "incompatible conditional branches: " + a->ToString() + " vs " +
                                   b->ToString());
        return nullptr;
      }
      case Expr::Kind::kSizeof: {
        if (expr.sizeof_type == nullptr) {
          const Type* operand = CheckExpr(*expr.args[0]);
          if (operand == nullptr) {
            return nullptr;
          }
          expr.sizeof_type = operand;
          expr.args.clear();
        }
        if (expr.sizeof_type->SizeOf() == 0 && !expr.sizeof_type->IsVoid()) {
          diags_.Error(expr.loc, "sizeof applied to incomplete type " +
                                     expr.sizeof_type->ToString());
          return nullptr;
        }
        expr.is_lvalue = false;
        return types_.Unsigned();
      }
      case Expr::Kind::kIncDec: {
        const Type* operand = CheckExpr(*expr.args[0]);
        if (operand == nullptr) {
          return nullptr;
        }
        if (!expr.args[0]->is_lvalue) {
          diags_.Error(expr.loc, "'" + expr.text + "' requires an lvalue");
          return nullptr;
        }
        if (!operand->IsScalar()) {
          diags_.Error(expr.loc, "'" + expr.text + "' on non-scalar type " +
                                     operand->ToString());
          return nullptr;
        }
        expr.is_lvalue = false;
        return operand;
      }
    }
    return nullptr;
  }

  const Type* CheckUnary(Expr& expr) {
    if (expr.text == "&") {
      const Type* operand = CheckExpr(*expr.args[0]);
      if (operand == nullptr) {
        return nullptr;
      }
      if (operand->IsFunc()) {
        // &function — record address-taken.
        if (expr.args[0]->kind == Expr::Kind::kIdent) {
          info_.address_taken.insert(expr.args[0]->text);
        }
        expr.is_lvalue = false;
        return types_.PointerTo(operand);
      }
      if (!expr.args[0]->is_lvalue) {
        diags_.Error(expr.loc, "'&' requires an lvalue");
        return nullptr;
      }
      expr.is_lvalue = false;
      return types_.PointerTo(operand);
    }
    const Type* operand = CheckExpr(*expr.args[0]);
    if (operand == nullptr) {
      return nullptr;
    }
    if (expr.text == "*") {
      const Type* decayed = Decayed(operand);
      if (!decayed->IsPointer()) {
        diags_.Error(expr.loc, "'*' applied to non-pointer type " + operand->ToString());
        return nullptr;
      }
      if (decayed->base->IsFunc()) {
        expr.is_lvalue = false;
        return decayed->base;  // *fp is still a function designator
      }
      if (decayed->base->IsVoid()) {
        diags_.Error(expr.loc, "dereferencing 'void *'");
        return nullptr;
      }
      expr.is_lvalue = true;
      return decayed->base;
    }
    const Type* decayed = Decayed(operand);
    if (expr.text == "!") {
      if (!decayed->IsScalar()) {
        diags_.Error(expr.loc, "'!' on non-scalar type " + operand->ToString());
        return nullptr;
      }
      expr.is_lvalue = false;
      return types_.Int();
    }
    // "-" and "~"
    if (!decayed->IsInteger()) {
      diags_.Error(expr.loc, "'" + expr.text + "' on non-integer type " + operand->ToString());
      return nullptr;
    }
    expr.is_lvalue = false;
    return decayed->kind == Type::Kind::kUnsigned ? types_.Unsigned() : types_.Int();
  }

  const Type* CheckBinary(Expr& expr) {
    const Type* a = CheckExpr(*expr.args[0]);
    const Type* b = CheckExpr(*expr.args[1]);
    if (a == nullptr || b == nullptr) {
      return nullptr;
    }
    a = Decayed(a);
    b = Decayed(b);
    const std::string& op = expr.text;
    expr.is_lvalue = false;

    if (op == "&&" || op == "||") {
      if (!a->IsScalar() || !b->IsScalar()) {
        diags_.Error(expr.loc, "'" + op + "' on non-scalar operands");
        return nullptr;
      }
      return types_.Int();
    }
    if (op == "==" || op == "!=" || op == "<" || op == ">" || op == "<=" || op == ">=") {
      if (a->IsPointer() != b->IsPointer()) {
        // pointer vs integer: only sensible against a null constant
        const Expr& int_side = a->IsPointer() ? *expr.args[1] : *expr.args[0];
        if (!(int_side.kind == Expr::Kind::kIntLit && int_side.int_value == 0)) {
          diags_.Warning(expr.loc, "comparison between pointer and integer");
        }
      }
      if (!a->IsScalar() || !b->IsScalar()) {
        diags_.Error(expr.loc, "comparison of non-scalar operands");
        return nullptr;
      }
      return types_.Int();
    }
    if (op == "+" || op == "-") {
      if (a->IsPointer() && b->IsInteger()) {
        if (a->base->SizeOf() == 0) {
          diags_.Error(expr.loc, "arithmetic on pointer to incomplete type " + a->ToString());
          return nullptr;
        }
        return a;
      }
      if (op == "+" && a->IsInteger() && b->IsPointer()) {
        if (b->base->SizeOf() == 0) {
          diags_.Error(expr.loc, "arithmetic on pointer to incomplete type " + b->ToString());
          return nullptr;
        }
        return b;
      }
      if (op == "-" && a->IsPointer() && b->IsPointer()) {
        if (a != b) {
          diags_.Warning(expr.loc, "subtraction of pointers to different types");
        }
        return types_.Int();
      }
      if (a->IsInteger() && b->IsInteger()) {
        return Arith(a, b);
      }
      diags_.Error(expr.loc, "invalid operands to '" + op + "': " + a->ToString() + " and " +
                                 b->ToString());
      return nullptr;
    }
    // * / % << >> & | ^  — integer only
    if (!a->IsInteger() || !b->IsInteger()) {
      diags_.Error(expr.loc, "invalid operands to '" + op + "': " + a->ToString() + " and " +
                                 b->ToString());
      return nullptr;
    }
    if (op == "<<" || op == ">>") {
      return a;
    }
    return Arith(a, b);
  }

  const Type* CheckAssign(Expr& expr) {
    const Type* lhs = CheckExpr(*expr.args[0]);
    const Type* rhs = CheckExpr(*expr.args[1]);
    if (lhs == nullptr || rhs == nullptr) {
      return nullptr;
    }
    if (!expr.args[0]->is_lvalue) {
      diags_.Error(expr.loc, "assignment target is not an lvalue");
      return nullptr;
    }
    if (lhs->IsArray() || lhs->IsStruct()) {
      diags_.Error(expr.loc, "cannot assign to " + lhs->ToString() +
                                 " (MiniC has no aggregate assignment; use fields or memcpy)");
      return nullptr;
    }
    if (expr.text == "=") {
      if (!RequireConvertible(rhs, lhs, expr.loc, "assignment")) {
        return nullptr;
      }
    } else {
      // Compound: lhs OP= rhs requires the underlying binary op to make sense.
      std::string op = expr.text.substr(0, expr.text.size() - 1);
      bool pointer_step = lhs->IsPointer() && (op == "+" || op == "-") &&
                          Decayed(rhs)->IsInteger();
      if (!pointer_step && (!Decayed(lhs)->IsInteger() || !Decayed(rhs)->IsInteger())) {
        diags_.Error(expr.loc, "invalid compound assignment '" + expr.text + "' on " +
                                   lhs->ToString());
        return nullptr;
      }
    }
    expr.is_lvalue = false;
    return lhs;
  }

  const Type* CheckCall(Expr& expr) {
    Expr& callee = *expr.args[0];
    // A direct call through a function name is not an address-taking use.
    bool direct = callee.kind == Expr::Kind::kIdent && LookupLocal(callee.text) == nullptr &&
                  info_.functions.count(callee.text) > 0;
    suppress_function_addr_ = direct;
    const Type* callee_type = CheckExpr(callee);
    suppress_function_addr_ = false;
    if (callee_type == nullptr) {
      return nullptr;
    }
    const Type* func = nullptr;
    if (callee_type->IsFunc()) {
      func = callee_type;
    } else if (callee_type->IsPointer() && callee_type->base->IsFunc()) {
      func = callee_type->base;
    } else {
      diags_.Error(expr.loc, "called object has type " + callee_type->ToString() +
                                 ", not a function");
      return nullptr;
    }
    size_t arg_count = expr.args.size() - 1;
    if (func->variadic ? arg_count < func->params.size() : arg_count != func->params.size()) {
      diags_.Error(expr.loc, "call passes " + std::to_string(arg_count) + " arguments; callee "
                             "expects " +
                                 std::to_string(func->params.size()) +
                                 (func->variadic ? "+" : ""));
      return nullptr;
    }
    for (size_t i = 0; i < arg_count; ++i) {
      const Type* arg = CheckExpr(*expr.args[i + 1]);
      if (arg == nullptr) {
        return nullptr;
      }
      if (i < func->params.size()) {
        if (!RequireConvertible(arg, func->params[i].type, expr.args[i + 1]->loc,
                                "argument " + std::to_string(i + 1))) {
          return nullptr;
        }
      } else if (!Decayed(arg)->IsScalar()) {
        diags_.Error(expr.args[i + 1]->loc, "variadic argument must be scalar");
        return nullptr;
      }
    }
    expr.is_lvalue = false;
    return func->base;
  }

  TranslationUnit& unit_;
  TypeTable& types_;
  Diagnostics& diags_;
  SemaInfo info_;
  std::set<std::string> referenced_;
  ScopedMap<const Type*> locals_;  // keys view the AST's names
  const Type* current_return_ = nullptr;
  bool suppress_function_addr_ = false;
};

}  // namespace

Result<SemaInfo> AnalyzeTranslationUnit(TranslationUnit& unit, TypeTable& types,
                                        Diagnostics& diags) {
  return Sema(unit, types, diags).Run();
}

}  // namespace knit
