#include "src/minic/cparser.h"

#include <memory>
#include <unordered_map>

namespace knit {
namespace {

class CParser {
 public:
  CParser(const std::vector<CToken>& tokens, const std::vector<std::string>& files,
          TypeTable& types, Diagnostics& diags)
      : tokens_(tokens), files_(files), types_(types), diags_(diags) {}

  bool ParseInto(TranslationUnit& unit) {
    while (!At(CTok::kEnd)) {
      if (!ParseTopDecl(unit)) {
        return false;
      }
    }
    return true;
  }

 private:
  // ---- token helpers -------------------------------------------------------

  const CToken& Cur() const { return tokens_[pos_]; }
  // The token `n` past the current one (the end token past the end).
  const CToken& Ahead(size_t n) const {
    return pos_ + n < tokens_.size() ? tokens_[pos_ + n] : tokens_.back();
  }
  bool At(CTok kind) const { return Cur().kind == kind; }
  const CToken& Take() { return tokens_[pos_++]; }

  SourceLoc Loc(const CToken& token) const {
    return SourceLoc{files_[token.file], token.line, token.column};
  }

  bool Expect(CTok kind, const char* context) {
    if (!At(kind)) {
      diags_.Error(Loc(Cur()), std::string("expected '") + CTokSpelling(kind) + "' " + context +
                                   ", found " + Describe(Cur()));
      return false;
    }
    ++pos_;
    return true;
  }

  static std::string Describe(const CToken& token) {
    switch (token.kind) {
      case CTok::kIdent:
        return "'" + std::string(token.text) + "'";
      case CTok::kIntLit:
      case CTok::kCharLit:
        return "integer literal";
      case CTok::kStrLit:
        return "string literal";
      case CTok::kEnd:
        return "end of input";
      default:
        return std::string("'") + CTokSpelling(token.kind) + "'";
    }
  }

  // ---- type parsing --------------------------------------------------------

  bool IsTypeStart(const CToken& token) const {
    switch (token.kind) {
      case CTok::kVoid:
      case CTok::kChar:
      case CTok::kInt:
      case CTok::kUnsigned:
      case CTok::kStruct:
        return true;
      case CTok::kIdent:
        return typedefs_.count(token.text) > 0;
      default:
        return false;
    }
  }

  // Parses the base type: void/char/int/unsigned/struct tag/typedef-name.
  const Type* ParseBaseType() {
    switch (Cur().kind) {
      case CTok::kVoid:
        Take();
        return types_.Void();
      case CTok::kChar:
        Take();
        return types_.Char();
      case CTok::kInt:
        Take();
        return types_.Int();
      case CTok::kUnsigned:
        Take();
        if (At(CTok::kChar)) {
          Take();
          return types_.Char();  // model simplification: unsigned char == char (8-bit)
        }
        if (At(CTok::kInt)) {
          Take();
        }
        return types_.Unsigned();
      case CTok::kStruct:
        Take();
        if (!At(CTok::kIdent)) {
          diags_.Error(Loc(Cur()), "expected struct tag, found " + Describe(Cur()));
          return nullptr;
        }
        return types_.StructFor(std::string(Take().text));
      case CTok::kIdent: {
        auto it = typedefs_.find(Cur().text);
        if (it != typedefs_.end()) {
          Take();
          return it->second;
        }
        break;
      }
      default:
        break;
    }
    diags_.Error(Loc(Cur()), "expected a type, found " + Describe(Cur()));
    return nullptr;
  }

  // C declarator parsing. Returns the complete type and the declared name ("" when
  // `allow_abstract` and no name is present).
  struct Declarator {
    const Type* type = nullptr;
    std::string_view name;
    std::vector<ParamDecl> params;  // set when the outermost constructor is a function
    bool is_function = false;
    bool variadic = false;
  };

  // One array or function suffix of a declarator level.
  struct Suffix {
    int count = -1;  // array element count (-1: from the initializer)
    bool is_function = false;
    bool variadic = false;
    std::vector<ParamDecl> params;
  };

  // One nesting level of a declarator: `'*'* direct suffix*`, where `direct` is
  // the name or a parenthesized inner level.
  struct Level {
    int stars = 0;
    std::vector<Suffix> suffixes;
  };

  struct DeclaratorState {
    std::vector<Level> levels;  // outermost first
    std::string_view name;
    std::vector<ParamDecl> named_params;
    bool have_named_params = false;
    bool variadic_params = false;
  };

  bool ParseDeclarator(const Type* base, bool allow_abstract, Declarator& out) {
    // C declarator semantics: each level, from the outermost in, (1) wraps the
    // incoming type in the level's pointers, (2) applies the level's suffixes
    // right-to-left (so `x[2][3]` is array-2 of array-3), then (3) hands the
    // result to the inner level. Thus `int (*fp)(int)` makes fp a pointer to
    // function, while `int *f(void)` makes f a function returning int*.
    DeclaratorState state;
    if (!ParseDeclaratorLevel(allow_abstract, state)) {
      return false;
    }
    const Type* type = base;
    for (const Level& level : state.levels) {
      for (int i = 0; i < level.stars; ++i) {
        type = types_.PointerTo(type);
      }
      for (auto it = level.suffixes.rbegin(); it != level.suffixes.rend(); ++it) {
        if (!it->is_function) {
          type = types_.ArrayOf(type, it->count);
          continue;
        }
        std::vector<FuncParam> params;
        params.reserve(it->params.size());
        for (const ParamDecl& p : it->params) {
          params.push_back(FuncParam{p.type});
        }
        type = types_.Function(type, std::move(params), it->variadic);
      }
    }
    out.type = type;
    if (out.type == nullptr) {
      return false;
    }
    out.name = state.name;
    out.is_function = state.have_named_params && out.type->IsFunc();
    out.params = std::move(state.named_params);
    out.variadic = state.variadic_params;
    return true;
  }

  bool ParseDeclaratorLevel(bool allow_abstract, DeclaratorState& state) {
    const size_t depth = state.levels.size();
    state.levels.emplace_back();
    while (At(CTok::kStar)) {
      Take();
      ++state.levels[depth].stars;
    }
    bool name_bound_here = false;
    if (At(CTok::kLParen) && IsNestedDeclaratorParen()) {
      Take();
      if (!ParseDeclaratorLevel(allow_abstract, state) ||
          !Expect(CTok::kRParen, "to close declarator")) {
        return false;
      }
    } else if (At(CTok::kIdent)) {
      state.name = Take().text;
      name_bound_here = true;
    } else if (!allow_abstract) {
      diags_.Error(Loc(Cur()), "expected declarator name, found " + Describe(Cur()));
      return false;
    }
    bool first_suffix = true;
    while (true) {
      if (At(CTok::kLBracket)) {
        Take();
        int count = -1;  // unspecified; completed from the initializer
        if (At(CTok::kIntLit) || At(CTok::kCharLit)) {
          count = static_cast<int>(Take().int_value);
        } else if (At(CTok::kIdent)) {
          auto it = enum_consts_.find(Cur().text);
          if (it == enum_consts_.end()) {
            diags_.Error(Loc(Cur()), "array size must be an integer or enum constant");
            return false;
          }
          count = static_cast<int>(it->second);
          Take();
        }
        if (!Expect(CTok::kRBracket, "to close array size")) {
          return false;
        }
        state.levels[depth].suffixes.push_back(Suffix{count, false, false, {}});
        first_suffix = false;
        continue;
      }
      if (At(CTok::kLParen)) {
        Take();
        Suffix suffix;
        suffix.is_function = true;
        if (!ParseParamList(suffix.params, suffix.variadic)) {
          return false;
        }
        if (name_bound_here && first_suffix) {
          // `f(int a, int b)` directly after the name: these are the named
          // parameters of a potential function definition.
          state.named_params = suffix.params;
          state.have_named_params = true;
          state.variadic_params = suffix.variadic;
        }
        first_suffix = false;
        state.levels[depth].suffixes.push_back(std::move(suffix));
        continue;
      }
      return true;
    }
  }

  // Distinguish `(*fp)(...)` style nesting from a parameter list `(void)` /
  // `(int x)`. A nested declarator paren is followed by '*' , '(' or an identifier
  // that is NOT a typedef name.
  bool IsNestedDeclaratorParen() const {
    const CToken& next = Ahead(1);
    if (next.kind == CTok::kStar || next.kind == CTok::kLParen) {
      return true;
    }
    return next.kind == CTok::kIdent && typedefs_.count(next.text) == 0;
  }

  bool ParseParamList(std::vector<ParamDecl>& params, bool& variadic) {
    variadic = false;
    if (At(CTok::kRParen)) {
      Take();
      return true;  // () — unspecified params, treated as (void)
    }
    if (At(CTok::kVoid) && Ahead(1).kind == CTok::kRParen) {
      Take();
      Take();
      return true;
    }
    while (true) {
      if (At(CTok::kEllipsis)) {
        Take();
        variadic = true;
        break;
      }
      const Type* base = ParseBaseType();
      if (base == nullptr) {
        return false;
      }
      Declarator d;
      if (!ParseDeclarator(base, /*allow_abstract=*/true, d)) {
        return false;
      }
      const Type* type = d.type;
      if (type->IsArray()) {
        type = types_.PointerTo(type->base);  // arrays decay in parameters
      }
      params.push_back(ParamDecl{std::string(d.name), type});
      if (At(CTok::kComma)) {
        Take();
        continue;
      }
      break;
    }
    return Expect(CTok::kRParen, "to close parameter list");
  }

  // Parses a type-name (for casts and sizeof): base type + abstract declarator.
  const Type* ParseTypeName() {
    const Type* base = ParseBaseType();
    if (base == nullptr) {
      return nullptr;
    }
    Declarator d;
    if (!ParseDeclarator(base, /*allow_abstract=*/true, d)) {
      return nullptr;
    }
    if (!d.name.empty()) {
      diags_.Error(Loc(Cur()), "type name may not declare '" + std::string(d.name) + "'");
      return nullptr;
    }
    return d.type;
  }

  // ---- top-level declarations ---------------------------------------------

  bool ParseTopDecl(TranslationUnit& unit) {
    if (At(CTok::kTypedef)) {
      return ParseTypedef(unit);
    }
    if (At(CTok::kEnum)) {
      return ParseEnum(unit);
    }
    if (At(CTok::kStruct) && Ahead(1).kind == CTok::kIdent &&
        (Ahead(2).kind == CTok::kLBrace || Ahead(2).kind == CTok::kSemi)) {
      return ParseStructDef(unit);
    }
    bool is_static = false;
    bool is_extern = false;
    while (At(CTok::kStatic) || At(CTok::kExtern)) {
      if (Take().kind == CTok::kStatic) {
        is_static = true;
      } else {
        is_extern = true;
      }
    }
    const Type* base = ParseBaseType();
    if (base == nullptr) {
      return false;
    }
    while (true) {
      Declarator d;
      const CToken& at = Cur();
      if (!ParseDeclarator(base, /*allow_abstract=*/false, d)) {
        return false;
      }
      if (d.is_function) {
        if (At(CTok::kLBrace)) {
          return ParseFunctionDefinition(unit, d, is_static, Loc(at));
        }
        Decl decl;
        decl.kind = Decl::Kind::kFunction;
        decl.loc = Loc(at);
        decl.name = d.name;
        decl.func_type = d.type;
        decl.params = std::move(d.params);
        decl.is_static = is_static;
        decl.is_definition = false;
        unit.decls.push_back(std::move(decl));
      } else {
        Decl decl;
        decl.kind = Decl::Kind::kGlobalVar;
        decl.loc = Loc(at);
        decl.name = d.name;
        decl.var_type = d.type;
        decl.is_static = is_static;
        decl.is_extern = is_extern;
        if (At(CTok::kAssign)) {
          Take();
          if (!ParseInitializer(decl)) {
            return false;
          }
        }
        // Complete unsized arrays from their initializer.
        if (decl.var_type->IsArray() && decl.var_type->array_count < 0) {
          if (decl.init_list.empty()) {
            diags_.Error(decl.loc, "array '" + decl.name + "' has no size and no initializer");
            return false;
          }
          decl.var_type =
              types_.ArrayOf(decl.var_type->base, static_cast<int>(decl.init_list.size()));
        }
        unit.decls.push_back(std::move(decl));
      }
      if (At(CTok::kComma)) {
        Take();
        continue;
      }
      return Expect(CTok::kSemi, "after declaration");
    }
  }

  bool ParseInitializer(Decl& decl) {
    if (At(CTok::kLBrace)) {
      Take();
      while (!At(CTok::kRBrace)) {
        ExprPtr element = ParseAssign();
        if (!element) {
          return false;
        }
        decl.init_list.push_back(std::move(element));
        if (At(CTok::kComma)) {
          Take();
        }
      }
      Take();  // }
      return true;
    }
    decl.init = ParseAssign();
    return decl.init != nullptr;
  }

  bool ParseTypedef(TranslationUnit& unit) {
    SourceLoc loc = Loc(Take());  // typedef
    const Type* base = nullptr;
    // Allow `typedef struct tag { ... } name;` as well as simple base types.
    if (At(CTok::kStruct) && Ahead(1).kind == CTok::kIdent && Ahead(2).kind == CTok::kLBrace) {
      if (!ParseStructDefNoSemi(unit, base)) {
        return false;
      }
    } else {
      base = ParseBaseType();
      if (base == nullptr) {
        return false;
      }
    }
    Declarator d;
    if (!ParseDeclarator(base, /*allow_abstract=*/false, d)) {
      return false;
    }
    typedefs_[d.name] = d.type;
    Decl decl;
    decl.kind = Decl::Kind::kTypedef;
    decl.loc = std::move(loc);
    decl.name = d.name;
    decl.defined_type = d.type;
    unit.decls.push_back(std::move(decl));
    return Expect(CTok::kSemi, "after typedef");
  }

  bool ParseStructDef(TranslationUnit& unit) {
    const Type* type = nullptr;
    if (Ahead(1).kind == CTok::kIdent && Ahead(2).kind == CTok::kSemi) {
      // Forward declaration: struct foo;
      Take();  // struct
      types_.StructFor(std::string(Take().text));
      Take();  // ;
      return true;
    }
    if (!ParseStructDefNoSemi(unit, type)) {
      return false;
    }
    return Expect(CTok::kSemi, "after struct definition");
  }

  bool ParseStructDefNoSemi(TranslationUnit& unit, const Type*& out_type) {
    SourceLoc loc = Loc(Take());  // struct
    std::string tag(Take().text);
    Type* type = types_.StructFor(tag);
    if (!Expect(CTok::kLBrace, "to open struct body")) {
      return false;
    }
    std::vector<StructField> fields;
    while (!At(CTok::kRBrace)) {
      const Type* base = ParseBaseType();
      if (base == nullptr) {
        return false;
      }
      while (true) {
        Declarator d;
        if (!ParseDeclarator(base, /*allow_abstract=*/false, d)) {
          return false;
        }
        fields.push_back(StructField{std::string(d.name), d.type, 0});
        if (At(CTok::kComma)) {
          Take();
          continue;
        }
        break;
      }
      if (!Expect(CTok::kSemi, "after struct field")) {
        return false;
      }
    }
    Take();  // }
    if (!types_.CompleteStruct(type, std::move(fields))) {
      diags_.Error(loc, "struct '" + tag + "' redefined with a different layout");
      return false;
    }
    Decl decl;
    decl.kind = Decl::Kind::kStructDef;
    decl.loc = std::move(loc);
    decl.name = std::move(tag);
    decl.defined_type = type;
    unit.decls.push_back(std::move(decl));
    out_type = type;
    return true;
  }

  bool ParseEnum(TranslationUnit& unit) {
    Decl decl;
    decl.kind = Decl::Kind::kEnumConsts;
    decl.loc = Loc(Take());  // enum
    if (!Expect(CTok::kLBrace, "after 'enum' (MiniC supports only anonymous enums)")) {
      return false;
    }
    long long next_value = 0;
    while (!At(CTok::kRBrace)) {
      if (!At(CTok::kIdent)) {
        diags_.Error(Loc(Cur()), "expected enum constant name, found " + Describe(Cur()));
        return false;
      }
      std::string_view name = Take().text;
      if (At(CTok::kAssign)) {
        Take();
        ExprPtr value = ParseConditional();
        if (!value) {
          return false;
        }
        long long folded = 0;
        if (!FoldConst(*value, folded)) {
          diags_.Error(value->loc, "enum value for '" + std::string(name) +
                                       "' is not a constant expression");
          return false;
        }
        next_value = folded;
      }
      enum_consts_[name] = next_value;
      decl.enum_values.emplace_back(name, next_value);
      ++next_value;
      if (At(CTok::kComma)) {
        Take();
      }
    }
    Take();  // }
    unit.decls.push_back(std::move(decl));
    return Expect(CTok::kSemi, "after enum");
  }

  bool ParseFunctionDefinition(TranslationUnit& unit, Declarator& d, bool is_static,
                               SourceLoc loc) {
    for (const ParamDecl& p : d.params) {
      if (p.name.empty()) {
        diags_.Error(loc, "function definition '" + std::string(d.name) +
                              "' has an unnamed parameter");
        return false;
      }
    }
    Decl decl;
    decl.kind = Decl::Kind::kFunction;
    decl.loc = std::move(loc);
    decl.name = d.name;
    decl.func_type = d.type;
    decl.params = std::move(d.params);
    decl.is_static = is_static;
    decl.is_definition = true;
    decl.body = ParseBlock();
    if (!decl.body) {
      return false;
    }
    unit.decls.push_back(std::move(decl));
    return true;
  }

  // ---- statements ----------------------------------------------------------

  template <typename Node>
  std::unique_ptr<Node> NewNode(typename Node::Kind kind, const CToken& at) {
    auto node = std::make_unique<Node>();
    node->kind = kind;
    node->loc = Loc(at);
    return node;
  }

  StmtPtr ParseBlock() {
    auto block = NewNode<Stmt>(Stmt::Kind::kBlock, Cur());
    if (!Expect(CTok::kLBrace, "to open block")) {
      return nullptr;
    }
    while (!At(CTok::kRBrace)) {
      if (At(CTok::kEnd)) {
        diags_.Error(Loc(Cur()), "unexpected end of input inside block");
        return nullptr;
      }
      StmtPtr stmt = ParseStmt();
      if (!stmt) {
        return nullptr;
      }
      block->stmts.push_back(std::move(stmt));
    }
    Take();  // }
    return block;
  }

  StmtPtr ParseStmt() {
    const CToken& at = Cur();
    switch (at.kind) {
      case CTok::kLBrace:
        return ParseBlock();
      case CTok::kSemi:
        Take();
        return NewNode<Stmt>(Stmt::Kind::kEmpty, at);
      case CTok::kIf: {
        Take();
        auto stmt = NewNode<Stmt>(Stmt::Kind::kIf, at);
        if (!Expect(CTok::kLParen, "after 'if'")) {
          return nullptr;
        }
        stmt->exprs.push_back(ParseExpr());
        if (!stmt->exprs[0] || !Expect(CTok::kRParen, "after if condition")) {
          return nullptr;
        }
        stmt->stmts.push_back(ParseStmt());
        if (!stmt->stmts[0]) {
          return nullptr;
        }
        if (At(CTok::kElse)) {
          Take();
          stmt->stmts.push_back(ParseStmt());
          if (!stmt->stmts[1]) {
            return nullptr;
          }
        }
        return stmt;
      }
      case CTok::kWhile: {
        Take();
        auto stmt = NewNode<Stmt>(Stmt::Kind::kWhile, at);
        if (!Expect(CTok::kLParen, "after 'while'")) {
          return nullptr;
        }
        stmt->exprs.push_back(ParseExpr());
        if (!stmt->exprs[0] || !Expect(CTok::kRParen, "after while condition")) {
          return nullptr;
        }
        stmt->stmts.push_back(ParseStmt());
        return stmt->stmts[0] ? std::move(stmt) : nullptr;
      }
      case CTok::kFor:
        return ParseFor();
      case CTok::kReturn: {
        Take();
        auto stmt = NewNode<Stmt>(Stmt::Kind::kReturn, at);
        if (!At(CTok::kSemi)) {
          stmt->exprs.push_back(ParseExpr());
          if (!stmt->exprs[0]) {
            return nullptr;
          }
        }
        return Expect(CTok::kSemi, "after return") ? std::move(stmt) : nullptr;
      }
      case CTok::kBreak:
      case CTok::kContinue: {
        bool is_break = Take().kind == CTok::kBreak;
        auto stmt =
            NewNode<Stmt>(is_break ? Stmt::Kind::kBreak : Stmt::Kind::kContinue, at);
        return Expect(CTok::kSemi, "after break/continue") ? std::move(stmt) : nullptr;
      }
      default:
        break;
    }
    if (IsTypeStart(at)) {
      return ParseLocalDecl();
    }
    // Expression statement.
    auto stmt = NewNode<Stmt>(Stmt::Kind::kExpr, at);
    stmt->exprs.push_back(ParseExpr());
    if (!stmt->exprs[0]) {
      return nullptr;
    }
    return Expect(CTok::kSemi, "after expression") ? std::move(stmt) : nullptr;
  }

  StmtPtr ParseFor() {
    auto stmt = NewNode<Stmt>(Stmt::Kind::kFor, Take());
    if (!Expect(CTok::kLParen, "after 'for'")) {
      return nullptr;
    }
    // init: declaration, expression, or empty
    if (At(CTok::kSemi)) {
      Take();
      stmt->stmts.push_back(nullptr);
    } else if (IsTypeStart(Cur())) {
      StmtPtr init = ParseLocalDecl();
      if (!init) {
        return nullptr;
      }
      stmt->stmts.push_back(std::move(init));
    } else {
      auto init = NewNode<Stmt>(Stmt::Kind::kExpr, Cur());
      init->exprs.push_back(ParseExpr());
      if (!init->exprs[0] || !Expect(CTok::kSemi, "after for-init")) {
        return nullptr;
      }
      stmt->stmts.push_back(std::move(init));
    }
    // condition
    if (At(CTok::kSemi)) {
      stmt->exprs.push_back(nullptr);
    } else {
      stmt->exprs.push_back(ParseExpr());
      if (!stmt->exprs[0]) {
        return nullptr;
      }
    }
    if (!Expect(CTok::kSemi, "after for-condition")) {
      return nullptr;
    }
    // step
    if (At(CTok::kRParen)) {
      stmt->exprs.push_back(nullptr);
    } else {
      stmt->exprs.push_back(ParseExpr());
      if (!stmt->exprs[1]) {
        return nullptr;
      }
    }
    if (!Expect(CTok::kRParen, "after for header")) {
      return nullptr;
    }
    stmt->stmts.push_back(ParseStmt());
    return stmt->stmts[1] ? std::move(stmt) : nullptr;
  }

  // One or more comma-separated local declarations sharing a base type. Multiple
  // declarators become a block of kLocalDecl statements.
  StmtPtr ParseLocalDecl() {
    const CToken& at = Cur();
    const Type* base = ParseBaseType();
    if (base == nullptr) {
      return nullptr;
    }
    std::vector<StmtPtr> decls;
    while (true) {
      Declarator d;
      if (!ParseDeclarator(base, /*allow_abstract=*/false, d)) {
        return nullptr;
      }
      auto stmt = NewNode<Stmt>(Stmt::Kind::kLocalDecl, at);
      stmt->text = d.name;
      stmt->decl_type = d.type;
      if (At(CTok::kAssign)) {
        Take();
        stmt->exprs.push_back(ParseAssign());
        if (!stmt->exprs[0]) {
          return nullptr;
        }
      }
      if (stmt->decl_type->IsArray() && stmt->decl_type->array_count < 0) {
        diags_.Error(stmt->loc,
                     "local array '" + std::string(d.name) + "' must have an explicit size");
        return nullptr;
      }
      decls.push_back(std::move(stmt));
      if (At(CTok::kComma)) {
        Take();
        continue;
      }
      break;
    }
    if (!Expect(CTok::kSemi, "after declaration")) {
      return nullptr;
    }
    if (decls.size() == 1) {
      return std::move(decls[0]);
    }
    auto block = NewNode<Stmt>(Stmt::Kind::kBlock, at);
    block->stmts = std::move(decls);
    return block;
  }

  // ---- expressions ---------------------------------------------------------

  ExprPtr ParseExpr() { return ParseAssign(); }

  static bool IsAssignOp(CTok kind) {
    switch (kind) {
      case CTok::kAssign:
      case CTok::kAddAssign:
      case CTok::kSubAssign:
      case CTok::kMulAssign:
      case CTok::kDivAssign:
      case CTok::kModAssign:
      case CTok::kAndAssign:
      case CTok::kOrAssign:
      case CTok::kXorAssign:
      case CTok::kShlAssign:
      case CTok::kShrAssign:
        return true;
      default:
        return false;
    }
  }

  // `op` applied to `args`, located at the operator token.
  ExprPtr NewOp(Expr::Kind kind, const CToken& op, ExprPtr lhs, ExprPtr rhs = nullptr) {
    auto out = NewNode<Expr>(kind, op);
    out->text = CTokSpelling(op.kind);
    out->args.push_back(std::move(lhs));
    if (rhs) {
      out->args.push_back(std::move(rhs));
    }
    return out;
  }

  ExprPtr ParseAssign() {
    ExprPtr lhs = ParseConditional();
    if (!lhs) {
      return nullptr;
    }
    if (!IsAssignOp(Cur().kind)) {
      return lhs;
    }
    const CToken& op = Take();
    ExprPtr rhs = ParseAssign();
    if (!rhs) {
      return nullptr;
    }
    return NewOp(Expr::Kind::kAssign, op, std::move(lhs), std::move(rhs));
  }

  ExprPtr ParseConditional() {
    ExprPtr cond = ParseBinary(0);
    if (!cond) {
      return nullptr;
    }
    if (!At(CTok::kQuestion)) {
      return cond;
    }
    const CToken& at = Take();
    ExprPtr then_expr = ParseExpr();
    if (!then_expr || !Expect(CTok::kColon, "in conditional expression")) {
      return nullptr;
    }
    ExprPtr else_expr = ParseConditional();
    if (!else_expr) {
      return nullptr;
    }
    auto out = NewNode<Expr>(Expr::Kind::kCond, at);
    out->args.push_back(std::move(cond));
    out->args.push_back(std::move(then_expr));
    out->args.push_back(std::move(else_expr));
    return out;
  }

  // Precedence of a binary operator token, 0 when it is none (precedence
  // climbing starts at 0, and every operator binds at 1 or tighter).
  static int BinaryPrecedence(CTok kind) {
    switch (kind) {
      case CTok::kOrOr:
        return 1;
      case CTok::kAndAnd:
        return 2;
      case CTok::kPipe:
        return 3;
      case CTok::kCaret:
        return 4;
      case CTok::kAmp:
        return 5;
      case CTok::kEq:
      case CTok::kNe:
        return 6;
      case CTok::kLess:
      case CTok::kGreater:
      case CTok::kLe:
      case CTok::kGe:
        return 7;
      case CTok::kShl:
      case CTok::kShr:
        return 8;
      case CTok::kPlus:
      case CTok::kMinus:
        return 9;
      case CTok::kStar:
      case CTok::kSlash:
      case CTok::kPercent:
        return 10;
      default:
        return 0;
    }
  }

  ExprPtr ParseBinary(int min_precedence) {
    ExprPtr lhs = ParseUnary();
    if (!lhs) {
      return nullptr;
    }
    while (true) {
      int precedence = BinaryPrecedence(Cur().kind);
      if (precedence == 0 || precedence < min_precedence) {
        return lhs;
      }
      const CToken& op = Take();
      ExprPtr rhs = ParseBinary(precedence + 1);
      if (!rhs) {
        return nullptr;
      }
      lhs = NewOp(Expr::Kind::kBinary, op, std::move(lhs), std::move(rhs));
    }
  }

  ExprPtr ParseUnary() {
    const CToken& at = Cur();
    switch (at.kind) {
      case CTok::kMinus:
      case CTok::kNot:
      case CTok::kTilde:
      case CTok::kAmp:
      case CTok::kStar: {
        Take();
        ExprPtr operand = ParseUnary();
        if (!operand) {
          return nullptr;
        }
        return NewOp(Expr::Kind::kUnary, at, std::move(operand));
      }
      case CTok::kPlus:
        Take();
        return ParseUnary();
      case CTok::kInc:
      case CTok::kDec: {
        Take();
        ExprPtr operand = ParseUnary();
        if (!operand) {
          return nullptr;
        }
        ExprPtr out = NewOp(Expr::Kind::kIncDec, at, std::move(operand));
        out->int_value = 1;  // prefix
        return out;
      }
      case CTok::kSizeof: {
        Take();
        auto out = NewNode<Expr>(Expr::Kind::kSizeof, at);
        if (At(CTok::kLParen) && IsTypeStart(Ahead(1))) {
          Take();
          out->sizeof_type = ParseTypeName();
          if (out->sizeof_type == nullptr || !Expect(CTok::kRParen, "after sizeof type")) {
            return nullptr;
          }
        } else {
          ExprPtr operand = ParseUnary();
          if (!operand) {
            return nullptr;
          }
          out->args.push_back(std::move(operand));  // sema resolves to a type
        }
        return out;
      }
      case CTok::kLParen: {
        if (!IsTypeStart(Ahead(1))) {
          break;
        }
        Take();
        const Type* type = ParseTypeName();
        if (type == nullptr || !Expect(CTok::kRParen, "after cast type")) {
          return nullptr;
        }
        ExprPtr operand = ParseUnary();
        if (!operand) {
          return nullptr;
        }
        auto out = NewNode<Expr>(Expr::Kind::kCast, at);
        out->cast_type = type;
        out->args.push_back(std::move(operand));
        return out;
      }
      default:
        break;
    }
    return ParsePostfix();
  }

  ExprPtr ParsePostfix() {
    ExprPtr expr = ParsePrimary();
    if (!expr) {
      return nullptr;
    }
    while (true) {
      const CToken& at = Cur();
      switch (at.kind) {
        case CTok::kLParen: {
          Take();
          auto out = NewNode<Expr>(Expr::Kind::kCall, at);
          out->args.push_back(std::move(expr));
          while (!At(CTok::kRParen)) {
            ExprPtr arg = ParseAssign();
            if (!arg) {
              return nullptr;
            }
            out->args.push_back(std::move(arg));
            if (At(CTok::kComma)) {
              Take();
            }
          }
          Take();  // )
          expr = std::move(out);
          continue;
        }
        case CTok::kLBracket: {
          Take();
          ExprPtr index = ParseExpr();
          if (!index || !Expect(CTok::kRBracket, "to close index")) {
            return nullptr;
          }
          auto out = NewNode<Expr>(Expr::Kind::kIndex, at);
          out->args.push_back(std::move(expr));
          out->args.push_back(std::move(index));
          expr = std::move(out);
          continue;
        }
        case CTok::kDot:
        case CTok::kArrow: {
          Take();
          if (!At(CTok::kIdent)) {
            diags_.Error(Loc(Cur()), "expected member name, found " + Describe(Cur()));
            return nullptr;
          }
          auto out = NewNode<Expr>(Expr::Kind::kMember, at);
          out->text = Take().text;
          out->member_arrow = at.kind == CTok::kArrow;
          out->args.push_back(std::move(expr));
          expr = std::move(out);
          continue;
        }
        case CTok::kInc:
        case CTok::kDec:
          Take();
          expr = NewOp(Expr::Kind::kIncDec, at, std::move(expr));
          expr->int_value = 0;  // postfix
          continue;
        default:
          return expr;
      }
    }
  }

  ExprPtr ParsePrimary() {
    const CToken& at = Cur();
    switch (at.kind) {
      case CTok::kIntLit:
      case CTok::kCharLit: {
        Take();
        auto out = NewNode<Expr>(Expr::Kind::kIntLit, at);
        out->int_value = at.int_value;
        return out;
      }
      case CTok::kStrLit: {
        Take();
        auto out = NewNode<Expr>(Expr::Kind::kStrLit, at);
        out->text = DecodeCString(at.text);
        return out;
      }
      case CTok::kIdent: {
        Take();
        auto it = enum_consts_.find(at.text);
        if (it != enum_consts_.end()) {
          auto out = NewNode<Expr>(Expr::Kind::kIntLit, at);
          out->int_value = it->second;
          return out;
        }
        auto out = NewNode<Expr>(Expr::Kind::kIdent, at);
        out->text = at.text;
        return out;
      }
      case CTok::kLParen: {
        Take();
        ExprPtr inner = ParseExpr();
        if (!inner || !Expect(CTok::kRParen, "to close parenthesized expression")) {
          return nullptr;
        }
        return inner;
      }
      default:
        diags_.Error(Loc(at), "expected expression, found " + Describe(at));
        return nullptr;
    }
  }

  // Folds a parse-time constant (integer literals, unary -, binary arith on
  // constants) for enum values and array sizes.
  bool FoldConst(const Expr& expr, long long& out) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
        out = expr.int_value;
        return true;
      case Expr::Kind::kUnary: {
        long long v = 0;
        if (expr.text == "-" && FoldConst(*expr.args[0], v)) {
          out = -v;
          return true;
        }
        if (expr.text == "~" && FoldConst(*expr.args[0], v)) {
          out = ~v;
          return true;
        }
        return false;
      }
      case Expr::Kind::kBinary: {
        long long a = 0;
        long long b = 0;
        if (!FoldConst(*expr.args[0], a) || !FoldConst(*expr.args[1], b)) {
          return false;
        }
        const std::string& op = expr.text;
        if (op == "+") {
          out = a + b;
        } else if (op == "-") {
          out = a - b;
        } else if (op == "*") {
          out = a * b;
        } else if (op == "/" && b != 0) {
          out = a / b;
        } else if (op == "<<") {
          out = a << b;
        } else if (op == ">>") {
          out = a >> b;
        } else if (op == "|") {
          out = a | b;
        } else if (op == "&") {
          out = a & b;
        } else if (op == "^") {
          out = a ^ b;
        } else {
          return false;
        }
        return true;
      }
      default:
        return false;
    }
  }

  const std::vector<CToken>& tokens_;
  const std::vector<std::string>& files_;
  TypeTable& types_;
  Diagnostics& diags_;
  size_t pos_ = 0;
  // Keys view the source text, which outlives the parser.
  std::unordered_map<std::string_view, const Type*> typedefs_;
  std::unordered_map<std::string_view, long long> enum_consts_;
};

}  // namespace

Result<TranslationUnit> ParseCFiles(const SourceView& sources,
                                    const std::vector<std::string>& files,
                                    const std::string& unit_name, TypeTable& types,
                                    Diagnostics& diags) {
  TranslationUnit unit;
  unit.name = unit_name;
  std::vector<std::string> lexed_files;
  for (const std::string& file : files) {
    Result<std::vector<CToken>> tokens = LexC(sources, file, diags, &lexed_files);
    if (!tokens.ok()) {
      return Result<TranslationUnit>::Failure();
    }
    CParser parser(tokens.value(), lexed_files, types, diags);
    if (!parser.ParseInto(unit)) {
      return Result<TranslationUnit>::Failure();
    }
  }
  return unit;
}

Result<TranslationUnit> ParseC(const SourceView& sources, const std::string& file,
                               TypeTable& types, Diagnostics& diags) {
  return ParseCFiles(sources, {file}, file, types, diags);
}

Result<TranslationUnit> ParseCString(std::string_view source, const std::string& name,
                                     TypeTable& types, Diagnostics& diags) {
  Result<std::vector<CToken>> tokens = LexCString(source, name, diags);
  if (!tokens.ok()) {
    return Result<TranslationUnit>::Failure();
  }
  TranslationUnit unit;
  unit.name = name;
  const std::vector<std::string> files = {name};
  CParser parser(tokens.value(), files, types, diags);
  if (!parser.ParseInto(unit)) {
    return Result<TranslationUnit>::Failure();
  }
  return unit;
}

}  // namespace knit
