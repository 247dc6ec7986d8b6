#include "src/knitlang/parser.h"

#include <utility>

#include "src/knitlang/lexer.h"

namespace knit {
namespace {

class Parser {
 public:
  Parser(const std::vector<Token>& tokens, const std::string& file, KnitProgram& program,
         Diagnostics& diags)
      : tokens_(tokens), file_(file), program_(program), diags_(diags) {}

  bool Run() {
    while (!At(TokenKind::kEnd)) {
      if (!ParseTopDecl()) {
        return false;
      }
    }
    return true;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  bool At(TokenKind kind) const { return Cur().kind == kind; }
  bool AtWord(KnitWord word) const { return Cur().Is(word); }

  const Token& Take() { return tokens_[pos_++]; }

  SourceLoc Loc(const Token& token) const {
    return SourceLoc{file_, token.line, token.column};
  }

  bool Expect(TokenKind kind, const char* what) {
    if (!At(kind)) {
      diags_.Error(Loc(Cur()), std::string("expected ") + TokenKindName(kind) + " " + what +
                                   ", found " + Describe(Cur()));
      return false;
    }
    ++pos_;
    return true;
  }

  bool ExpectWord(KnitWord word) {
    if (!AtWord(word)) {
      diags_.Error(Loc(Cur()), std::string("expected '") + KnitWordSpelling(word) +
                                   "', found " + Describe(Cur()));
      return false;
    }
    ++pos_;
    return true;
  }

  // Expects any identifier and stores it into `out`.
  bool ExpectAnyIdent(std::string& out, const char* what) {
    if (!At(TokenKind::kIdent)) {
      diags_.Error(Loc(Cur()),
                   std::string("expected identifier ") + what + ", found " + Describe(Cur()));
      return false;
    }
    out = Take().text;
    return true;
  }

  static std::string Describe(const Token& token) {
    if (token.kind == TokenKind::kIdent) {
      return "'" + std::string(token.text) + "'";
    }
    if (token.kind == TokenKind::kString) {
      return "string \"" + DecodeKnitString(token.text) + "\"";
    }
    return TokenKindName(token.kind);
  }

  bool ParseTopDecl() {
    if (AtWord(KnitWord::kBundletype)) {
      return ParseBundleType();
    }
    if (AtWord(KnitWord::kFlags)) {
      return ParseFlags();
    }
    if (AtWord(KnitWord::kUnit)) {
      return ParseUnit();
    }
    if (AtWord(KnitWord::kProperty)) {
      return ParseProperty();
    }
    if (AtWord(KnitWord::kType)) {
      return ParsePropertyValue();
    }
    diags_.Error(Loc(Cur()), "expected 'bundletype', 'flags', 'unit', 'property', or 'type', "
                            "found " +
                                Describe(Cur()));
    return false;
  }

  // bundletype Serve = { serve_web }
  bool ParseBundleType() {
    BundleTypeDecl decl;
    decl.loc = Loc(Cur());
    Take();  // bundletype
    if (!ExpectAnyIdent(decl.name, "(bundle type name)") ||
        !Expect(TokenKind::kEq, "after bundle type name") ||
        !Expect(TokenKind::kLBrace, "to open symbol list")) {
      return false;
    }
    while (!At(TokenKind::kRBrace)) {
      std::string symbol;
      if (!ExpectAnyIdent(symbol, "(bundle symbol)")) {
        return false;
      }
      decl.symbols.push_back(std::move(symbol));
      if (At(TokenKind::kComma)) {
        Take();
      }
    }
    Take();  // }
    MaybeSemi();
    program_.bundle_types.push_back(std::move(decl));
    return true;
  }

  // flags CFlags = { "-Ioskit/include" }
  bool ParseFlags() {
    FlagsDecl decl;
    decl.loc = Loc(Cur());
    Take();  // flags
    if (!ExpectAnyIdent(decl.name, "(flag set name)") ||
        !Expect(TokenKind::kEq, "after flag set name") ||
        !Expect(TokenKind::kLBrace, "to open flag list")) {
      return false;
    }
    while (!At(TokenKind::kRBrace)) {
      if (!At(TokenKind::kString)) {
        diags_.Error(Loc(Cur()), "expected string flag, found " + Describe(Cur()));
        return false;
      }
      decl.flags.push_back(DecodeKnitString(Take().text));
      if (At(TokenKind::kComma)) {
        Take();
      }
    }
    Take();  // }
    MaybeSemi();
    program_.flag_sets.push_back(std::move(decl));
    return true;
  }

  // property context
  bool ParseProperty() {
    PropertyDecl decl;
    decl.loc = Loc(Cur());
    Take();  // property
    if (!ExpectAnyIdent(decl.name, "(property name)")) {
      return false;
    }
    MaybeSemi();
    current_property_ = decl.name;
    program_.properties.push_back(std::move(decl));
    return true;
  }

  // type ProcessContext < NoContext
  bool ParsePropertyValue() {
    PropertyValueDecl decl;
    decl.loc = Loc(Cur());
    Take();  // type
    if (current_property_.empty()) {
      diags_.Error(decl.loc, "'type' declaration with no preceding 'property'");
      return false;
    }
    decl.property = current_property_;
    if (!ExpectAnyIdent(decl.name, "(property value name)")) {
      return false;
    }
    if (At(TokenKind::kLess)) {
      Take();
      if (!ExpectAnyIdent(decl.less_than, "(more general property value)")) {
        return false;
      }
    }
    MaybeSemi();
    program_.property_values.push_back(std::move(decl));
    return true;
  }

  bool ParseUnit() {
    UnitDecl unit;
    unit.loc = Loc(Cur());
    Take();  // unit
    if (!ExpectAnyIdent(unit.name, "(unit name)") ||
        !Expect(TokenKind::kEq, "after unit name") ||
        !Expect(TokenKind::kLBrace, "to open unit body")) {
      return false;
    }
    while (!At(TokenKind::kRBrace)) {
      if (!ParseSection(unit)) {
        return false;
      }
    }
    Take();  // }
    MaybeSemi();
    if (unit.has_files && unit.has_links) {
      diags_.Error(unit.loc, "unit '" + unit.name + "' has both 'files' and 'link' sections; "
                             "a unit is either atomic or compound");
      return false;
    }
    program_.units.push_back(std::move(unit));
    return true;
  }

  bool ParseSection(UnitDecl& unit) {
    if (AtWord(KnitWord::kImports)) {
      return ParsePortList(unit.imports, "imports");
    }
    if (AtWord(KnitWord::kExports)) {
      return ParsePortList(unit.exports, "exports");
    }
    if (AtWord(KnitWord::kDepends)) {
      return ParseDepends(unit);
    }
    if (AtWord(KnitWord::kFiles)) {
      return ParseFiles(unit);
    }
    if (AtWord(KnitWord::kRename)) {
      return ParseRename(unit);
    }
    if (AtWord(KnitWord::kInitializer)) {
      return ParseInitFini(unit.initializers);
    }
    if (AtWord(KnitWord::kFinalizer)) {
      return ParseInitFini(unit.finalizers);
    }
    if (AtWord(KnitWord::kLink)) {
      return ParseLink(unit);
    }
    if (AtWord(KnitWord::kConstraints)) {
      return ParseConstraints(unit);
    }
    if (AtWord(KnitWord::kFlatten)) {
      Take();
      unit.flatten = true;
      return Expect(TokenKind::kSemi, "after 'flatten'");
    }
    diags_.Error(Loc(Cur()), "expected a unit section (imports, exports, depends, files, "
                            "rename, initializer, finalizer, link, constraints, flatten), "
                            "found " +
                                Describe(Cur()));
    return false;
  }

  // imports [ serveFile : Serve, serveCGI : Serve ];
  bool ParsePortList(std::vector<PortDecl>& out, const char* keyword) {
    Take();  // imports / exports
    if (!Expect(TokenKind::kLBracket, (std::string("after '") + keyword + "'").c_str())) {
      return false;
    }
    while (!At(TokenKind::kRBracket)) {
      PortDecl port;
      port.loc = Loc(Cur());
      if (!ExpectAnyIdent(port.local_name, "(port name)") ||
          !Expect(TokenKind::kColon, "between port name and bundle type") ||
          !ExpectAnyIdent(port.bundle_type, "(bundle type)")) {
        return false;
      }
      out.push_back(std::move(port));
      if (At(TokenKind::kComma)) {
        Take();
      }
    }
    Take();  // ]
    return Expect(TokenKind::kSemi, "after port list");
  }

  // depends { serveWeb needs (serveFile + serveCGI); };
  bool ParseDepends(UnitDecl& unit) {
    Take();  // depends
    if (!Expect(TokenKind::kLBrace, "after 'depends'")) {
      return false;
    }
    while (!At(TokenKind::kRBrace)) {
      DependsClause clause;
      clause.loc = Loc(Cur());
      if (!ParseDepSet(clause.dependents) || !ExpectWord(KnitWord::kNeeds) ||
          !ParseDepSet(clause.requirements) || !Expect(TokenKind::kSemi, "after depends clause")) {
        return false;
      }
      unit.depends.push_back(std::move(clause));
    }
    Take();  // }
    MaybeSemi();
    return true;
  }

  // IDENT | ( IDENT + IDENT + ... )     — also accepts comma separators, as the
  // paper's prose uses "serveLog needs serveWeb, stdio".
  bool ParseDepSet(std::vector<std::string>& out) {
    if (At(TokenKind::kLParen)) {
      Take();
      while (!At(TokenKind::kRParen)) {
        std::string name;
        if (!ExpectAnyIdent(name, "(dependency atom)")) {
          return false;
        }
        out.push_back(std::move(name));
        if (At(TokenKind::kPlus) || At(TokenKind::kComma)) {
          Take();
        }
      }
      Take();  // )
      return true;
    }
    std::string name;
    if (!ExpectAnyIdent(name, "(dependency atom)")) {
      return false;
    }
    out.push_back(std::move(name));
    while (At(TokenKind::kComma)) {
      Take();
      if (!ExpectAnyIdent(name, "(dependency atom)")) {
        return false;
      }
      out.push_back(std::move(name));
    }
    return true;
  }

  // files { "web.c" } with flags CFlags;
  bool ParseFiles(UnitDecl& unit) {
    Take();  // files
    unit.has_files = true;
    if (!Expect(TokenKind::kLBrace, "after 'files'")) {
      return false;
    }
    while (!At(TokenKind::kRBrace)) {
      if (!At(TokenKind::kString)) {
        diags_.Error(Loc(Cur()), "expected string file name, found " + Describe(Cur()));
        return false;
      }
      unit.files.push_back(DecodeKnitString(Take().text));
      if (At(TokenKind::kComma)) {
        Take();
      }
    }
    Take();  // }
    if (AtWord(KnitWord::kWith)) {
      Take();
      if (!ExpectWord(KnitWord::kFlags) || !ExpectAnyIdent(unit.flags_name, "(flag set name)")) {
        return false;
      }
    }
    return Expect(TokenKind::kSemi, "after files section");
  }

  // rename { serveFile.serve_web to serve_file; };
  bool ParseRename(UnitDecl& unit) {
    Take();  // rename
    if (!Expect(TokenKind::kLBrace, "after 'rename'")) {
      return false;
    }
    while (!At(TokenKind::kRBrace)) {
      RenameDecl rename;
      rename.loc = Loc(Cur());
      if (!ExpectAnyIdent(rename.port, "(port name)") ||
          !Expect(TokenKind::kDot, "between port and symbol") ||
          !ExpectAnyIdent(rename.symbol, "(bundle symbol)") || !ExpectWord(KnitWord::kTo) ||
          !ExpectAnyIdent(rename.c_name, "(C identifier)") ||
          !Expect(TokenKind::kSemi, "after rename")) {
        return false;
      }
      unit.renames.push_back(std::move(rename));
    }
    Take();  // }
    MaybeSemi();
    return true;
  }

  // initializer open_log for serveLog;
  bool ParseInitFini(std::vector<InitFiniDecl>& out) {
    InitFiniDecl decl;
    decl.loc = Loc(Cur());
    Take();  // initializer / finalizer
    if (!ExpectAnyIdent(decl.function, "(function name)") || !ExpectWord(KnitWord::kFor) ||
        !ExpectAnyIdent(decl.port, "(export bundle name)") ||
        !Expect(TokenKind::kSemi, "after initializer/finalizer")) {
      return false;
    }
    out.push_back(std::move(decl));
    return true;
  }

  // link { [serveWeb] <- Web <- [serveFile, serveCGI]; ... };
  bool ParseLink(UnitDecl& unit) {
    Take();  // link
    unit.has_links = true;
    if (!Expect(TokenKind::kLBrace, "after 'link'")) {
      return false;
    }
    while (!At(TokenKind::kRBrace)) {
      LinkLine line;
      line.loc = Loc(Cur());
      if (!ParseBracketedIdentList(line.outputs) ||
          !Expect(TokenKind::kArrowLeft, "after link outputs") ||
          !ExpectAnyIdent(line.unit, "(unit name)")) {
        return false;
      }
      if (AtWord(KnitWord::kAs)) {
        Take();
        if (!ExpectAnyIdent(line.instance_name, "(instance name)")) {
          return false;
        }
      }
      if (!Expect(TokenKind::kArrowLeft, "before link inputs") ||
          !ParseBracketedIdentList(line.inputs) ||
          !Expect(TokenKind::kSemi, "after link line")) {
        return false;
      }
      unit.links.push_back(std::move(line));
    }
    Take();  // }
    MaybeSemi();
    return true;
  }

  bool ParseBracketedIdentList(std::vector<std::string>& out) {
    if (!Expect(TokenKind::kLBracket, "to open name list")) {
      return false;
    }
    while (!At(TokenKind::kRBracket)) {
      std::string name;
      if (!ExpectAnyIdent(name, "(local name)")) {
        return false;
      }
      out.push_back(std::move(name));
      if (At(TokenKind::kComma)) {
        Take();
      }
    }
    Take();  // ]
    return true;
  }

  // constraints { context(exports) <= context(imports); context(intr) = NoContext; };
  bool ParseConstraints(UnitDecl& unit) {
    Take();  // constraints
    if (!Expect(TokenKind::kLBrace, "after 'constraints'")) {
      return false;
    }
    while (!At(TokenKind::kRBrace)) {
      ConstraintDecl constraint;
      constraint.loc = Loc(Cur());
      if (!ParsePropertyExpr(constraint.lhs)) {
        return false;
      }
      if (At(TokenKind::kEq)) {
        Take();
        constraint.relation = ConstraintDecl::Relation::kEqual;
      } else if (At(TokenKind::kLessEq)) {
        Take();
        constraint.relation = ConstraintDecl::Relation::kLessEq;
      } else {
        diags_.Error(Loc(Cur()), "expected '=' or '<=' in constraint, found " + Describe(Cur()));
        return false;
      }
      if (!ParsePropertyExpr(constraint.rhs) ||
          !Expect(TokenKind::kSemi, "after constraint")) {
        return false;
      }
      unit.constraints.push_back(std::move(constraint));
    }
    Take();  // }
    MaybeSemi();
    return true;
  }

  bool ParsePropertyExpr(PropertyExpr& out) {
    out.loc = Loc(Cur());
    std::string first;
    if (!ExpectAnyIdent(first, "(property or value name)")) {
      return false;
    }
    if (!At(TokenKind::kLParen)) {
      out.kind = PropertyExpr::Kind::kValue;
      out.name = std::move(first);
      return true;
    }
    Take();  // (
    out.property = std::move(first);
    if (AtWord(KnitWord::kImports)) {
      Take();
      out.kind = PropertyExpr::Kind::kOfImports;
    } else if (AtWord(KnitWord::kExports)) {
      Take();
      out.kind = PropertyExpr::Kind::kOfExports;
    } else {
      out.kind = PropertyExpr::Kind::kOfPort;
      if (!ExpectAnyIdent(out.name, "(port name)")) {
        return false;
      }
    }
    return Expect(TokenKind::kRParen, "to close property expression");
  }

  // Declarations may optionally be terminated with ';'.
  void MaybeSemi() {
    if (At(TokenKind::kSemi)) {
      Take();
    }
  }

  const std::vector<Token>& tokens_;
  const std::string& file_;
  KnitProgram& program_;
  Diagnostics& diags_;
  size_t pos_ = 0;
  std::string current_property_;
};

}  // namespace

Result<void> ParseKnitInto(std::string_view source, const std::string& file_name,
                           KnitProgram& program, Diagnostics& diags) {
  Result<std::vector<Token>> tokens = LexKnit(source, file_name, diags);
  if (!tokens.ok()) {
    return Result<void>::Failure();
  }
  Parser parser(tokens.value(), file_name, program, diags);
  return parser.Run() ? Result<void>::Success() : Result<void>::Failure();
}

Result<KnitProgram> ParseKnit(std::string_view source, const std::string& file_name,
                              Diagnostics& diags) {
  KnitProgram program;
  if (!ParseKnitInto(source, file_name, program, diags).ok()) {
    return Result<KnitProgram>::Failure();
  }
  return program;
}

}  // namespace knit
