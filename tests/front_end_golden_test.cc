// Front-end oracle: the MiniC and Knit front ends must produce the same ASTs,
// source locations and diagnostics from one change to the next. The digests
// below pin, for every Clack and OSKit atomic unit, the printed translation
// unit after parsing and semantic analysis plus every node's file:line:col and
// the unit's SemaInfo; for both corpus .knit texts, the printed program plus
// every declaration's location; and, for malformed inputs, the exact rendered
// diagnostics. A mismatch prints the new value so a deliberate front-end
// change can update its row.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/clack/corpus.h"
#include "src/knitlang/parser.h"
#include "src/knitlang/printer.h"
#include "src/knitsem/elaborate.h"
#include "src/minic/cparser.h"
#include "src/minic/printer.h"
#include "src/minic/sema.h"
#include "src/oskit/corpus.h"
#include "src/support/hash.h"

namespace knit {
namespace {

void HashLoc(Fnv64& h, const SourceLoc& loc) {
  h.Update(loc.file).Update(loc.line).Update(loc.column);
}

void HashExpr(Fnv64& h, const Expr& expr) {
  HashLoc(h, expr.loc);
  h.Update(expr.type != nullptr ? expr.type->ToString() : "-").Update(expr.is_lvalue);
  for (const ExprPtr& arg : expr.args) {
    if (arg) {
      HashExpr(h, *arg);
    }
  }
}

void HashStmt(Fnv64& h, const Stmt& stmt) {
  HashLoc(h, stmt.loc);
  for (const ExprPtr& expr : stmt.exprs) {
    if (expr) {
      HashExpr(h, *expr);
    }
  }
  for (const StmtPtr& child : stmt.stmts) {
    if (child) {
      HashStmt(h, *child);
    }
  }
}

void HashNames(Fnv64& h, const std::set<std::string>& names) {
  h.Update(static_cast<uint64_t>(names.size()));
  for (const std::string& name : names) {
    h.Update(name);
  }
}

// Digest of one unit's front-end output: the printed TU, every node location
// and annotated type, and the SemaInfo sets.
std::string UnitDigest(const TranslationUnit& unit, const SemaInfo& info) {
  Fnv64 h;
  h.Update(PrintTranslationUnit(unit));
  for (const Decl& decl : unit.decls) {
    HashLoc(h, decl.loc);
    if (decl.body) {
      HashStmt(h, *decl.body);
    }
    if (decl.init) {
      HashExpr(h, *decl.init);
    }
    for (const ExprPtr& element : decl.init_list) {
      HashExpr(h, *element);
    }
  }
  for (const auto& [name, type] : info.functions) {
    h.Update(name).Update(type->ToString());
  }
  for (const auto& [name, type] : info.globals) {
    h.Update(name).Update(type->ToString());
  }
  HashNames(h, info.defined_functions);
  HashNames(h, info.defined_globals);
  HashNames(h, info.address_taken);
  HashNames(h, info.undefined);
  return HexDigest(h.digest());
}

std::string KnitDigest(const KnitProgram& program) {
  Fnv64 h;
  h.Update(PrintKnitProgram(program));
  for (const BundleTypeDecl& decl : program.bundle_types) {
    HashLoc(h, decl.loc);
  }
  for (const FlagsDecl& decl : program.flag_sets) {
    HashLoc(h, decl.loc);
  }
  for (const PropertyDecl& decl : program.properties) {
    HashLoc(h, decl.loc);
  }
  for (const PropertyValueDecl& decl : program.property_values) {
    HashLoc(h, decl.loc);
  }
  for (const UnitDecl& unit : program.units) {
    HashLoc(h, unit.loc);
    for (const std::vector<PortDecl>* ports : {&unit.imports, &unit.exports}) {
      for (const PortDecl& port : *ports) {
        HashLoc(h, port.loc);
      }
    }
    for (const DependsClause& clause : unit.depends) {
      HashLoc(h, clause.loc);
    }
    for (const RenameDecl& rename : unit.renames) {
      HashLoc(h, rename.loc);
    }
    for (const std::vector<InitFiniDecl>* list : {&unit.initializers, &unit.finalizers}) {
      for (const InitFiniDecl& decl : *list) {
        HashLoc(h, decl.loc);
      }
    }
    for (const ConstraintDecl& constraint : unit.constraints) {
      HashLoc(h, constraint.loc);
      HashLoc(h, constraint.lhs.loc);
      HashLoc(h, constraint.rhs.loc);
    }
    for (const LinkLine& line : unit.links) {
      HashLoc(h, line.loc);
    }
  }
  return HexDigest(h.digest());
}

struct Golden {
  const char* name;
  const char* expected;
};

// Parses and checks every atomic unit of `knit_text` the way the compile
// stage's FrontUnit does, and compares each unit's digest with `goldens`.
void ExpectUnitDigests(const std::string& knit_text, const SourceMap& sources,
                       const std::vector<Golden>& goldens) {
  Diagnostics diags;
  Result<KnitProgram> program = ParseKnit(knit_text, "corpus.knit", diags);
  ASSERT_TRUE(program.ok()) << diags.ToString();
  std::vector<std::string> digests;
  for (const UnitDecl& unit : program.value().units) {
    if (!unit.has_files) {
      continue;
    }
    TypeTable types;
    Result<TranslationUnit> tu = ParseCFiles(sources, unit.files, unit.name, types, diags);
    ASSERT_TRUE(tu.ok()) << unit.name << ": " << diags.ToString();
    Result<SemaInfo> info = AnalyzeTranslationUnit(tu.value(), types, diags);
    ASSERT_TRUE(info.ok()) << unit.name << ": " << diags.ToString();
    digests.push_back(UnitDigest(tu.value(), info.value()));
  }
  std::string table;
  size_t index = 0;
  for (const UnitDecl& unit : program.value().units) {
    if (unit.has_files) {
      table += "      {\"" + unit.name + "\", \"" + digests[index++] + "\"},\n";
    }
  }
  ASSERT_EQ(digests.size(), goldens.size()) << "current table:\n" << table;
  index = 0;
  for (const UnitDecl& unit : program.value().units) {
    if (!unit.has_files) {
      continue;
    }
    EXPECT_EQ(unit.name, goldens[index].name) << "current table:\n" << table;
    EXPECT_EQ(digests[index], goldens[index].expected)
        << unit.name << "; current table:\n"
        << table;
    ++index;
  }
}

TEST(FrontEndGolden, ClackUnitsParseAndCheckIdentically) {
  ExpectUnitDigests(ClackKnit(), ClackSources(),
                    {
                        {"PortCfg0", "10533097a7c6c17c"},
                        {"PortCfg1", "715a95c0fd0245b6"},
                        {"FromDevice", "729d32054361a9ce"},
                        {"Counter", "990252e5d94418b4"},
                        {"Classifier", "57a42c782e639623"},
                        {"Discard", "c08b7dd4f479109a"},
                        {"Strip", "3f898c8b53df9249"},
                        {"CheckIPHeader", "79f71ab749bafe0b"},
                        {"RouteLookup", "d5d2bc1ce5371f8f"},
                        {"DecIPTTL", "8406a98acca2db8b"},
                        {"FixIPChecksum", "506aba137b2e4a78"},
                        {"EtherEncap", "b755a0a6ce01d9f3"},
                        {"PortSwitch", "a11e33622b26f8e3"},
                        {"Queue", "e225e8b5c2f5f16c"},
                        {"ToDevice", "1413bd2343cf4765"},
                        {"ARPResponder", "5b5ab280f7d7019d"},
                        {"HandIn", "b4aa832b37ffabcc"},
                        {"HandOut", "64d183c9c72f0198"},
                        {"AllocBump", "81647d69b293a36a"},
                        {"AllocArena", "ce8d20740516c78c"},
                        {"AllocFreelist", "e0f418cde17d4d6a"},
                        {"AllocBuddy", "33c563c48bd56768"},
                        {"PayloadScratch", "95873124d1fbf804"},
                    });
}

TEST(FrontEndGolden, OskitUnitsParseAndCheckIdentically) {
  ExpectUnitDigests(OskitKnit(), OskitSources(),
                    {
                        {"VgaConsole", "897d6c490126a611"},
                        {"SerialConsole", "95607529173cce35"},
                        {"ConsolePrefixer", "d3ceeb495ee5454d"},
                        {"PThreadLock", "e1cbcf8cd25fc4d7"},
                        {"LockedConsole", "5f79f5efca35b803"},
                        {"IntrHandler", "af2df602b42d741f"},
                        {"Printf", "89536f196c18da10"},
                        {"BumpMalloc", "2d6308501149ee6c"},
                        {"PoolMalloc", "f5d5abff535780a5"},
                        {"MemFs", "bd648d71690581d4"},
                        {"StdioLib", "d1dc87a980bc1894"},
                        {"Web", "7b49c14870b355fa"},
                        {"Log", "dfc5dc1182f47322"},
                        {"FileServer", "e2c6e7491125d018"},
                        {"CgiServer", "6f1de9c9e47c421c"},
                        {"PingGood", "14716b637f80a510"},
                        {"PongGood", "fa0bcb3dc2b0c2b0"},
                        {"PingBad", "eabd37710cd2c187"},
                        {"PongBad", "faafe4ea7f69f0c7"},
                    });
}

TEST(FrontEndGolden, CorpusKnitTextsParseIdentically) {
  for (const auto& [name, text, expected] : {
           std::tuple<const char*, const std::string*, const char*>{"clack.knit", &ClackKnit(),
                                                                    "1ecd0ada5af0cfb6"},
           {"oskit.knit", &OskitKnit(), "4c7ae1449233bf34"},
       }) {
    Diagnostics diags;
    Result<KnitProgram> program = ParseKnit(*text, name, diags);
    ASSERT_TRUE(program.ok()) << diags.ToString();
    EXPECT_EQ(KnitDigest(program.value()), expected) << name;
  }
}

// `text` as a C++ string literal, for the rows printed on a mismatch.
std::string CppLiteral(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\0':
        out += "\\000";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out += c;
    }
  }
  return out + "\"";
}

// String and character literals with escapes decode the same way in both
// languages.
TEST(FrontEndGolden, EscapesDecodeIdentically) {
  TypeTable types;
  Diagnostics diags;
  Result<TranslationUnit> unit = ParseCString(
      "char *s = \"a\\tb\\\\\\\"c\\n\\0'\\r\";\nchar q = '\\'';\nchar z = '\\0';\n",
      "esc.c", types, diags);
  ASSERT_TRUE(unit.ok()) << diags.ToString();
  EXPECT_EQ(unit.value().decls[0].init->text, std::string("a\tb\\\"c\n\0'\r", 10));
  EXPECT_EQ(unit.value().decls[1].init->int_value, '\'');
  EXPECT_EQ(unit.value().decls[2].init->int_value, 0);
  Result<KnitProgram> program =
      ParseKnit("flags F = { \"a\\tb\\\\\\\"c\\n\", \"plain\" }\n", "esc.knit", diags);
  ASSERT_TRUE(program.ok()) << diags.ToString();
  EXPECT_EQ(program.value().flag_sets[0].flags[0], "a\tb\\\"c\n");
  EXPECT_EQ(program.value().flag_sets[0].flags[1], "plain");
  EXPECT_EQ(diags.ToString(), "");
}

// Runs the MiniC front end (lexer, parser, sema) over `source` as main.c, with
// two headers to include: "ok.h" and "bad.h" (which fails to lex).
std::string MiniCDiagnostics(const std::string& source) {
  SourceMap sources;
  sources["main.c"] = source;
  sources["ok.h"] = "typedef int T;\nint y;\n";
  sources["bad.h"] = "int z;\nint y = @;\n";
  TypeTable types;
  Diagnostics diags;
  Result<TranslationUnit> unit = ParseC(sources, "main.c", types, diags);
  if (unit.ok()) {
    AnalyzeTranslationUnit(unit.value(), types, diags);
  }
  return diags.ToString();
}

// Runs the Knit front end (lexer, parser, elaborator) over `source`.
std::string KnitDiagnostics(const std::string& source) {
  Diagnostics diags;
  Result<KnitProgram> program = ParseKnit(source, "bad.knit", diags);
  if (program.ok()) {
    Elaborate(program.value(), diags);
  }
  return diags.ToString();
}

struct BadInput {
  const char* source;
  const char* expected;
};

void ExpectDiagnostics(const std::vector<BadInput>& cases,
                       std::string (*run)(const std::string&)) {
  for (const BadInput& bad : cases) {
    std::string actual = run(bad.source);
    EXPECT_EQ(actual, bad.expected)
        << "current row:\n    {" << CppLiteral(bad.source) << ",\n     " << CppLiteral(actual)
        << "},";
  }
}

TEST(FrontEndGolden, MiniCDiagnosticsAreUnchanged) {
  const std::vector<BadInput> cases = {
    // lexer
    {"int x = @;\n",
     "main.c:1:9: error: unexpected character '@' in MiniC source\n"},
    {"int x;\n/* never closed\n",
     "main.c:2:1: error: unterminated block comment\n"},
    {"char *s = \"ab\nc\";\n",
     "main.c:1:11: error: unterminated string literal\n"},
    {"char *s = \"ab",
     "main.c:1:11: error: unterminated string literal\n"},
    {"int c = 'ab';\n",
     "main.c:1:9: error: unterminated character literal\n"},
    {"#define X 1\n",
     "main.c:1:1: error: unsupported preprocessor directive '#define' (MiniC supports only #include \"file\")\n"},
    {"#include <h.h>\n",
     "main.c:1:10: error: #include expects a \"file\" name\n"},
    {"#include \"missing.h\"\nint x;\n",
     "missing.h: error: no such source file 'missing.h'\nmain.c:1:1: note: included from here\n"},
    {"#include \"bad.h\"\nint x;\n",
     "bad.h:2:9: error: unexpected character '@' in MiniC source\nmain.c:1:1: note: included from here\n"},
    {"#include \"ok.h\"\n#include \"ok.h\"\nT x = ;\n",
     "main.c:3:7: error: expected expression, found ';'\n"},
    {"char c = '\\q';\nchar *s = \"a\\wb\";\n",
     "main.c:1:10: warning: unknown escape '\\q'\nmain.c:2:11: warning: unknown escape '\\w'\n"},
    // parser
    {"int f( { }\n",
     "main.c:1:8: error: expected a type, found '{'\n"},
    {"struct { int a; } x;\n",
     "main.c:1:8: error: expected struct tag, found '{'\n"},
    {"int x[n];\n",
     "main.c:1:7: error: array size must be an integer or enum constant\n"},
    {"int g(void);\nenum { A = g() };\n",
     "main.c:2:13: error: enum value for 'A' is not a constant expression\n"},
    {"int f(void) { return 1 }\n",
     "main.c:1:24: error: expected ';' after return, found '}'\n"},
    {"int f(void) { if (1) {\n",
     "main.c: error: unexpected end of input inside block\n"},
    {"int a[];\n",
     "main.c:1:5: error: array 'a' has no size and no initializer\n"},
    {"int f(int) { return 0; }\n",
     "main.c:1:5: error: function definition 'f' has an unnamed parameter\n"},
    {"int f(void) { int v[]; return 0; }\n",
     "main.c:1:15: error: local array 'v' must have an explicit size\n"},
    {"int f(void) { return (int x)0; }\n",
     "main.c:1:28: error: type name may not declare 'x'\n"},
    {"int f(void) { return s.; }\n",
     "main.c:1:24: error: expected member name, found ';'\n"},
    {"struct s { int a; };\nstruct s { char b; };\n",
     "main.c:2:1: error: struct 's' redefined with a different layout\n"},
    {"typedef int T;\nint f(void) { return sizeof(T x); }\n",
     "main.c:2:32: error: type name may not declare 'x'\n"},
    // sema
    {"int f(void) { return y; }\n",
     "main.c:1:22: error: use of undeclared identifier 'y'\n"},
    {"int f(void) { int a; int a; return 0; }\n",
     "main.c:1:22: error: redeclaration of 'a' in the same scope\n"},
    {"void f(void) { return 1; }\n",
     "main.c:1:16: error: returning a value from a void function\n"},
    {"int f(void) { return; }\n",
     "main.c:1:15: error: return without a value in a non-void function\n"},
    {"int x;\nint x(void);\n",
     "main.c:2:5: error: 'x' declared as both function and variable\n"},
    {"struct s;\nstruct s g;\n",
     "main.c:2:10: error: global 'g' has incomplete type struct s\n"},
    {"int f(int a);\nchar f(int a);\n",
     "main.c:2:6: error: conflicting declarations of function 'f': int (int) vs char (int)\n"},
    {"int f(void) { return 0; }\nint f(void) { return 1; }\n",
     "main.c:2:5: error: function 'f' defined more than once\n"},
    {"int f(void) { int *p; return p + p; }\n",
     "main.c:1:32: error: invalid operands to '+': int * and int *\n"},
    {"int f(void) { int a; return a.b; }\n",
     "main.c:1:30: error: '.' applied to non-struct type int\n"},
    {"int f(int a) { return f(); }\n",
     "main.c:1:24: error: call passes 0 arguments; callee expects 1\n"},
    {"int f(void) { void v; return 0; }\n",
     "main.c:1:15: error: local 'v' has invalid type void\n"},
    {"int f(void) { 1 = 2; return 0; }\n",
     "main.c:1:17: error: assignment target is not an lvalue\n"},
  };
  ExpectDiagnostics(cases, MiniCDiagnostics);
}

TEST(FrontEndGolden, KnitDiagnosticsAreUnchanged) {
  const std::vector<BadInput> cases = {
    // lexer
    {"unit A = { @ }\n",
     "bad.knit:1:12: error: unexpected character '@' in Knit source\n"},
    {"flags F = { \"abc",
     "bad.knit:1:13: error: unterminated string literal\n"},
    {"flags F = { \"a\nb\" }\n",
     "bad.knit:1:13: error: unterminated string literal\n"},
    {"flags F = { \"a\\qb\" }\n",
     "bad.knit:1:17: error: unknown escape '\\q' in string\n"},
    {"flags F = { \"a\\",
     "bad.knit:1:13: error: unterminated string literal\n"},
    {"bundletype B = { x }\n/* open\n",
     "bad.knit:2:1: error: unterminated block comment\n"},
    // parser
    {"unit A = { imports [ x ]; }\n",
     "bad.knit:1:24: error: expected ':' between port name and bundle type, found ']'\n"},
    {"unit A = { files { \"a.c\" }; link { }; }\n",
     "bad.knit:1:1: error: unit 'A' has both 'files' and 'link' sections; a unit is either atomic or compound\n"},
    {"type X < Y\n",
     "bad.knit:1:1: error: 'type' declaration with no preceding 'property'\n"},
    {"bogus\n",
     "bad.knit:1:1: error: expected 'bundletype', 'flags', 'unit', 'property', or 'type', found 'bogus'\n"},
    {"bundletype B = { x }\nunit A = { exports [o : B]; constraints { context(exports) < "
     "NoContext; }; files { \"a.c\" }; }\n",
     "bad.knit:2:60: error: expected '=' or '<=' in constraint, found '<'\n"},
    {"unit A = { imports [ x : B ] }\n",
     "bad.knit:1:30: error: expected ';' after port list, found '}'\n"},
    {"unit A = { files { a.c }; }\n",
     "bad.knit:1:20: error: expected string file name, found 'a'\n"},
    {"unit A = { rename { p.s too c; }; }\n",
     "bad.knit:1:25: error: expected 'to', found 'too'\n"},
    {"unit A = { link { [a] <- B <- [c] } }\n",
     "bad.knit:1:35: error: expected ';' after link line, found '}'\n"},
    {"unit A = { initializer f for; }\n",
     "bad.knit:1:29: error: expected identifier (export bundle name), found ';'\n"},
    {"unit A = { depends { x wants y; }; }\n",
     "bad.knit:1:24: error: expected 'needs', found 'wants'\n"},
    {"unit A = { files { \"a.c\" } with flagz F; }\n",
     "bad.knit:1:33: error: expected 'flags', found 'flagz'\n"},
    {"unit A = { bogus; }\n",
     "bad.knit:1:12: error: expected a unit section (imports, exports, depends, files, rename, initializer, finalizer, link, constraints, flatten), found 'bogus'\n"},
    // elaborator
    {"unit A = { exports [o : Nope]; files { \"a.c\" }; }\n",
     "bad.knit:1:21: error: unit 'A': unknown bundle type 'Nope'\n"},
    {"bundletype B = { x }\nunit A = { exports [o : B]; files { \"a.c\" }; }\n"
     "unit A = { exports [o : B]; files { \"a.c\" }; }\n",
     "bad.knit:3:1: error: duplicate unit 'A'\n"},
    {"bundletype B = { x }\nunit A = { exports [o : B]; rename { o.y to z; }; files { "
     "\"a.c\" }; }\n",
     "bad.knit:2:38: error: unit 'A': bundle type 'B' has no symbol 'y'\n"},
    {"bundletype B = { x }\nunit T = { imports [i : B]; exports [o : B]; link { [o] <- "
     "Missing <- [i]; }; }\n",
     "bad.knit:2:53: error: unit 'T': link of unknown unit 'Missing'\nbad.knit:2:38: error: unit 'T': export 'o' is not bound by any link line or compound import\n"},
  };
  ExpectDiagnostics(cases, KnitDiagnostics);
}

}  // namespace
}  // namespace knit
