// Knit-language lexer/parser tests, including the paper's Figure 5 verbatim.
#include <gtest/gtest.h>

#include "src/knitlang/lexer.h"
#include "src/knitlang/parser.h"

namespace knit {
namespace {

Result<KnitProgram> Parse(const std::string& text, std::string* error = nullptr) {
  Diagnostics diags;
  Result<KnitProgram> program = ParseKnit(text, "test.knit", diags);
  if (error != nullptr) {
    *error = diags.ToString();
  }
  return program;
}

TEST(KnitLexer, TokenKinds) {
  Diagnostics diags;
  auto tokens = LexKnit("unit A = { } <- <= < // comment\n/* block */ \"str\\n\"", "t", diags);
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& token : tokens.value()) {
    kinds.push_back(token.kind);
  }
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kIdent, TokenKind::kIdent, TokenKind::kEq,
                       TokenKind::kLBrace, TokenKind::kRBrace, TokenKind::kArrowLeft,
                       TokenKind::kLessEq, TokenKind::kLess, TokenKind::kString,
                       TokenKind::kEnd}));
  // A string token borrows its raw body; the parser decodes it.
  EXPECT_EQ(tokens.value()[8].text, "str\\n");
  EXPECT_EQ(DecodeKnitString(tokens.value()[8].text), "str\n");
}

TEST(KnitLexer, ReportsUnterminatedString) {
  Diagnostics diags;
  EXPECT_FALSE(LexKnit("files { \"oops", "t", diags).ok());
  EXPECT_NE(diags.FirstError().find("unterminated"), std::string::npos);
}

TEST(KnitLexer, ReportsBadCharacter) {
  Diagnostics diags;
  EXPECT_FALSE(LexKnit("unit $", "t", diags).ok());
}

// The paper's Figure 5, as printed (minus the parts its text elides).
TEST(KnitParser, PaperFigure5ParsesVerbatim) {
  const char* figure5 = R"(
bundletype Serve = { serve_web }
bundletype Stdio = { fopen, fprintf }
flags CFlags = { "-Ioskit/include" }

unit Web = {
  imports [ serveFile : Serve,
             serveCGI : Serve ];
  exports [ serveWeb : Serve ];
  depends {
     serveWeb needs (serveFile + serveCGI);
  };
  files { "web.c" } with flags CFlags;
  rename {
     serveFile.serve_web to serve_file;
     serveCGI.serve_web to serve_cgi;
  };
}

unit Log = {
  imports [ serveWeb : Serve,
               stdio : Stdio ];
  exports [ serveLog : Serve ];
  initializer open_log for serveLog;
  finalizer close_log for serveLog;
  depends {
     (open_log + close_log) needs stdio;
     serveLog needs (serveWeb + stdio);
  };
  files { "log.c" } with flags CFlags;
  rename {
     serveWeb.serve_web to serve_unlogged;
     serveLog.serve_web to serve_logged;
  };
}

unit LogServe = {
  imports [ serveFile : Serve,
            serveCGI : Serve,
            stdio : Stdio ];
  exports [ serveLog : Serve ];
  link {
    [serveWeb] <- Web <- [serveFile, serveCGI];
    [serveLog] <- Log <- [serveWeb, stdio];
  };
}
)";
  std::string error;
  Result<KnitProgram> program = Parse(figure5, &error);
  ASSERT_TRUE(program.ok()) << error;
  const KnitProgram& p = program.value();
  ASSERT_EQ(p.bundle_types.size(), 2u);
  EXPECT_EQ(p.bundle_types[0].name, "Serve");
  EXPECT_EQ(p.bundle_types[1].symbols, (std::vector<std::string>{"fopen", "fprintf"}));
  ASSERT_EQ(p.flag_sets.size(), 1u);
  EXPECT_EQ(p.flag_sets[0].flags[0], "-Ioskit/include");
  ASSERT_EQ(p.units.size(), 3u);

  const UnitDecl& web = p.units[0];
  EXPECT_TRUE(web.IsAtomic());
  ASSERT_EQ(web.imports.size(), 2u);
  EXPECT_EQ(web.imports[0].local_name, "serveFile");
  EXPECT_EQ(web.imports[0].bundle_type, "Serve");
  ASSERT_EQ(web.depends.size(), 1u);
  EXPECT_EQ(web.depends[0].dependents, (std::vector<std::string>{"serveWeb"}));
  EXPECT_EQ(web.depends[0].requirements, (std::vector<std::string>{"serveFile", "serveCGI"}));
  ASSERT_EQ(web.renames.size(), 2u);
  EXPECT_EQ(web.renames[0].port, "serveFile");
  EXPECT_EQ(web.renames[0].symbol, "serve_web");
  EXPECT_EQ(web.renames[0].c_name, "serve_file");
  EXPECT_EQ(web.flags_name, "CFlags");

  const UnitDecl& log = p.units[1];
  ASSERT_EQ(log.initializers.size(), 1u);
  EXPECT_EQ(log.initializers[0].function, "open_log");
  EXPECT_EQ(log.initializers[0].port, "serveLog");
  ASSERT_EQ(log.finalizers.size(), 1u);
  EXPECT_EQ(log.finalizers[0].function, "close_log");
  EXPECT_EQ(log.depends[0].dependents,
            (std::vector<std::string>{"open_log", "close_log"}));

  const UnitDecl& logserve = p.units[2];
  EXPECT_TRUE(logserve.IsCompound());
  ASSERT_EQ(logserve.links.size(), 2u);
  EXPECT_EQ(logserve.links[0].unit, "Web");
  EXPECT_EQ(logserve.links[0].outputs, (std::vector<std::string>{"serveWeb"}));
  EXPECT_EQ(logserve.links[1].inputs, (std::vector<std::string>{"serveWeb", "stdio"}));
}

TEST(KnitParser, PropertiesAndConstraints) {
  const char* text = R"(
property context
type NoContext
type ProcessContext < NoContext
unit U = {
  imports [ a : T ];
  exports [ b : T ];
  files { "u.c" };
  constraints {
    context(b) = NoContext;
    context(exports) <= context(imports);
    NoContext <= context(a);
  };
}
bundletype T = { f }
)";
  std::string error;
  Result<KnitProgram> program = Parse(text, &error);
  ASSERT_TRUE(program.ok()) << error;
  ASSERT_EQ(program.value().properties.size(), 1u);
  ASSERT_EQ(program.value().property_values.size(), 2u);
  EXPECT_EQ(program.value().property_values[1].less_than, "NoContext");
  const UnitDecl& u = program.value().units[0];
  ASSERT_EQ(u.constraints.size(), 3u);
  EXPECT_EQ(u.constraints[0].relation, ConstraintDecl::Relation::kEqual);
  EXPECT_EQ(u.constraints[0].lhs.kind, PropertyExpr::Kind::kOfPort);
  EXPECT_EQ(u.constraints[0].rhs.kind, PropertyExpr::Kind::kValue);
  EXPECT_EQ(u.constraints[1].lhs.kind, PropertyExpr::Kind::kOfExports);
  EXPECT_EQ(u.constraints[1].rhs.kind, PropertyExpr::Kind::kOfImports);
  EXPECT_EQ(u.constraints[2].lhs.kind, PropertyExpr::Kind::kValue);
}

TEST(KnitParser, FlattenMarkerAndInstanceNames) {
  const char* text = R"(
bundletype T = { f }
unit A = { imports []; exports [ o : T ]; files { "a.c" }; }
unit C = {
  imports [];
  exports [ x : T, y : T ];
  flatten;
  link {
    [x] <- A as first <- [];
    [y] <- A as second <- [];
  };
}
)";
  std::string error;
  Result<KnitProgram> program = Parse(text, &error);
  ASSERT_TRUE(program.ok()) << error;
  const UnitDecl& c = program.value().units[1];
  EXPECT_TRUE(c.flatten);
  EXPECT_EQ(c.links[0].instance_name, "first");
  EXPECT_EQ(c.links[1].instance_name, "second");
}

TEST(KnitParser, RejectsUnitWithFilesAndLink) {
  std::string error;
  EXPECT_FALSE(Parse("bundletype T = { f }\n"
                     "unit A = { exports [ o : T ]; files { \"a.c\" }; link { }; }",
                     &error)
                   .ok());
  EXPECT_NE(error.find("atomic or compound"), std::string::npos) << error;
}

TEST(KnitParser, RejectsTypeWithoutProperty) {
  std::string error;
  EXPECT_FALSE(Parse("type NoContext", &error).ok());
  EXPECT_NE(error.find("no preceding 'property'"), std::string::npos) << error;
}

TEST(KnitParser, RejectsGarbageSections) {
  std::string error;
  EXPECT_FALSE(Parse("unit A = { zorp; }", &error).ok());
  EXPECT_NE(error.find("expected a unit section"), std::string::npos) << error;
}

TEST(KnitParser, EmptyDependencySets) {
  std::string error;
  Result<KnitProgram> program = Parse(
      "bundletype T = { f }\n"
      "unit A = { imports [ i : T ]; exports [ o : T ]; files { \"a.c\" };\n"
      "  initializer init for o;\n"
      "  depends { init needs (); o needs i; }; }",
      &error);
  ASSERT_TRUE(program.ok()) << error;
  EXPECT_TRUE(program.value().units[0].depends[0].requirements.empty());
}

TEST(KnitParser, MultipleSourcesAccumulate) {
  Diagnostics diags;
  KnitProgram program;
  ASSERT_TRUE(ParseKnitInto("bundletype T = { f }", "a.knit", program, diags).ok());
  ASSERT_TRUE(ParseKnitInto("unit A = { exports [ o : T ]; files { \"a.c\" }; }", "b.knit",
                            program, diags)
                  .ok());
  EXPECT_EQ(program.bundle_types.size(), 1u);
  EXPECT_EQ(program.units.size(), 1u);
}

}  // namespace
}  // namespace knit
