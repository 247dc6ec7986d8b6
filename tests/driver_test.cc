// knitc driver error-path and plumbing tests: the diagnostics a component-kit user
// actually hits (missing export definitions, imports defined locally, ambiguous
// C names needing renames, static initializers, unknown files), plus export-name
// bookkeeping and the Knit printer round-trip.
#include <gtest/gtest.h>

#include "src/driver/knitc.h"
#include "src/minic/cparser.h"
#include "src/minic/sema.h"
#include "src/vm/codegen.h"
#include "src/knitlang/parser.h"
#include "src/knitlang/printer.h"
#include "src/support/mangle.h"
#include "src/vm/machine.h"

namespace knit {
namespace {

struct TryBuild {
  Result<KnitBuildResult> result = Result<KnitBuildResult>::Failure();
  std::string error;
};

TryBuild BuildWith(const std::string& knit_text, const SourceMap& sources,
                   const std::string& top, KnitcOptions options = KnitcOptions()) {
  TryBuild out;
  Diagnostics diags;
  out.result = KnitBuild(knit_text, sources, top, options, diags);
  out.error = diags.ToString();
  return out;
}

constexpr const char* kSimpleKnit = R"(
bundletype T = { f }
unit A = {
  imports [];
  exports [ o : T ];
  files { "a.c" };
}
)";

TEST(Driver, MissingExportDefinitionIsDiagnosed) {
  SourceMap sources;
  sources["a.c"] = "int not_f(void) { return 1; }\n";
  TryBuild built = BuildWith(kSimpleKnit, sources, "A");
  EXPECT_FALSE(built.result.ok());
  EXPECT_NE(built.error.find("do not define 'f'"), std::string::npos) << built.error;
}

TEST(Driver, DefinedImportIsDiagnosed) {
  const char* text = R"(
bundletype T = { f }
unit A = {
  imports [ i : T ];
  exports [ o : T ];
  files { "a.c" };
  rename { o.f to my_f; };
}
)";
  SourceMap sources;
  sources["a.c"] =
      "int f(void) { return 1; }\n"  // defines the IMPORT's C name
      "int my_f(void) { return f(); }\n";
  TryBuild built = BuildWith(text, sources, "A");
  EXPECT_FALSE(built.result.ok());
  EXPECT_NE(built.error.find("DEFINE"), std::string::npos) << built.error;
}

TEST(Driver, AmbiguousCNameNeedsRename) {
  // Importing and exporting the same bundle type without a rename: both map to the
  // same C identifier.
  const char* text = R"(
bundletype T = { f }
unit Wrap = {
  imports [ i : T ];
  exports [ o : T ];
  files { "w.c" };
}
unit Base = { imports []; exports [ o : T ]; files { "b.c" }; }
unit Top = {
  imports [];
  exports [ o : T ];
  link { [b] <- Base <- []; [o] <- Wrap <- [b]; };
}
)";
  SourceMap sources;
  sources["b.c"] = "int f(void) { return 1; }\n";
  sources["w.c"] = "int f(void) { return 2; }\n";
  TryBuild built = BuildWith(text, sources, "Top");
  EXPECT_FALSE(built.result.ok());
  // Either diagnosis is correct for this configuration: the same C identifier
  // serves two connections (needs a rename), which also means the files appear to
  // define the import's C name.
  bool mentions_rename = built.error.find("rename") != std::string::npos;
  bool mentions_defined_import = built.error.find("DEFINE") != std::string::npos;
  EXPECT_TRUE(mentions_rename || mentions_defined_import) << built.error;
}

TEST(Driver, StaticInitializerIsDiagnosed) {
  const char* text = R"(
bundletype T = { f }
unit A = {
  imports [];
  exports [ o : T ];
  initializer setup for o;
  files { "a.c" };
}
)";
  SourceMap sources;
  sources["a.c"] =
      "static void setup(void) { }\n"
      "int f(void) { return 1; }\n";
  TryBuild built = BuildWith(text, sources, "A");
  EXPECT_FALSE(built.result.ok());
  EXPECT_NE(built.error.find("static"), std::string::npos) << built.error;
}

TEST(Driver, MissingSourceFileIsDiagnosed) {
  SourceMap sources;  // a.c absent
  TryBuild built = BuildWith(kSimpleKnit, sources, "A");
  EXPECT_FALSE(built.result.ok());
  EXPECT_NE(built.error.find("no such source file"), std::string::npos) << built.error;
}

TEST(Driver, MiniCErrorsCarryUnitContext) {
  SourceMap sources;
  sources["a.c"] = "int f(void) { return ghost; }\n";
  TryBuild built = BuildWith(kSimpleKnit, sources, "A");
  EXPECT_FALSE(built.result.ok());
  EXPECT_NE(built.error.find("a.c"), std::string::npos) << built.error;
  EXPECT_NE(built.error.find("undeclared"), std::string::npos) << built.error;
}

TEST(Driver, ExportedSymbolLookup) {
  SourceMap sources;
  sources["a.c"] = "int f(void) { return 41; }\n";
  TryBuild built = BuildWith(kSimpleKnit, sources, "A");
  ASSERT_TRUE(built.result.ok()) << built.error;
  EXPECT_EQ(built.result.value().ExportedSymbol("o", "f"), MangleExport("A", "o", "f"));
  EXPECT_EQ(built.result.value().ExportedSymbol("o", "nope"), "");
  EXPECT_EQ(built.result.value().ExportedSymbol("nope", "f"), "");
  Machine machine(built.result.value().image);
  EXPECT_EQ(machine.Call(built.result.value().ExportedSymbol("o", "f")).value, 41u);
}

TEST(Driver, ExtraNativesAreLinked) {
  const char* text = R"(
bundletype T = { f }
unit A = {
  imports [];
  exports [ o : T ];
  files { "a.c" };
}
)";
  SourceMap sources;
  sources["a.c"] =
      "extern int custom_host(int);\n"
      "int f(void) { return custom_host(5); }\n";
  KnitcOptions options;
  options.extra_natives.push_back("custom_host");
  TryBuild built = BuildWith(text, sources, "A", options);
  ASSERT_TRUE(built.result.ok()) << built.error;
  Machine machine(built.result.value().image);
  machine.BindNative("custom_host",
                     [](Machine&, std::span<const uint32_t> args) { return args[0] * 3; });
  EXPECT_EQ(machine.Call(built.result.value().ExportedSymbol("o", "f")).value, 15u);
}

TEST(Driver, MultiFileUnitsCompileTogether) {
  const char* text = R"(
bundletype T = { f }
unit A = {
  imports [];
  exports [ o : T ];
  files { "part1.c", "part2.c" };
}
)";
  SourceMap sources;
  sources["part1.c"] = "static int helper(void) { return 20; }\nint f(void);\n";
  sources["part2.c"] = "static int helper2(void) { return 22; }\n"
                       "extern int helper(void);\n"  // hmm: helper is static in part1
                       "int f(void) { return helper2() + 20; }\n";
  // part1+part2 form ONE translation unit, so the static helper is visible —
  // but the extern redeclaration conflicts; use a simpler pair instead:
  sources["part1.c"] = "int helper(void) { return 20; }\n";
  sources["part2.c"] = "extern int helper(void);\nint f(void) { return helper() + 22; }\n";
  TryBuild built = BuildWith(text, sources, "A");
  ASSERT_TRUE(built.result.ok()) << built.error;
  Machine machine(built.result.value().image);
  EXPECT_EQ(machine.Call(built.result.value().ExportedSymbol("o", "f")).value, 42u);
}

TEST(Driver, UnitFlagsControlOptimization) {
  const char* text = R"(
bundletype T = { f }
flags NoOpt = { "-O0" }
unit A = {
  imports [];
  exports [ o : T ];
  files { "a.c" } with flags NoOpt;
}
)";
  SourceMap sources;
  sources["a.c"] = "int f(void) { return 2 * 3 + 4; }\n";
  TryBuild built = BuildWith(text, sources, "A");
  ASSERT_TRUE(built.result.ok()) << built.error;
  // With -O0 the constant expression is not folded: more than 2 instructions.
  const Image& image = built.result.value().image;
  int fn = image.FindFunction(built.result.value().ExportedSymbol("o", "f"));
  ASSERT_GE(fn, 0);
  EXPECT_GT(image.functions[fn].code.size(), 2u);
}

// A malformed or out-of-range -finline-limit= value is a diagnostic at the flags
// declaration, reported before any compile task runs, never an exception out
// of one.
TEST(Driver, MalformedInlineLimitFlagIsDiagnosedAtItsDeclaration) {
  SourceMap sources;
  sources["a.c"] = "int f(void) { return 1; }\n";
  for (const std::string value : {"abc", "99999999999999", "-3", "12x", ""}) {
    SCOPED_TRACE("-finline-limit=" + value);
    std::string text =
        "bundletype T = { f }\n"
        "flags Bad = { \"-finline-limit=" + value + "\" }\n"
        "unit A = {\n"
        "  imports [];\n"
        "  exports [ o : T ];\n"
        "  files { \"a.c\" } with flags Bad;\n"
        "}\n";
    TryBuild built = BuildWith(text, sources, "A");
    EXPECT_FALSE(built.result.ok());
    EXPECT_NE(built.error.find("<knit>:2:"), std::string::npos) << built.error;
    EXPECT_NE(built.error.find("flags Bad: flag '-finline-limit=" + value +
                               "' expects a non-negative integer inline limit"),
              std::string::npos)
        << built.error;
  }
  std::string good =
      "bundletype T = { f }\n"
      "flags Fine = { \"-finline-limit=12\" }\n"
      "unit A = { imports []; exports [ o : T ]; files { \"a.c\" } with flags Fine; }\n";
  TryBuild built = BuildWith(good, sources, "A");
  EXPECT_TRUE(built.result.ok()) << built.error;
}


// ---- pre-compiled (object-backed) units --------------------------------------

ObjectFile CompilePrebuilt(const std::string& source) {
  Diagnostics diags;
  TypeTable types;
  Result<TranslationUnit> unit = ParseCString(source, "blob.c", types, diags);
  EXPECT_TRUE(unit.ok()) << diags.ToString();
  Result<SemaInfo> info = AnalyzeTranslationUnit(unit.value(), types, diags);
  EXPECT_TRUE(info.ok()) << diags.ToString();
  Result<ObjectFile> object = CompileTranslationUnit(unit.value(), info.value(), types,
                                                     CodegenOptions(), "blob.o", diags);
  EXPECT_TRUE(object.ok()) << diags.ToString();
  return object.take();
}

constexpr const char* kObjectUnitKnit = R"(
bundletype T = { f }
unit Blob = {
  imports [];
  exports [ o : T ];
  files { "blob.o" };
}
unit Wrap = {
  imports [ i : T ];
  exports [ o : T ];
  files { "wrap.c" };
  rename { i.f to inner_f; };
}
unit Top = {
  imports [];
  exports [ o : T, raw : T ];
  flatten;
  link {
    [raw] <- Blob <- [];
    [o] <- Wrap <- [raw];
  };
}
)";

TEST(Driver, ObjectBackedUnitsLinkLikeSourceUnits) {
  KnitcOptions options;
  options.prebuilt_objects.emplace("blob.o",
                                   CompilePrebuilt("int f(void) { return 123; }\n"));
  SourceMap sources;
  sources["wrap.c"] =
      "extern int inner_f(void);\n"
      "int f(void) { return inner_f() + 1; }\n";
  TryBuild built = BuildWith(kObjectUnitKnit, sources, "Top", options);
  ASSERT_TRUE(built.result.ok()) << built.error;
  Machine machine(built.result.value().image);
  EXPECT_EQ(machine.Call(built.result.value().ExportedSymbol("o", "f")).value, 124u);
  EXPECT_EQ(machine.Call(built.result.value().ExportedSymbol("raw", "f")).value, 123u);
  // The flatten marker on Top applies to the source unit; the object unit is
  // automatically pulled out of the group rather than failing the build.
}

TEST(Driver, MissingPrebuiltObjectIsDiagnosed) {
  SourceMap sources;
  sources["wrap.c"] =
      "extern int inner_f(void);\n"
      "int f(void) { return inner_f() + 1; }\n";
  TryBuild built = BuildWith(kObjectUnitKnit, sources, "Top");  // no prebuilt map
  EXPECT_FALSE(built.result.ok());
  EXPECT_NE(built.error.find("no prebuilt object"), std::string::npos) << built.error;
}

TEST(Driver, PrebuiltObjectMissingExportIsDiagnosed) {
  KnitcOptions options;
  options.prebuilt_objects.emplace("blob.o",
                                   CompilePrebuilt("int not_f(void) { return 1; }\n"));
  SourceMap sources;
  sources["wrap.c"] =
      "extern int inner_f(void);\n"
      "int f(void) { return inner_f() + 1; }\n";
  TryBuild built = BuildWith(kObjectUnitKnit, sources, "Top", options);
  EXPECT_FALSE(built.result.ok());
  EXPECT_NE(built.error.find("does not define 'f'"), std::string::npos) << built.error;
}

TEST(Driver, ObjectBackedUnitCanBeMultiplyInstantiated) {
  const char* text = R"(
bundletype T = { bump }
unit Blob = {
  imports [];
  exports [ o : T ];
  files { "blob.o" };
}
unit Top = {
  imports [];
  exports [ a : T, b : T ];
  link {
    [a] <- Blob <- [];
    [b] <- Blob <- [];
  };
}
)";
  KnitcOptions options;
  options.prebuilt_objects.emplace(
      "blob.o", CompilePrebuilt("static int count = 0;\n"
                                "int bump(void) { count++; return count; }\n"));
  TryBuild built = BuildWith(text, SourceMap{}, "Top", options);
  ASSERT_TRUE(built.result.ok()) << built.error;
  Machine machine(built.result.value().image);
  std::string a = built.result.value().ExportedSymbol("a", "bump");
  std::string b = built.result.value().ExportedSymbol("b", "bump");
  machine.Call(a);
  machine.Call(a);
  EXPECT_EQ(machine.Call(a).value, 3u);
  EXPECT_EQ(machine.Call(b).value, 1u) << "objcopy-duplicated instances share no state";
}

TEST(KnitPrinter, RoundTripIsStable) {
  const char* text = R"(
bundletype Serve = { serve_web }
bundletype Stdio = { fopen, fprintf }
flags CFlags = { "-O2" }
property context
type NoContext
type ProcessContext < NoContext
unit Log = {
  imports [ serveWeb : Serve, stdio : Stdio ];
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
  constraints { context(exports) <= context(imports); };
}
unit App = {
  imports [ serveFile : Serve, serveCGI : Serve, stdio : Stdio ];
  exports [ serveLog : Serve ];
  flatten;
  link {
    [serveWeb] <- Web as web <- [serveFile, serveCGI];
    [serveLog] <- Log <- [serveWeb, stdio];
  };
}
unit Web = {
  imports [ serveFile : Serve, serveCGI : Serve ];
  exports [ serveWeb : Serve ];
  files { "web.c" };
}
)";
  Diagnostics diags;
  Result<KnitProgram> once = ParseKnit(text, "t.knit", diags);
  ASSERT_TRUE(once.ok()) << diags.ToString();
  std::string printed = PrintKnitProgram(once.value());
  Result<KnitProgram> twice = ParseKnit(printed, "printed.knit", diags);
  ASSERT_TRUE(twice.ok()) << diags.ToString() << "\n--- printed:\n" << printed;
  EXPECT_EQ(PrintKnitProgram(twice.value()), printed);
}

}  // namespace
}  // namespace knit
