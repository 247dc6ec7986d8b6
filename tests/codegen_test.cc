// Codegen-level unit tests: instruction selection and encodings the rest of the
// toolchain depends on (call result flags, pointer scaling, short-circuit shape,
// string interning, global layout, DCE behaviour).
#include <gtest/gtest.h>

#include "tests/testutil.h"

namespace knit {
namespace {

const BytecodeFunction* FindFn(const ObjectFile& object, const std::string& name) {
  for (const BytecodeFunction& function : object.functions) {
    if (function.name == name) {
      return &function;
    }
  }
  return nullptr;
}

TEST(Codegen, CallEncodesArgcAndResultFlag) {
  std::string error;
  Result<ObjectFile> object = CompileSource(
      "extern int with_result(int, int);\n"
      "extern void no_result(int);\n"
      "int f(void) { no_result(1); return with_result(2, 3); }\n",
      /*optimize=*/false, &error);
  ASSERT_TRUE(object.ok()) << error;
  const BytecodeFunction* f = FindFn(object.value(), "f");
  ASSERT_NE(f, nullptr);
  int calls = 0;
  for (const Insn& insn : f->code) {
    if (insn.op != Op::kCall) {
      continue;
    }
    ++calls;
    const ObjSymbol& callee = object.value().symbols()[insn.a];
    if (callee.name() == "no_result") {
      EXPECT_EQ(CallArgc(insn.b), 1);
      EXPECT_FALSE(CallReturns(insn.b));
    } else {
      EXPECT_EQ(callee.name(), "with_result");
      EXPECT_EQ(CallArgc(insn.b), 2);
      EXPECT_TRUE(CallReturns(insn.b));
    }
  }
  EXPECT_EQ(calls, 2);
}

TEST(Codegen, PointerArithmeticScalesByElementSize) {
  // p + n on an int* must multiply by 4 somewhere; verified behaviourally plus a
  // static check that a *4 constant appears at -O0.
  std::string error;
  Result<ObjectFile> object = CompileSource(
      "int f(int *p, int n) { return *(p + n); }", /*optimize=*/false, &error);
  ASSERT_TRUE(object.ok()) << error;
  const BytecodeFunction* f = FindFn(object.value(), "f");
  bool saw_scale = false;
  for (const Insn& insn : f->code) {
    if (insn.op == Op::kConstInt && insn.a == 4) {
      saw_scale = true;
    }
  }
  EXPECT_TRUE(saw_scale);
  EXPECT_EQ(RunBoth("int g[3] = {10, 20, 30};\n"
                    "int f(int n) { int *p = g; return *(p + n); }",
                    "f", {2}),
            30u);
}

TEST(Codegen, StringLiteralsAreInternedOnce) {
  std::string error;
  Result<ObjectFile> object = CompileSource(
      "char *a(void) { return \"shared\"; }\n"
      "char *b(void) { return \"shared\"; }\n"
      "char *c(void) { return \"different\"; }\n",
      /*optimize=*/false, &error);
  ASSERT_TRUE(object.ok()) << error;
  int string_symbols = 0;
  for (const ObjSymbol& symbol : object.value().symbols()) {
    if (symbol.name().rfind(".str", 0) == 0) {
      ++string_symbols;
    }
  }
  EXPECT_EQ(string_symbols, 2);
}

TEST(Codegen, GlobalLayoutRespectsAlignment) {
  std::string error;
  Result<ObjectFile> object = CompileSource(
      "char c1 = 1;\nint aligned = 2;\nchar c2 = 3;\nint aligned2 = 4;\n",
      /*optimize=*/false, &error);
  ASSERT_TRUE(object.ok()) << error;
  for (const ObjSymbol& symbol : object.value().symbols()) {
    if (symbol.name().rfind("aligned", 0) == 0) {
      EXPECT_EQ(symbol.index % 4, 0) << symbol.name();
    }
  }
}

TEST(Codegen, BreakOutsideLoopIsAnError) {
  std::string error;
  Result<ObjectFile> object =
      CompileSource("int f(void) { break; return 0; }", /*optimize=*/false, &error);
  EXPECT_FALSE(object.ok());
  EXPECT_NE(error.find("'break' outside"), std::string::npos) << error;
}

TEST(Codegen, AddressTakenStaticsSurviveDce) {
  std::string error;
  Result<ObjectFile> object = CompileSource(
      "static int hook_fn(int x) { return x + 1; }\n"
      "int (*get_hook(void))(int) { return hook_fn; }\n",
      /*optimize=*/true, &error);
  ASSERT_TRUE(object.ok()) << error;
  EXPECT_NE(FindFn(object.value(), "hook_fn"), nullptr)
      << "address-taken static must not be removed";
}

TEST(Codegen, UncalledStaticsAreRemovedAtO2) {
  std::string error;
  Result<ObjectFile> object = CompileSource(
      "static int dead(int x) { return x; }\n"
      "int live(void) { return 1; }\n",
      /*optimize=*/true, &error);
  ASSERT_TRUE(object.ok()) << error;
  EXPECT_EQ(FindFn(object.value(), "dead"), nullptr);
  EXPECT_NE(FindFn(object.value(), "live"), nullptr);
}

TEST(Codegen, VariadicFunctionsAreNeverInlined) {
  std::string error;
  Result<ObjectFile> object = CompileSource(
      "extern int __vararg(int);\n"
      "extern int __vararg_count(void);\n"
      "static int sum(int n, ...) { int s = 0; for (int i = 0; i < __vararg_count(); i++) "
      "s += __vararg(i); return s + n; }\n"
      "int f(void) { return sum(1, 2, 3); }\n",
      /*optimize=*/true, &error);
  ASSERT_TRUE(object.ok()) << error;
  EXPECT_NE(FindFn(object.value(), "sum"), nullptr);
  const BytecodeFunction* f = FindFn(object.value(), "f");
  bool calls_sum = false;
  for (const Insn& insn : f->code) {
    if (insn.op == Op::kCall) {
      calls_sum = true;
    }
  }
  EXPECT_TRUE(calls_sum);
}

TEST(Codegen, CharStoresTruncate) {
  EXPECT_EQ(RunBoth("char g;\n"
                    "int f(int v) { g = (char)v; return g; }\n",
                    "f", {0x1FF}),
            static_cast<uint32_t>(-1));  // low byte 0xFF sign-extends
}

TEST(Codegen, UnsignedModAndDiv) {
  EXPECT_EQ(RunBoth("unsigned f(unsigned a, unsigned b) { return a / b + a % b; }", "f",
                    {0xFFFFFFFEu, 16u}),
            0xFFFFFFFEu / 16 + 0xFFFFFFFEu % 16);
}

TEST(Codegen, NestedTernaryAndComparisonChains) {
  const char* source =
      "int f(int a, int b, int c) {\n"
      "  return a < b ? (b < c ? c : b) : (a == c ? a + 1 : a - 1);\n"
      "}\n";
  EXPECT_EQ(RunBoth(source, "f", {1, 2, 3}), 3u);
  EXPECT_EQ(RunBoth(source, "f", {5, 2, 5}), 6u);
  EXPECT_EQ(RunBoth(source, "f", {5, 2, 4}), 4u);
}

}  // namespace
}  // namespace knit
