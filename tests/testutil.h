// Shared helpers for tests: compile MiniC source strings to a linked image and run
// functions, with and without optimization.
#ifndef TESTS_TESTUTIL_H_
#define TESTS_TESTUTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/ld/link.h"
#include "src/minic/cparser.h"
#include "src/minic/sema.h"
#include "src/support/diagnostics.h"
#include "src/vm/codegen.h"
#include "src/vm/machine.h"

namespace knit {

// Compiles one MiniC source to an object. Fails the test (returns nullopt-ish) on
// any diagnostic error; `diags_out`, when given, receives the diagnostics.
inline Result<ObjectFile> CompileSource(const std::string& source, bool optimize,
                                        std::string* error_out = nullptr) {
  Diagnostics diags;
  TypeTable types;
  Result<TranslationUnit> unit = ParseCString(source, "test.c", types, diags);
  if (!unit.ok()) {
    if (error_out != nullptr) {
      *error_out = diags.ToString();
    }
    return Result<ObjectFile>::Failure();
  }
  Result<SemaInfo> info = AnalyzeTranslationUnit(unit.value(), types, diags);
  if (!info.ok()) {
    if (error_out != nullptr) {
      *error_out = diags.ToString();
    }
    return Result<ObjectFile>::Failure();
  }
  CodegenOptions options;
  options.opt_level = optimize ? 1 : 0;
  Result<ObjectFile> object =
      CompileTranslationUnit(unit.value(), info.value(), types, options, "test.o", diags);
  if (!object.ok() && error_out != nullptr) {
    *error_out = diags.ToString();
  }
  return object;
}

// A compiled+linked program ready to run.
struct TestProgram {
  std::unique_ptr<Image> image;
  std::unique_ptr<Machine> machine;
  std::string error;

  bool ok() const { return machine != nullptr; }

  uint32_t Run(const std::string& function, std::vector<uint32_t> args = {}) {
    RunResult result = machine->Call(function, std::move(args));
    EXPECT_TRUE(result.ok) << function << ": " << result.error;
    return result.value;
  }
};

inline TestProgram BuildProgram(const std::string& source, bool optimize,
                                std::vector<std::string> extra_natives = {}) {
  TestProgram program;
  Result<ObjectFile> object = CompileSource(source, optimize, &program.error);
  if (!object.ok()) {
    return program;
  }
  Diagnostics diags;
  LinkOptions link_options;
  link_options.natives = {"__sbrk",   "__putchar",      "__cycles",      "__abort",
                          "__vararg", "__vararg_count", "__trace",       "__alloc_note",
                          "__free_note"};
  for (std::string& native : extra_natives) {
    link_options.natives.push_back(std::move(native));
  }
  std::vector<LinkItem> items;
  items.emplace_back(object.take());
  Result<LinkResult> linked = Link(std::move(items), link_options, diags);
  if (!linked.ok()) {
    program.error = diags.ToString();
    return program;
  }
  program.image = std::make_unique<Image>(std::move(linked.value().image));
  program.machine = std::make_unique<Machine>(*program.image);
  return program;
}

// Runs `function` in both unoptimized and optimized builds of `source` and checks
// they agree; returns the (checked-equal) value.
inline uint32_t RunBoth(const std::string& source, const std::string& function,
                        std::vector<uint32_t> args = {}) {
  TestProgram plain = BuildProgram(source, /*optimize=*/false);
  TestProgram optimized = BuildProgram(source, /*optimize=*/true);
  EXPECT_TRUE(plain.ok()) << plain.error;
  EXPECT_TRUE(optimized.ok()) << optimized.error;
  if (!plain.ok() || !optimized.ok()) {
    return 0;
  }
  uint32_t a = plain.Run(function, args);
  uint32_t b = optimized.Run(function, args);
  EXPECT_EQ(a, b) << "optimizer changed the result of " << function;
  EXPECT_EQ(plain.machine->console(), optimized.machine->console())
      << "optimizer changed console output of " << function;
  return a;
}

}  // namespace knit

#endif  // TESTS_TESTUTIL_H_
