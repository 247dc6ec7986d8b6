// Optimizer scaling: at -O2 the per-function optimizer runs in the compile
// stage (the object passes) and again in link-optimize (the image `simplify`
// pass), and both must stay near-linear in the length of one function. When
// value numbering scanned every live forward entry per load and store, one
// function of 8,000 lines cost ~13x (compile) and ~16x (link-optimize) one of
// 2,000 lines, where linear is 4x.
//
// The object pipeline's `inline` pass must also stay linear in the number of
// functions of one object: when it recounted the object's call sites for every
// function, a unit of 8,000 small functions cost ~21x one of 2,000. So must
// the objcopy step that hides the object's unexported globals: when it looked
// each one up by name, the same two units cost 135 ms and 6.25 ms (21.6x). And
// so must the whole compile stage: when codegen found each referenced symbol
// by scanning the symbol table, the two units' -O1 compile read 8.6-12x.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/driver/pipeline.h"
#include "tests/long_function.h"

namespace knit {
namespace {

struct StageTimes {
  double compile = 0;
  double link_optimize = 0;
};

// The compile and link-optimize seconds of one -O2 build of `source` alone.
StageTimes O2StageSeconds(const std::string& source) {
  SourceMap sources = {{"long.c", source}};
  KnitcOptions options;
  options.opt_level = 2;
  KnitPipeline pipeline(options);  // a fresh in-memory cache: every run compiles
  Diagnostics diags;
  Result<LinkedImage> built = pipeline.Build(kLongKnit, sources, "Long", diags);
  EXPECT_TRUE(built.ok()) << diags.ToString();
  EXPECT_EQ(pipeline.metrics().CacheMisses(), 1);
  return StageTimes{pipeline.metrics().StageSeconds("compile"),
                    pipeline.metrics().StageSeconds("link-optimize")};
}

// n small global functions, each calling the one before it, and `run` calling
// the last: the inliner splices chains of them until they outgrow its budget.
std::string ManyFunctions(int n) {
  std::string source = "int f_0(int x) { return x + 1; }\n";
  for (int i = 1; i < n; ++i) {
    source += "int f_" + std::to_string(i) + "(int x) { return f_" + std::to_string(i - 1) +
              "(x) ^ " + std::to_string(i) + "; }\n";
  }
  return source + "int run(int x) { return f_" + std::to_string(n - 1) + "(x); }\n";
}

struct CountTimes {
  double compile = 0;
  double inline_pass = 0;
  double objcopy = 0;
};

// The compile stage's, the `inline` row's and the objcopy stage's seconds of
// one -O1 build of `source` alone.
CountTimes FunctionCountSeconds(const std::string& source) {
  SourceMap sources = {{"long.c", source}};
  KnitcOptions options;
  options.opt_level = 1;
  KnitPipeline pipeline(options);
  Diagnostics diags;
  Result<LinkedImage> built = pipeline.Build(kLongKnit, sources, "Long", diags);
  EXPECT_TRUE(built.ok()) << diags.ToString();
  CountTimes times;
  times.compile = pipeline.metrics().StageSeconds("compile");
  times.objcopy = pipeline.metrics().StageSeconds("objcopy");
  for (const PassStats& row : pipeline.metrics().pass_stats) {
    if (row.pass == "inline") {
      times.inline_pass = row.seconds;
      return times;
    }
  }
  ADD_FAILURE() << "no inline row";
  return times;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

TEST(OptimizerScaling, O2StagesAreNearLinearInFunctionLength) {
  // Both sizes in one process, runs alternating between them, each side taking
  // its median of nine: host-speed drift and one-off stalls move neither side
  // alone. CTest runs this test alone (RUN_SERIAL), so parallel tests do not
  // load the host under it.
  const std::string small_source = LongFunction(2000);
  const std::string large_source = LongFunction(8000);
  std::vector<double> small_compile, large_compile, small_link, large_link;
  for (int run = 0; run < 9; ++run) {
    StageTimes small = O2StageSeconds(small_source);
    StageTimes large = O2StageSeconds(large_source);
    small_compile.push_back(small.compile);
    large_compile.push_back(large.compile);
    small_link.push_back(small.link_optimize);
    large_link.push_back(large.link_optimize);
  }
  const double compile_small = Median(small_compile);
  const double compile_large = Median(large_compile);
  const double link_small = Median(small_link);
  const double link_large = Median(large_link);
  ASSERT_GT(compile_small, 0.0);
  ASSERT_GT(link_small, 0.0);
  EXPECT_LE(compile_large / compile_small, 6.0)
      << "compile: n=2000 " << compile_small * 1e3 << " ms, n=8000 " << compile_large * 1e3
      << " ms";
  EXPECT_LE(link_large / link_small, 6.0)
      << "link-optimize: n=2000 " << link_small * 1e3 << " ms, n=8000 " << link_large * 1e3
      << " ms";
}

TEST(OptimizerScaling, InlineAndObjcopyAreLinearInFunctionCount) {
  // Alternating runs and medians of nine, as above.
  const std::string small_source = ManyFunctions(2000);
  const std::string large_source = ManyFunctions(8000);
  std::vector<double> small_compile, large_compile, small_inline, large_inline, small_objcopy,
      large_objcopy;
  for (int run = 0; run < 9; ++run) {
    CountTimes small = FunctionCountSeconds(small_source);
    CountTimes large = FunctionCountSeconds(large_source);
    small_compile.push_back(small.compile);
    large_compile.push_back(large.compile);
    small_inline.push_back(small.inline_pass);
    large_inline.push_back(large.inline_pass);
    small_objcopy.push_back(small.objcopy);
    large_objcopy.push_back(large.objcopy);
  }
  const double compile_small = Median(small_compile);
  const double compile_large = Median(large_compile);
  const double inline_small = Median(small_inline);
  const double inline_large = Median(large_inline);
  const double objcopy_small = Median(small_objcopy);
  const double objcopy_large = Median(large_objcopy);
  ASSERT_GT(compile_small, 0.0);
  ASSERT_GT(inline_small, 0.0);
  ASSERT_GT(objcopy_small, 0.0);
  EXPECT_LE(compile_large / compile_small, 6.0)
      << "compile: n=2000 " << compile_small * 1e3 << " ms, n=8000 " << compile_large * 1e3
      << " ms";
  EXPECT_LE(inline_large / inline_small, 6.0)
      << "inline: n=2000 " << inline_small * 1e3 << " ms, n=8000 " << inline_large * 1e3
      << " ms";
  EXPECT_LE(objcopy_large / objcopy_small, 6.0)
      << "objcopy: n=2000 " << objcopy_small * 1e3 << " ms, n=8000 " << objcopy_large * 1e3
      << " ms";
}

}  // namespace
}  // namespace knit
