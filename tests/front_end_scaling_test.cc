// Compile-time scaling: the compile stage (MiniC lexer, parser, checker and
// code generator) must stay near-linear in the length of one function. Locals
// are looked up through hashed scopes; a linear scan per lookup made one
// function of 8,000 declarations cost ~20x one of 2,000, where linear is 4x.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/driver/pipeline.h"
#include "tests/long_function.h"

namespace knit {
namespace {

// The compile-stage seconds of one -O0 build of `source` alone.
double CompileSeconds(const std::string& source) {
  SourceMap sources = {{"long.c", source}};
  KnitcOptions options;
  options.opt_level = 0;
  KnitPipeline pipeline(options);  // a fresh in-memory cache: every run compiles
  Diagnostics diags;
  Result<LinkedImage> built = pipeline.Build(kLongKnit, sources, "Long", diags);
  EXPECT_TRUE(built.ok()) << diags.ToString();
  EXPECT_EQ(pipeline.metrics().CacheMisses(), 1);
  return pipeline.metrics().StageSeconds("compile");
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

TEST(FrontEndScaling, CompileStageIsNearLinearInFunctionLength) {
  // Both sizes in one process, so a sanitizer or a slow host scales both
  // sides; runs alternate between the sizes and each side takes its median of
  // nine, so host-speed drift and one-off stalls move neither side alone. CTest
  // runs this test alone (RUN_SERIAL), so parallel tests do not load the host
  // under it.
  const std::string small_source = LongFunction(2000);
  const std::string large_source = LongFunction(8000);
  std::vector<double> small;
  std::vector<double> large;
  for (int run = 0; run < 9; ++run) {
    small.push_back(CompileSeconds(small_source));
    large.push_back(CompileSeconds(large_source));
  }
  double small_median = Median(small);
  double large_median = Median(large);
  ASSERT_GT(small_median, 0.0);
  EXPECT_LE(large_median / small_median, 6.0)
      << "n=2000: " << small_median * 1e3 << " ms, n=8000: " << large_median * 1e3 << " ms";
}

}  // namespace
}  // namespace knit
