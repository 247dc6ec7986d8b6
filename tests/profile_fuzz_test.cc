// Seeded mutation of a recorded profile document: the --profile-use trust
// boundary, ParseComponentProfile. A ClackRouter -O2 profile is recorded the
// way `knitc run --profile` records one, then flipped, truncated and spliced
// copies (tests/mutate.h) are parsed.
//
// Contract: every input parses or yields diagnostics, and a document that
// parses steers a --profile-use build that succeeds (warning and building
// plain -O2 when the profile does not match the build). The regression inputs
// below are documents that once broke that contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <cctype>
#include <random>
#include <string>
#include <string_view>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/clack/trace.h"
#include "src/driver/pipeline.h"
#include "src/vm/profile_trace.h"
#include "tests/mutate.h"

namespace knit {
namespace {

// The document `knitc run --profile` writes for ClackRouter -O2 over a short
// trace (the timeline capped at a few events; only the knit_profile block is
// read back).
std::string RecordClackProfile() {
  KnitcOptions o2;
  o2.opt_level = 2;
  KnitPipeline pipeline(o2);
  Diagnostics diags;
  Result<RouterProgram> program = RouterProgram::FromClack(pipeline, "ClackRouter", diags);
  EXPECT_TRUE(program.ok()) << diags.ToString();
  if (!program.ok()) {
    return "";
  }
  program.value().EnableProfiling(/*max_events=*/16);
  TraceOptions trace;
  trace.count = 64;
  Result<RouterStats> stats = program.value().RunTrace(GenerateTrace(trace), diags);
  EXPECT_TRUE(stats.ok()) << diags.ToString();
  Result<ParsedProgram> parsed = pipeline.Parse(ClackKnit(), diags);
  Result<ElaboratedConfig> elaborated =
      parsed.ok() ? pipeline.Elaborate(parsed.value(), "ClackRouter", diags)
                  : Result<ElaboratedConfig>::Failure();
  EXPECT_TRUE(elaborated.ok()) << diags.ToString();
  if (!stats.ok() || !elaborated.ok()) {
    return "";
  }
  return SerializeComponentProfile(stats.value().profile, MakeProfileMeta(elaborated.value(), 2),
                                   "ClackRouter");
}

// Parses `document`; when it parses, builds ClackRouter -O2 steered by it.
// Returns true when the document parsed.
bool ParseAndBuild(const std::string& document, const std::string& label) {
  Diagnostics diags;
  Result<LoadedProfile> loaded = ParseComponentProfile(document, diags);
  if (!loaded.ok()) {
    EXPECT_TRUE(diags.has_errors()) << label << ": rejected without a diagnostic";
    return false;
  }
  KnitcOptions options;
  options.opt_level = 2;
  options.profile = std::make_shared<const LoadedProfile>(loaded.take());
  KnitPipeline pipeline(options);
  Diagnostics build_diags;
  Result<LinkedImage> built =
      pipeline.Build(ClackKnit(), ClackSources(), "ClackRouter", build_diags);
  EXPECT_TRUE(built.ok()) << label << ": " << build_diags.ToString();
  return true;
}

TEST(ProfileFuzz, MutatedProfileDocumentsParseOrDiagnose) {
  const std::string document = RecordClackProfile();
  ASSERT_FALSE(document.empty());
  ASSERT_TRUE(ParseAndBuild(document, "the recorded document"));

  std::mt19937 rng(20261019);
  int parsed = 0;
  int rejected = 0;
  for (int mutant = 0; mutant < 240; ++mutant) {
    const std::string input = Mutate(document, mutant % 3, rng);
    if (ParseAndBuild(input, "mutant " + std::to_string(mutant))) {
      ++parsed;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
  std::printf("%zu-byte document: %d mutants parsed, %d rejected\n", document.size(), parsed,
              rejected);
}

// Regression inputs. Each must parse and build, or be rejected with a
// diagnostic, like any mutant.

// Arrays nested 100,000 deep in a skipped field: the reader recursed once per
// level and overflowed the stack.
TEST(ProfileFuzz, DeeplyNestedValueIsRejected) {
  const std::string document = "{\"knit_profile\":{\"version\":1,\"future\":" +
                               std::string(100000, '[') + std::string(100000, ']') + "}}";
  EXPECT_FALSE(ParseAndBuild(document, "100,000 nested arrays"));
}

// `document` with every counter value at the top of its range and every
// component, edge and function object listed twice.
std::string SaturateAndRepeatCounters(const std::string& document) {
  std::string out = document;
  for (const char* key :
       {"\"cycles\":", "\"ifetch_stalls\":", "\"insns\":", "\"calls_in\":", "\"calls_out\":",
        "\"calls\":"}) {
    const std::string needle = key;
    for (size_t at = out.find(needle); at != std::string::npos; at = out.find(needle, at + 1)) {
      const size_t begin = at + needle.size();
      size_t end = begin;
      while (end < out.size() &&
             (out[end] == '-' || std::isdigit(static_cast<unsigned char>(out[end])))) {
        ++end;
      }
      if (end > begin) {  // a number, not a string of the timeline's args
        out.replace(begin, end - begin, "9223372036854775807");
      }
    }
  }
  std::string repeated;
  size_t copied = 0;
  for (size_t at = out.find("{\""); at != std::string::npos; at = out.find("{\"", at + 1)) {
    const std::string_view rest(out.data() + at + 2, out.size() - at - 2);
    if (!rest.starts_with("component\"") && !rest.starts_with("caller\"") &&
        !rest.starts_with("function\"")) {
      continue;
    }
    const size_t end = out.find('}', at) + 1;  // these objects hold no nested braces
    repeated += out.substr(copied, end - copied) + "," + out.substr(at, end - at);
    copied = end;
  }
  return repeated + out.substr(copied);
}

// Every counter at the top of its range, and every component, edge and
// function listed twice: the PGO passes summed and multiplied the counters in
// signed arithmetic that overflowed.
TEST(ProfileFuzz, SaturatedAndRepeatedCountersBuild) {
  const std::string recorded = RecordClackProfile();
  ASSERT_FALSE(recorded.empty());
  const std::string document = SaturateAndRepeatCounters(recorded);
  ASSERT_NE(document.find("9223372036854775807"), std::string::npos);
  ASSERT_GT(document.size(), recorded.size());
  EXPECT_TRUE(ParseAndBuild(document, "saturated, repeated counters"));
}

}  // namespace
}  // namespace knit
