// Seeded mutation testing of both front ends. Every corpus .c file and both
// corpus .knit texts are mutated by byte flips, truncations and token splices,
// then run through the MiniC lexer, parser and checker or the Knit parser and
// elaborator. Each input must end in success or in error diagnostics: never a
// crash, a sanitizer report, or a failure that reports nothing. The budget is
// fixed, so the test is deterministic; the ASan+UBSan lane runs it instrumented.
// MiniC mutants are also lexed from an exactly-sized heap buffer, so a read past
// the end of the input is a heap overflow there, not a read of a terminator.
//
// Inputs that once broke a front end are kept in kMiniCRegressions.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/clack/corpus.h"
#include "src/knitlang/parser.h"
#include "src/knitsem/elaborate.h"
#include "src/minic/cparser.h"
#include "src/minic/sema.h"
#include "src/oskit/corpus.h"
#include "tests/mutate.h"

namespace knit {
namespace {

constexpr int kFlipsPerInput = 40;
constexpr int kTruncationsPerInput = 16;
constexpr int kSplicesPerInput = 40;

// Runs the MiniC front end over `file` of `sources`. Returns "" when the input
// was accepted or rejected with an error, and a complaint otherwise.
std::string RunMiniC(const SourceMap& sources, const std::string& file) {
  const std::string& text = sources.at(file);
  auto exact = std::make_unique<char[]>(text.size());
  std::memcpy(exact.get(), text.data(), text.size());
  Diagnostics lex_diags;
  Result<std::vector<CToken>> tokens =
      LexCString(std::string_view(exact.get(), text.size()), file, lex_diags);
  if (!tokens.ok() && !lex_diags.has_errors()) {
    return "LexCString failed without an error";
  }
  TypeTable types;
  Diagnostics diags;
  Result<TranslationUnit> unit = ParseCFiles(sources, {file}, file, types, diags);
  if (!unit.ok()) {
    return diags.has_errors() ? "" : "ParseCFiles failed without an error";
  }
  Result<SemaInfo> info = AnalyzeTranslationUnit(unit.value(), types, diags);
  if (!info.ok() && !diags.has_errors()) {
    return "AnalyzeTranslationUnit failed without an error";
  }
  return "";
}

std::string RunKnit(const std::string& text) {
  Diagnostics diags;
  Result<KnitProgram> program = ParseKnit(text, "fuzz.knit", diags);
  if (!program.ok()) {
    return diags.has_errors() ? "" : "ParseKnit failed without an error";
  }
  Result<Elaboration> elaboration = Elaborate(program.value(), diags);
  if (!elaboration.ok() && !diags.has_errors()) {
    return "Elaborate failed without an error";
  }
  return "";
}

// Calls `run` on `kFlipsPerInput + kTruncationsPerInput + kSplicesPerInput`
// mutants of `text`; returns how many it ran.
template <typename Run>
int FuzzText(const std::string& label, const std::string& text, std::mt19937& rng, Run run) {
  int runs = 0;
  for (auto [kind, count] : {std::pair{0, kFlipsPerInput}, std::pair{1, kTruncationsPerInput},
                             std::pair{2, kSplicesPerInput}}) {
    for (int i = 0; i < count; ++i, ++runs) {
      std::string mutant = Mutate(text, kind, rng);
      std::string complaint = run(mutant);
      EXPECT_EQ(complaint, "") << label << ", mutation kind " << kind << ", input:\n" << mutant;
    }
  }
  return runs;
}

// An escape as the last byte of the input read past its end.
const char* const kMiniCRegressions[] = {
    "char* s = \"ab\\",
    "'\\",
};

TEST(FrontEndFuzz, RegressionInputsEndInDiagnostics) {
  for (const char* input : kMiniCRegressions) {
    SourceMap sources = {{"regression.c", input}};
    EXPECT_EQ(RunMiniC(sources, "regression.c"), "") << input;
  }
}

TEST(FrontEndFuzz, MutatedMiniCSourcesEndInSuccessOrDiagnostics) {
  std::mt19937 rng(0x6b6e6974);
  int runs = 0;
  for (const SourceMap* corpus : {&ClackSources(), &OskitSources()}) {
    SourceMap sources = *corpus;
    for (const auto& [file, text] : *corpus) {
      if (!file.ends_with(".c")) {
        continue;
      }
      runs += FuzzText(file, text, rng, [&](const std::string& mutant) {
        sources[file] = mutant;
        return RunMiniC(sources, file);
      });
      sources[file] = text;
    }
  }
  EXPECT_GT(runs, 1000);
}

TEST(FrontEndFuzz, MutatedKnitTextsEndInSuccessOrDiagnostics) {
  std::mt19937 rng(0x6b6e6975);
  for (int round = 0; round < 16; ++round) {
    FuzzText("clack.knit", ClackKnit(), rng, RunKnit);
    FuzzText("oskit.knit", OskitKnit(), rng, RunKnit);
  }
}

}  // namespace
}  // namespace knit
