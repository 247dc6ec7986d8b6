// Property test: the per-TU optimizer (inlining + LVN + EBB inheritance + dead-store
// elimination + peepholes) must never change program behaviour. We generate random
// deterministic MiniC programs — arithmetic, globals, arrays, branches, bounded
// loops, and calls into earlier functions (inliner food) — and compare O0 vs O2
// results over several inputs.
//
// A second section checks the image-scope (-O2 link-time) passes over random
// multi-unit Knit configurations: behaviour bit-identical to -O0, dead-export
// elimination never strips a reachable symbol, and the optimized image is
// bit-identical across --jobs values.
//
// A last section pins the emitted code itself (image fingerprints of the corpus,
// of the seeded programs, of hot-swap replacement objects and of long
// functions) and the optimizer's per-pass rows, and compiles a hostile input
// whose expression trees grow exponentially.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <string>

#include "src/clack/corpus.h"
#include "src/driver/build_cache.h"
#include "src/driver/knitc.h"
#include "src/driver/pipeline.h"
#include "src/oskit/corpus.h"
#include "src/support/hash.h"
#include "src/vm/machine.h"
#include "tests/long_function.h"
#include "tests/testutil.h"

namespace knit {
namespace {

class ProgramGenerator {
 public:
  explicit ProgramGenerator(unsigned seed) : rng_(seed) {}

  std::string Generate() {
    source_ = "static int g_arr[8];\nstatic int g_x = 3;\nstatic int g_y = 11;\n";
    int function_count = 2 + static_cast<int>(rng_() % 4);
    for (int i = 0; i < function_count; ++i) {
      EmitFunction(i);
    }
    // The entry point seeds state, calls every function, and mixes the results.
    source_ += "int entry(int seed) {\n";
    source_ += "  for (int i = 0; i < 8; i++) g_arr[i] = seed * (i + 3) + i;\n";
    source_ += "  g_x = seed | 5;\n  g_y = (seed >> 1) + 7;\n";
    source_ += "  int acc = seed;\n";
    for (int i = 0; i < function_count; ++i) {
      source_ += "  acc = acc * 31 + fn" + std::to_string(i) + "(acc, seed + " +
                 std::to_string(i) + ");\n";
    }
    source_ += "  for (int i = 0; i < 8; i++) acc = acc * 17 + g_arr[i];\n";
    source_ += "  return acc + g_x * 13 + g_y;\n}\n";
    return source_;
  }

 private:
  int Rand(int n) { return static_cast<int>(rng_() % static_cast<unsigned>(n)); }

  // An int-valued expression over the in-scope names. `depth` bounds recursion.
  std::string Expr(int depth, int defined_functions) {
    if (depth <= 0 || Rand(4) == 0) {
      switch (Rand(6)) {
        case 0:
          return std::to_string(Rand(200) - 100);
        case 1:
          return "a";
        case 2:
          return "b";
        case 3:
          return "g_x";
        case 4:
          return "g_y";
        default:
          return "g_arr[" + Expr(0, defined_functions) + " & 7]";
      }
    }
    switch (Rand(9)) {
      case 0:
        return "(" + Expr(depth - 1, defined_functions) + " + " +
               Expr(depth - 1, defined_functions) + ")";
      case 1:
        return "(" + Expr(depth - 1, defined_functions) + " - " +
               Expr(depth - 1, defined_functions) + ")";
      case 2:
        return "(" + Expr(depth - 1, defined_functions) + " * " +
               Expr(depth - 1, defined_functions) + ")";
      case 3:
        // Division guarded against zero and INT_MIN/-1 overflow.
        return "(" + Expr(depth - 1, defined_functions) + " / ((" +
               Expr(depth - 1, defined_functions) + " & 15) + 1))";
      case 4:
        return "(" + Expr(depth - 1, defined_functions) + " ^ " +
               Expr(depth - 1, defined_functions) + ")";
      case 5:
        return "(" + Expr(depth - 1, defined_functions) + " << (" +
               Expr(depth - 1, defined_functions) + " & 7))";
      case 6:
        return "(" + Expr(depth - 1, defined_functions) + " < " +
               Expr(depth - 1, defined_functions) + " ? " +
               Expr(depth - 1, defined_functions) + " : " +
               Expr(depth - 1, defined_functions) + ")";
      case 7:
        if (defined_functions > 0) {
          int callee = Rand(defined_functions);
          return "fn" + std::to_string(callee) + "(" + Expr(depth - 1, defined_functions) +
                 ", " + Expr(depth - 1, defined_functions) + ")";
        }
        return "(" + Expr(depth - 1, defined_functions) + " & " +
               Expr(depth - 1, defined_functions) + ")";
      default:
        // Written as 0-x: a literal unary minus next to a negative literal would
        // lex as '--'.
        return "(0 - " + Expr(depth - 1, defined_functions) + ")";
    }
  }

  void EmitStatements(int count, int depth, int defined_functions) {
    for (int s = 0; s < count; ++s) {
      switch (Rand(6)) {
        case 0:
          source_ += "  a = " + Expr(depth, defined_functions) + ";\n";
          break;
        case 1:
          source_ += "  b = b + " + Expr(depth, defined_functions) + ";\n";
          break;
        case 2:
          source_ += "  g_arr[" + Expr(1, defined_functions) + " & 7] = " +
                     Expr(depth, defined_functions) + ";\n";
          break;
        case 3:
          source_ += "  if (" + Expr(depth, defined_functions) + " > " +
                     Expr(1, defined_functions) + ") { a = a ^ " +
                     Expr(depth, defined_functions) + "; } else { b = b - " +
                     Expr(depth, defined_functions) + "; }\n";
          break;
        case 4:
          source_ += "  for (int k = 0; k < (" + Expr(1, defined_functions) +
                     " & 7); k++) { a = a + g_arr[k] + " + std::to_string(Rand(9)) + "; }\n";
          break;
        default:
          source_ += "  g_x = g_x + " + Expr(depth, defined_functions) + ";\n";
          break;
      }
    }
  }

  void EmitFunction(int index) {
    source_ += "static int fn" + std::to_string(index) + "(int a, int b) {\n";
    EmitStatements(2 + Rand(4), 2, index);
    source_ += "  return a * 7 + b;\n}\n";
  }

  std::mt19937 rng_;
  std::string source_;
};

class OptimizerEquivalenceTest : public testing::TestWithParam<int> {};

TEST_P(OptimizerEquivalenceTest, O0AndO2Agree) {
  ProgramGenerator generator(static_cast<unsigned>(GetParam()) * 2654435761u);
  std::string source = generator.Generate();

  TestProgram plain = BuildProgram(source, /*optimize=*/false);
  TestProgram optimized = BuildProgram(source, /*optimize=*/true);
  ASSERT_TRUE(plain.ok()) << plain.error << "\n" << source;
  ASSERT_TRUE(optimized.ok()) << optimized.error << "\n" << source;

  for (uint32_t input : {0u, 1u, 7u, 42u, 0xFFFFu, 0x80000000u}) {
    RunResult a = plain.machine->Call("entry", {input});
    RunResult b = optimized.machine->Call("entry", {input});
    ASSERT_TRUE(a.ok) << a.error << "\n" << source;
    ASSERT_TRUE(b.ok) << b.error << "\n" << source;
    EXPECT_EQ(a.value, b.value) << "input " << input << "\n" << source;
  }

  // Regression tripwire: the optimizer must not meaningfully grow the dynamic
  // instruction count (block-local value numbering may add a couple of percent on
  // pathological loop bodies; anything beyond that is a bug).
  plain.machine->ResetCounters();
  optimized.machine->ResetCounters();
  plain.machine->Call("entry", {42});
  optimized.machine->Call("entry", {42});
  EXPECT_LE(optimized.machine->insns(), plain.machine->insns() * 21 / 20 + 8)
      << "optimized build executes many more instructions\n"
      << source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerEquivalenceTest, testing::Range(1, 41));

// ---- image scope --------------------------------------------------------------
// The -O2 passes run after ld/link on the whole image: cross-unit inlining
// through resolved bindings, devirtualization, and global dead-function
// elimination from the image entry points. The properties below are the
// acceptance bar for them being semantics-preserving.

struct GeneratedKnit {
  std::string knit;
  SourceMap sources;
};

// A random unit chain: node i imports 1-2 Work bundles from earlier nodes; Top
// instantiates every node and exports the tail plus one mid node (so DCE has
// both live roots and — in the stubbed units — genuinely dead functions).
GeneratedKnit GenerateKnit(unsigned seed) {
  std::mt19937 rng(seed);
  auto rand = [&](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };

  GeneratedKnit out;
  out.knit = "bundletype Work = { work }\n";
  int nodes = 3 + rand(4);

  std::vector<std::vector<int>> inputs(static_cast<size_t>(nodes));
  for (int i = 1; i < nodes; ++i) {
    int count = 1 + rand(2);
    for (int k = 0; k < count; ++k) {
      inputs[static_cast<size_t>(i)].push_back(rand(i));
    }
  }

  for (int i = 0; i < nodes; ++i) {
    int arity = static_cast<int>(inputs[static_cast<size_t>(i)].size());
    std::string unit = "unit N" + std::to_string(i) + " = {\n  imports [";
    for (int k = 0; k < arity; ++k) {
      unit += std::string(k > 0 ? ", " : "") + "in" + std::to_string(k) + " : Work";
    }
    unit += "];\n  exports [ out : Work ];\n";
    if (arity > 0) {
      unit += "  depends { out needs (";
      for (int k = 0; k < arity; ++k) {
        unit += std::string(k > 0 ? " + " : "") + "in" + std::to_string(k);
      }
      unit += "); };\n";
    }
    unit += "  files { \"n" + std::to_string(i) + ".c\" };\n  rename {\n";
    for (int k = 0; k < arity; ++k) {
      unit += "    in" + std::to_string(k) + ".work to work_in" + std::to_string(k) + ";\n";
    }
    unit += "  };\n}\n";
    out.knit += unit;

    std::string source;
    for (int k = 0; k < arity; ++k) {
      source += "extern int work_in" + std::to_string(k) + "(int x);\n";
    }
    source += "static int g_state = " + std::to_string(rand(50)) + ";\n";
    // A helper the exported function may or may not call: when it doesn't, the
    // helper is inliner food per-TU and DCE food at image scope.
    source += "static int helper(int x) { return x * " + std::to_string(3 + rand(9)) +
              " + " + std::to_string(rand(100)) + "; }\n";
    source += "int work(int x) {\n  g_state = g_state * 5 + 3;\n  int acc = x + g_state;\n";
    if (rand(2) == 0) {
      source += "  acc = acc ^ helper(acc & 0xFF);\n";
    }
    for (int k = 0; k < arity; ++k) {
      switch (rand(3)) {
        case 0:
          source += "  acc = acc * 31 + work_in" + std::to_string(k) + "(acc & 0xFFFF);\n";
          break;
        case 1:
          source += "  if (acc & 1) acc = acc ^ work_in" + std::to_string(k) + "(x + " +
                    std::to_string(k) + ");\n";
          break;
        default:
          source += "  for (int i = 0; i < (acc & 3); i++) acc += work_in" +
                    std::to_string(k) + "(i);\n";
          break;
      }
    }
    source += "  return acc;\n}\n";
    out.sources["n" + std::to_string(i) + ".c"] = source;
  }

  out.knit += "unit Top = {\n  imports [];\n  exports [ out : Work, mid : Work ];\n  link {\n";
  for (int i = 0; i < nodes; ++i) {
    out.knit += "    [w" + std::to_string(i) + "] <- N" + std::to_string(i) + " <- [";
    const std::vector<int>& ins = inputs[static_cast<size_t>(i)];
    for (size_t k = 0; k < ins.size(); ++k) {
      out.knit += std::string(k > 0 ? ", " : "") + "w" + std::to_string(ins[k]);
    }
    out.knit += "];\n";
  }
  int mid = rand(nodes);
  out.knit += "    [mid] <- N" + std::to_string(mid) + " as midnode <- [";
  const std::vector<int>& mid_ins = inputs[static_cast<size_t>(mid)];
  for (size_t k = 0; k < mid_ins.size(); ++k) {
    out.knit += std::string(k > 0 ? ", " : "") + "w" + std::to_string(mid_ins[k]);
  }
  out.knit += "];\n";
  out.knit += "    [out] <- N" + std::to_string(nodes - 1) + " as tail <- [";
  const std::vector<int>& tail_ins = inputs[static_cast<size_t>(nodes - 1)];
  for (size_t k = 0; k < tail_ins.size(); ++k) {
    out.knit += std::string(k > 0 ? ", " : "") + "w" + std::to_string(tail_ins[k]);
  }
  out.knit += "];\n  };\n}\n";
  return out;
}

// Runs both exports over the input set and records every raw RunResult value —
// the comparison across opt levels is bit-identical, not hashed.
bool RunExports(const GeneratedKnit& config, const KnitcOptions& options,
                std::vector<uint32_t>* values, std::string* error) {
  Diagnostics diags;
  Result<KnitBuildResult> build = KnitBuild(config.knit, config.sources, "Top", options, diags);
  if (!build.ok()) {
    *error = diags.ToString() + "\n" + config.knit;
    return false;
  }
  Machine machine(build.value().image);
  RunResult init = machine.Call(build.value().init_function);
  if (!init.ok) {
    *error = init.error;
    return false;
  }
  for (uint32_t input : {0u, 3u, 17u, 100u}) {
    for (const char* port : {"out", "mid"}) {
      RunResult run = machine.Call(build.value().ExportedSymbol(port, "work"), {input});
      if (!run.ok) {
        *error = std::string(port) + ": " + run.error;
        return false;
      }
      values->push_back(run.value);
    }
  }
  return true;
}

class ImagePassPropertyTest : public testing::TestWithParam<int> {};

TEST_P(ImagePassPropertyTest, O0AndO2RunResultsBitIdentical) {
  GeneratedKnit config = GenerateKnit(static_cast<unsigned>(GetParam()) * 2246822519u + 3);

  KnitcOptions o0;
  o0.opt_level = 0;
  KnitcOptions o2;
  o2.opt_level = 2;

  std::vector<uint32_t> plain;
  std::vector<uint32_t> optimized;
  std::string error;
  ASSERT_TRUE(RunExports(config, o0, &plain, &error)) << error;
  ASSERT_TRUE(RunExports(config, o2, &optimized, &error)) << error;
  ASSERT_EQ(plain.size(), optimized.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], optimized[i]) << "result " << i << " diverged at -O2\n" << config.knit;
  }
}

TEST_P(ImagePassPropertyTest, DeadExportEliminationKeepsReachableSymbols) {
  GeneratedKnit config = GenerateKnit(static_cast<unsigned>(GetParam()) * 2246822519u + 3);

  KnitcOptions o2;
  o2.opt_level = 2;
  Diagnostics diags;
  Result<KnitBuildResult> build = KnitBuild(config.knit, config.sources, "Top", o2, diags);
  ASSERT_TRUE(build.ok()) << diags.ToString() << "\n" << config.knit;

  // Every top-level export and the init/fini entry points must survive image DCE
  // with a non-stubbed body.
  std::vector<std::string> roots = {build.value().init_function, build.value().fini_function};
  for (const char* port : {"out", "mid"}) {
    roots.push_back(build.value().ExportedSymbol(port, "work"));
  }
  for (const std::string& name : roots) {
    int id = build.value().image.FindFunction(name);
    ASSERT_GE(id, 0) << name << " eliminated from the image\n" << config.knit;
    EXPECT_FALSE(build.value().image.functions[static_cast<size_t>(id)].code.empty())
        << name << " stubbed by image DCE\n"
        << config.knit;
  }
}

TEST_P(ImagePassPropertyTest, OptimizedImageIdenticalAcrossJobs) {
  GeneratedKnit config = GenerateKnit(static_cast<unsigned>(GetParam()) * 2246822519u + 3);

  uint64_t baseline = 0;
  for (int jobs : {1, 2, 8}) {
    KnitcOptions options;
    options.opt_level = 2;
    options.jobs = jobs;
    Diagnostics diags;
    KnitPipeline pipeline(options);
    Result<LinkedImage> built = pipeline.Build(config.knit, config.sources, "Top", diags);
    ASSERT_TRUE(built.ok()) << diags.ToString() << "\n" << config.knit;
    uint64_t fingerprint = FingerprintImage(built.value().image);
    if (jobs == 1) {
      baseline = fingerprint;
    } else {
      EXPECT_EQ(baseline, fingerprint)
          << "-O2 image differs at --jobs=" << jobs << "\n"
          << config.knit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImagePassPropertyTest, testing::Range(1, 13));

// ---- profile-guided (-O2 --profile-use) ----------------------------------------
// The PGO passes re-rank inlining and re-place text from recorded measurements;
// none of that may change a single RunResult value, and a profile that does not
// match the build must be ignored (plain -O2), never half-applied.

// Records a profile for `config` the way `knitc run --profile` does: build at
// -O2, execute the same export/input matrix RunExports uses, snapshot.
std::shared_ptr<const LoadedProfile> RecordProfile(const GeneratedKnit& config,
                                                   std::string* error) {
  KnitcOptions o2;
  o2.opt_level = 2;
  Diagnostics diags;
  Result<KnitBuildResult> build = KnitBuild(config.knit, config.sources, "Top", o2, diags);
  if (!build.ok()) {
    *error = diags.ToString();
    return nullptr;
  }
  Machine machine(build.value().image);
  machine.EnableProfiling();
  if (!machine.Call(build.value().init_function).ok) {
    *error = "init failed";
    return nullptr;
  }
  machine.ResetProfile();
  for (uint32_t input : {0u, 3u, 17u, 100u}) {
    for (const char* port : {"out", "mid"}) {
      if (!machine.Call(build.value().ExportedSymbol(port, "work"), {input}).ok) {
        *error = "export run failed";
        return nullptr;
      }
    }
  }
  KnitPipeline pipeline(o2);
  Result<ParsedProgram> parsed = pipeline.Parse(config.knit, diags);
  Result<ElaboratedConfig> elaborated =
      parsed.ok() ? pipeline.Elaborate(parsed.value(), "Top", diags)
                  : Result<ElaboratedConfig>::Failure();
  if (!elaborated.ok()) {
    *error = diags.ToString();
    return nullptr;
  }
  auto loaded = std::make_shared<LoadedProfile>();
  loaded->meta = MakeProfileMeta(elaborated.value(), 2);
  loaded->profile = machine.Profile();
  return loaded;
}

TEST_P(ImagePassPropertyTest, PgoRunResultsBitIdenticalToPlainO2) {
  GeneratedKnit config = GenerateKnit(static_cast<unsigned>(GetParam()) * 2246822519u + 3);

  std::string error;
  std::shared_ptr<const LoadedProfile> profile = RecordProfile(config, &error);
  ASSERT_NE(profile, nullptr) << error << "\n" << config.knit;

  KnitcOptions o2;
  o2.opt_level = 2;
  KnitcOptions pgo = o2;
  pgo.profile = profile;

  std::vector<uint32_t> plain;
  std::vector<uint32_t> guided;
  ASSERT_TRUE(RunExports(config, o2, &plain, &error)) << error;
  ASSERT_TRUE(RunExports(config, pgo, &guided, &error)) << error;
  ASSERT_EQ(plain.size(), guided.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], guided[i]) << "result " << i << " diverged under PGO\n" << config.knit;
  }
}

TEST_P(ImagePassPropertyTest, MismatchedProfileWarnsAndBuildsPlainO2) {
  GeneratedKnit config = GenerateKnit(static_cast<unsigned>(GetParam()) * 2246822519u + 3);

  std::string error;
  std::shared_ptr<const LoadedProfile> recorded = RecordProfile(config, &error);
  ASSERT_NE(recorded, nullptr) << error << "\n" << config.knit;

  KnitcOptions o2;
  o2.opt_level = 2;
  Diagnostics plain_diags;
  KnitPipeline plain_pipeline(o2);
  Result<LinkedImage> plain =
      plain_pipeline.Build(config.knit, config.sources, "Top", plain_diags);
  ASSERT_TRUE(plain.ok()) << plain_diags.ToString();

  // A profile recorded for a different configuration (stale digest): warn,
  // ignore, and emit the EXACT image plain -O2 emits (never a half-guided one).
  auto wrong_config = std::make_shared<LoadedProfile>(*recorded);
  wrong_config->meta.config_digest ^= 1;
  KnitcOptions mismatched = o2;
  mismatched.profile = wrong_config;
  Diagnostics diags;
  KnitPipeline pipeline(mismatched);
  Result<LinkedImage> built = pipeline.Build(config.knit, config.sources, "Top", diags);
  ASSERT_TRUE(built.ok()) << diags.ToString();
  EXPECT_NE(diags.ToString().find("ignoring it"), std::string::npos) << diags.ToString();
  EXPECT_EQ(FingerprintImage(built.value().image), FingerprintImage(plain.value().image))
      << "mismatched profile changed the image\n"
      << config.knit;

  // Same configuration but recorded at a different -O level: same fallback.
  auto wrong_level = std::make_shared<LoadedProfile>(*recorded);
  wrong_level->meta.opt_level = 1;
  KnitcOptions leveled = o2;
  leveled.profile = wrong_level;
  Diagnostics level_diags;
  KnitPipeline level_pipeline(leveled);
  Result<LinkedImage> level_built =
      level_pipeline.Build(config.knit, config.sources, "Top", level_diags);
  ASSERT_TRUE(level_built.ok()) << level_diags.ToString();
  EXPECT_NE(level_diags.ToString().find("ignoring it"), std::string::npos);
  EXPECT_EQ(FingerprintImage(level_built.value().image),
            FingerprintImage(plain.value().image));
}

TEST_P(ImagePassPropertyTest, PgoImageIdenticalAcrossJobs) {
  GeneratedKnit config = GenerateKnit(static_cast<unsigned>(GetParam()) * 2246822519u + 3);

  std::string error;
  std::shared_ptr<const LoadedProfile> profile = RecordProfile(config, &error);
  ASSERT_NE(profile, nullptr) << error;

  uint64_t baseline = 0;
  for (int jobs : {1, 2, 8}) {
    KnitcOptions options;
    options.opt_level = 2;
    options.jobs = jobs;
    options.profile = profile;
    Diagnostics diags;
    KnitPipeline pipeline(options);
    Result<LinkedImage> built = pipeline.Build(config.knit, config.sources, "Top", diags);
    ASSERT_TRUE(built.ok()) << diags.ToString() << "\n" << config.knit;
    uint64_t fingerprint = FingerprintImage(built.value().image);
    if (jobs == 1) {
      baseline = fingerprint;
    } else {
      EXPECT_EQ(baseline, fingerprint)
          << "PGO image differs at --jobs=" << jobs << "\n"
          << config.knit;
    }
  }
}

// ---- code goldens ----------------------------------------------------------------
//
// The properties above compare run results, so a change to the emitted code that
// keeps behaviour passes them. These goldens pin the code itself. They were
// captured before the optimizer's data structures were rewritten for near-linear
// cost (hashed value-number interning, memoized costs, slot-only snapshots,
// flat forward tables), a change that had to leave every emitted instruction as
// it was. A legitimate change to codegen, the optimizer, the linker or the
// corpus sources moves them; re-capture them in that change and say why here.

struct CorpusGolden {
  const char* top;
  int opt_level;
  bool swappable;
  uint64_t fingerprint;
};

// FingerprintImage of the corpus images the build benchmark compiles, plus the
// hot-swap image (--swappable=*).
constexpr CorpusGolden kCorpusGoldens[] = {
    {"ClackRouter", 1, false, 0x5df8b62d63b8c443ull},
    {"ClackRouter", 2, false, 0xaed62ea02a49d535ull},
    {"ClackRouterFlat", 1, false, 0x0d2116414c8aebccull},
    {"ClackRouterFlat", 2, false, 0xcaf82454fa5eaa37ull},
    {"HandRouter", 1, false, 0x16edf4a361c48190ull},
    {"HandRouter", 2, false, 0x0e3e7fa6505581caull},
    {"HandRouterFlat", 1, false, 0x259eab0df9c75bb4ull},
    {"HandRouterFlat", 2, false, 0x0c144182fa3dd4b1ull},
    {"WebKernel", 1, false, 0x7c9b5dc9d21ea1fcull},
    {"WebKernel", 2, false, 0x7e83feb1689e1abaull},
    {"WebKernelFlat", 1, false, 0xf64a71b161583433ull},
    {"WebKernelFlat", 2, false, 0x1f0baf4c1470eeb2ull},
    {"ClackRouter", 2, true, 0x09b378e8839f8482ull},
};

TEST(OptimizerGoldens, CorpusImagesUnchanged) {
  for (const CorpusGolden& golden : kCorpusGoldens) {
    const bool oskit = std::string(golden.top).rfind("Web", 0) == 0;
    KnitcOptions options;
    options.opt_level = golden.opt_level;
    if (golden.swappable) {
      options.swappable = {"*"};
    }
    Diagnostics diags;
    Result<KnitBuildResult> build =
        KnitBuild(oskit ? OskitKnit() : ClackKnit(), oskit ? OskitSources() : ClackSources(),
                  golden.top, options, diags);
    ASSERT_TRUE(build.ok()) << golden.top << ": " << diags.ToString();
    EXPECT_EQ(FingerprintImage(build.value().image), golden.fingerprint)
        << golden.top << " -O" << golden.opt_level << (golden.swappable ? " --swappable=*" : "");
  }
}

// FingerprintImage of the -O1 image of each OptimizerEquivalenceTest seed (1..40).
constexpr uint64_t kSeedGoldens[] = {
    0xa9a36683d8f69125ull, 0x6fd560076c9118e9ull, 0x2b1b75d381f8abc0ull, 0x50fada019289a461ull,
    0x8699ab4b886ce484ull, 0x54a595e6c7bb4473ull, 0xd9e14a6e1ae946d4ull, 0xc6cce4afaf41aa1dull,
    0xb9ee11c9f8c29fabull, 0x5ccceb94e9158709ull, 0xe5f053e43fa5ed6eull, 0x54c4c92efa502479ull,
    0x46cf40361c7b4b5aull, 0xa234f0bdb898a7a2ull, 0x2fa9b86c1f821e25ull, 0xd18d23a7343832adull,
    0x03c6113d671ee136ull, 0xbfa7629a8fa67c8full, 0xb876d70b1283ccb9ull, 0x1b3503ea13160bd2ull,
    0x9d9568c0432ce6dcull, 0x2e494d70b3d228a7ull, 0xd70c8fc1d84463d0ull, 0x95ad52119514b0abull,
    0x1241c20b0ae66a5aull, 0x716f65c5d0b1f6a2ull, 0xfb0151d0569676fbull, 0x04d31f2356eac835ull,
    0x9a37ccbb6cf9ace5ull, 0x72d3ee665abe145bull, 0x22491e0b8868e105ull, 0xb3aa201dd8657dbeull,
    0x0e771aa3c3a909a7ull, 0xf7b6df40c9fbb525ull, 0x5d7795033ebc03bcull, 0x380f738294215b79ull,
    0x3dbe03414d291ddbull, 0x62a43cf2ac19e506ull, 0x32974798247ded6full, 0xba373295b4b82f19ull,
};

TEST(OptimizerGoldens, EquivalenceSeedCodeUnchanged) {
  for (int seed = 1; seed <= 40; ++seed) {
    ProgramGenerator generator(static_cast<unsigned>(seed) * 2654435761u);
    TestProgram optimized = BuildProgram(generator.Generate(), /*optimize=*/true);
    ASSERT_TRUE(optimized.ok()) << optimized.error;
    EXPECT_EQ(FingerprintImage(*optimized.image), kSeedGoldens[seed - 1]) << "seed " << seed;
  }
}

// ---- hostile input ---------------------------------------------------------------
//
// `int v_i = v_{i-1} + v_{i-1};` forty times: every value's expression tree
// doubles, although its value-number DAG grows by one node per line. A cost
// computed by walking the tree takes 2^40 steps (and overflows int); the
// optimizer must compile this in linear time and keep its result.

constexpr const char* kChainKnit = R"(
bundletype Chain = { chain }
unit Doubling = {
  imports [];
  exports [ out : Chain ];
  files { "chain.c" };
}
)";

std::string DoublingChainSource(int n) {
  std::string source = "int chain(int v0) {\n";
  for (int i = 1; i <= n; ++i) {
    source += "  int v" + std::to_string(i) + " = v" + std::to_string(i - 1) + " + v" +
              std::to_string(i - 1) + ";\n";
  }
  source += "  return v" + std::to_string(n) + " + v" + std::to_string(n - 9) + " + v" +
            std::to_string(n / 2) + " + v1;\n}\n";
  return source;
}

TEST(OptimizerRobustness, DoublingChainCompilesAndKeepsItsValue) {
  const SourceMap sources = {{"chain.c", DoublingChainSource(40)}};
  std::vector<uint32_t> expected;
  for (int level : {0, 1, 2}) {
    KnitcOptions options;
    options.opt_level = level;
    Diagnostics diags;
    Result<KnitBuildResult> build = KnitBuild(kChainKnit, sources, "Doubling", options, diags);
    ASSERT_TRUE(build.ok()) << "-O" << level << ": " << diags.ToString();
    Machine machine(build.value().image);
    std::vector<uint32_t> values;
    for (uint32_t input : {1u, 3u, 0x12345u}) {
      RunResult run = machine.Call(build.value().ExportedSymbol("out", "chain"), {input});
      ASSERT_TRUE(run.ok) << "-O" << level << ": " << run.error;
      values.push_back(run.value);
    }
    if (level == 0) {
      expected = values;
      EXPECT_NE(expected[0], 0u);
    } else {
      EXPECT_EQ(values, expected) << "-O" << level;
    }
  }
}

// ---- more code goldens -----------------------------------------------------------
//
// Recorded before the per-function optimizer was rebuilt for linear time
// (allocation-free dependency sets, indexed forward tables, delta snapshots,
// one shared flow analysis and a worklist peephole): the rebuild had to leave
// every one of these bytes as it was.

// FingerprintImage of the -O2 image of each ImagePassPropertyTest seed (1..12).
constexpr uint64_t kImageSeedO2Goldens[] = {
    0xeb24323c2cc6ee1cull, 0x8e34eda71a7a0f95ull, 0xaceeac6796132d22ull, 0xa8b506bce7fe79bcull,
    0xd0005f746238c514ull, 0x56ca138937090406ull, 0x65d6bac8623e8bf6ull, 0xa86ef3b338639f19ull,
    0x0b77a652725ed7e3ull, 0x5b22fc38533b7accull, 0x5a03c1f15c84cabeull, 0x43abd4b8282462adull,
};

TEST(OptimizerGoldens, ImagePassSeedO2CodeUnchanged) {
  for (int seed = 1; seed <= 12; ++seed) {
    GeneratedKnit config = GenerateKnit(static_cast<unsigned>(seed) * 2246822519u + 3);
    KnitcOptions o2;
    o2.opt_level = 2;
    Diagnostics diags;
    Result<KnitBuildResult> build = KnitBuild(config.knit, config.sources, "Top", o2, diags);
    ASSERT_TRUE(build.ok()) << diags.ToString();
    EXPECT_EQ(FingerprintImage(build.value().image), kImageSeedO2Goldens[seed - 1])
        << "seed " << seed;
  }
}

// HashBytes of the serialized CompileInstanceReplacement object ("__v1") of
// every slotted instance of ClackRouter -O2 --swappable=*, in configuration
// order: the optimizer is the bulk of a hot swap's compile.
constexpr uint64_t kReplacementGoldens[] = {
    0x57c651e15289e10eull, 0xe7a193c7c94a1235ull, 0x69c41558c3cf88e4ull, 0x4ac10053fd2d9440ull,
    0x5a64f3bd4541d263ull, 0xb692abf54402cd31ull, 0x34cd87451dbfee3cull, 0x0d0f5be2896f821aull,
    0x70f443b349c27098ull, 0xf33cec918c389542ull, 0x6d43ab49c6bc1db6ull, 0x3dbb783cfcd66cc4ull,
    0xadeb4b7f041e5124ull, 0xc13f211143c486d5ull, 0x00690e78d932f3b5ull, 0x7822251255376fefull,
    0xd6108e82014181eaull, 0x35510e98b19696cfull, 0x6378a69c51e3c630ull, 0xcd1a52a3c9546b80ull,
    0x3678296781a9861eull, 0x51dfbcbe976cd36aull, 0x0c531bea56b94564ull, 0xe954c4a0c8bbc1beull,
};

TEST(OptimizerGoldens, SwapReplacementObjectsUnchanged) {
  KnitcOptions options;
  options.opt_level = 2;
  options.swappable = {"*"};
  Diagnostics diags;
  Result<KnitBuildResult> build =
      KnitBuild(ClackKnit(), ClackSources(), "ClackRouter", options, diags);
  ASSERT_TRUE(build.ok()) << diags.ToString();
  std::set<std::string> slotted;
  for (const BindingSlot& slot : build.value().image.bindings) {
    slotted.insert(slot.component);
  }
  size_t target = 0;
  for (const Instance& instance : build.value().config.instances) {
    if (slotted.count(instance.path) == 0 || instance.unit->files.empty()) {
      continue;
    }
    const std::string& file = instance.unit->files[0];
    Diagnostics compile_diags;
    Result<ReplacementObject> replacement = CompileInstanceReplacement(
        *build.value().elaboration, build.value().config, instance.path,
        ClackSources().at(file), file, ClackSources(), "__v1", compile_diags);
    ASSERT_TRUE(replacement.ok()) << instance.path << ": " << compile_diags.ToString();
    ASSERT_LT(target, std::size(kReplacementGoldens)) << instance.path;
    const std::string bytes = SerializeObjectFile(replacement.value().object);
    EXPECT_EQ(HashBytes(bytes.data(), bytes.size()), kReplacementGoldens[target])
        << "target " << target << ": " << instance.path;
    ++target;
  }
  EXPECT_EQ(target, std::size(kReplacementGoldens));
}

struct LongGolden {
  bool doubling;  // DoublingChainSource(n), else LongFunction(n)
  int n;
  int opt_level;
  uint64_t fingerprint;
};

// FingerprintImage of long straight-line functions: the scaling tests' shape and
// the exponential doubling chain.
constexpr LongGolden kLongGoldens[] = {
    {false, 500, 1, 0xdc54382ecf3c3750ull},  {false, 500, 2, 0x155f326e87a6a1ceull},
    {false, 2000, 1, 0x122da48ea2b4f8a7ull}, {false, 2000, 2, 0x31a687320b374a5bull},
    {true, 40, 1, 0x81ce6f46b828e3b8ull},     {true, 40, 2, 0x44c3df35d38915dfull},
};

TEST(OptimizerGoldens, LongFunctionImagesUnchanged) {
  for (const LongGolden& golden : kLongGoldens) {
    KnitcOptions options;
    options.opt_level = golden.opt_level;
    Diagnostics diags;
    Result<KnitBuildResult> build =
        golden.doubling
            ? KnitBuild(kChainKnit, {{"chain.c", DoublingChainSource(golden.n)}}, "Doubling",
                        options, diags)
            : KnitBuild(kLongKnit, {{"long.c", LongFunction(golden.n)}}, "Long", options, diags);
    ASSERT_TRUE(build.ok()) << diags.ToString();
    EXPECT_EQ(FingerprintImage(build.value().image), golden.fingerprint)
        << (golden.doubling ? "doubling chain" : "long function") << " n=" << golden.n << " -O"
        << golden.opt_level;
  }
}

// ---- pass-row goldens ------------------------------------------------------------
//
// Recorded before the pass-manager classes were replaced by two fixed pipelines:
// the same passes must run in the same order on the same code.

// Every PassStats row a build records, less its seconds, as "pass scope runs
// insns_before insns_after" lines. knitbench's traced vm.pass.<name>.insns_removed
// metrics are keyed by these row names.
std::string PassRows(const std::vector<PassStats>& rows) {
  std::string out;
  for (const PassStats& row : rows) {
    out += row.pass + " " + row.scope + " " + std::to_string(row.runs) + " " +
           std::to_string(row.insns_before) + " " + std::to_string(row.insns_after) + "\n";
  }
  return out;
}

struct PassRowsGolden {
  const char* top;
  int opt_level;
  const char* rows;
};

constexpr PassRowsGolden kPassRowsGoldens[] = {
    {"ClackRouter", 1, R"(
inline object 18 1023 1023
simplify object 18 1023 1019
lvn object 18 1019 1216
jump-thread object 18 1216 1216
peephole object 18 1216 984
dce-local object 16 984 984
)"},
    {"ClackRouter", 2, R"(
inline object 18 1023 1023
simplify object 18 1023 1019
lvn object 18 1019 1216
jump-thread object 18 1216 1216
peephole object 18 1216 984
dce-local object 16 984 984
devirt image 1 1802 1802
cross-inline image 1 1802 6184
dce-image image 1 6184 1870
simplify image 1 1870 1585
layout image 1 1585 1585
)"},
    {"WebKernel", 2, R"(
inline object 30 1270 1570
simplify object 30 1570 1553
lvn object 30 1553 1720
jump-thread object 30 1720 1711
peephole object 30 1711 1461
dce-local object 9 1461 1284
devirt image 1 1511 1511
cross-inline image 1 1511 2068
dce-image image 1 2068 1699
simplify image 1 1699 1540
layout image 1 1540 1540
)"},
};

// The rows of one profile-guided -O2 build of a generated configuration, so the
// layout-pgo and outline-cold rows appear.
constexpr const char* kPgoPassRowsGolden = R"(
inline object 10 194 212
simplify object 10 212 202
lvn object 10 202 241
jump-thread object 10 241 238
peephole object 10 238 212
dce-local object 5 212 182
devirt image 1 387 387
cross-inline image 1 387 579
dce-image image 1 579 411
simplify image 1 411 365
layout-pgo image 1 365 365
outline-cold image 1 365 365
)";

TEST(OptimizerGoldens, PassRowsUnchanged) {
  for (const PassRowsGolden& golden : kPassRowsGoldens) {
    const bool oskit = std::string(golden.top).rfind("Web", 0) == 0;
    KnitcOptions options;
    options.opt_level = golden.opt_level;
    Diagnostics diags;
    Result<KnitBuildResult> build =
        KnitBuild(oskit ? OskitKnit() : ClackKnit(), oskit ? OskitSources() : ClackSources(),
                  golden.top, options, diags);
    ASSERT_TRUE(build.ok()) << golden.top << ": " << diags.ToString();
    EXPECT_EQ("\n" + PassRows(build.value().stats.pass_stats), golden.rows)
        << golden.top << " -O" << golden.opt_level;
  }

  GeneratedKnit config = GenerateKnit(5u * 2246822519u + 3);
  std::string error;
  std::shared_ptr<const LoadedProfile> profile = RecordProfile(config, &error);
  ASSERT_NE(profile, nullptr) << error;
  KnitcOptions pgo;
  pgo.opt_level = 2;
  pgo.profile = profile;
  Diagnostics diags;
  Result<KnitBuildResult> build = KnitBuild(config.knit, config.sources, "Top", pgo, diags);
  ASSERT_TRUE(build.ok()) << diags.ToString();
  EXPECT_EQ("\n" + PassRows(build.value().stats.pass_stats), kPgoPassRowsGolden);
}

}  // namespace
}  // namespace knit
