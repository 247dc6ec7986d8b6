// End-to-end property test over random Knit configurations: generate random unit
// DAGs (passthrough/combiner components with per-instance state), build them
// modular, flattened-everything, and unoptimized, and require identical observable
// behaviour everywhere — the strongest statement that flattening and objcopy-based
// instantiation are semantics-preserving. Each configuration also draws one
// allocator from the Alloc unit family uniformly at random, and allocating nodes
// call the implicit malloc/free builtins against it — so the same guarantees are
// exercised with every heap in the library behind the program.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "src/driver/knitc.h"
#include "src/driver/pipeline.h"
#include "src/oskit/alloc_corpus.h"
#include "src/vm/machine.h"
#include "src/vm/verify.h"

namespace knit {
namespace {

struct GeneratedConfig {
  std::string knit;
  SourceMap sources;
  std::string allocator;  // the drawn Alloc-family unit name
};

// Units: each node exports one Work bundle and imports 0-2 Work bundles from
// earlier nodes; its function mixes its inputs, a per-instance counter, and its
// argument. Some nodes are instantiated twice (multiple instantiation coverage).
GeneratedConfig Generate(unsigned seed) {
  std::mt19937 rng(seed);
  auto rand = [&](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };

  GeneratedConfig out;
  out.knit = "bundletype Work = { work }\n";
  // One allocator, drawn uniformly from the family; allocating nodes import its
  // Alloc bundle and their malloc/free builtins resolve against it.
  const std::vector<std::string>& family = AllocUnitNames();
  out.allocator = family[static_cast<size_t>(rand(static_cast<int>(family.size())))];
  out.knit += AllocKnit();
  for (const auto& [name, text] : AllocSources()) {
    out.sources[name] = text;
  }
  int nodes = 3 + rand(5);

  std::vector<std::vector<int>> inputs(static_cast<size_t>(nodes));
  std::vector<bool> allocates(static_cast<size_t>(nodes));
  for (int i = 1; i < nodes; ++i) {
    int count = 1 + rand(2);
    for (int k = 0; k < count; ++k) {
      inputs[static_cast<size_t>(i)].push_back(rand(i));
    }
  }
  for (int i = 0; i < nodes; ++i) {
    // The tail always allocates so every configuration touches the drawn heap.
    allocates[static_cast<size_t>(i)] = i == nodes - 1 || rand(2) == 0;
  }

  for (int i = 0; i < nodes; ++i) {
    int arity = static_cast<int>(inputs[static_cast<size_t>(i)].size());
    bool heap = allocates[static_cast<size_t>(i)];
    std::string unit = "unit N" + std::to_string(i) + " = {\n  imports [";
    for (int k = 0; k < arity; ++k) {
      unit += std::string(k > 0 ? ", " : "") + "in" + std::to_string(k) + " : Work";
    }
    if (heap) {
      unit += std::string(arity > 0 ? ", " : "") + "heap : Alloc";
    }
    unit += "];\n  exports [ out : Work ];\n";
    unit += "  initializer node_init for out;\n";
    unit += "  depends { node_init needs (); ";
    if (arity > 0 || heap) {
      unit += "out needs (";
      for (int k = 0; k < arity; ++k) {
        unit += std::string(k > 0 ? " + " : "") + "in" + std::to_string(k);
      }
      if (heap) {
        unit += std::string(arity > 0 ? " + " : "") + "heap";
      }
      unit += "); ";
    }
    unit += "};\n  files { \"n" + std::to_string(i) + ".c\" };\n  rename {\n";
    for (int k = 0; k < arity; ++k) {
      unit += "    in" + std::to_string(k) + ".work to work_in" + std::to_string(k) + ";\n";
    }
    unit += "  };\n}\n";
    out.knit += unit;

    std::string source;
    for (int k = 0; k < arity; ++k) {
      source += "extern int work_in" + std::to_string(k) + "(int x);\n";
    }
    source += "static int g_state = 0;\nvoid node_init(void) { g_state = " +
              std::to_string(rand(100)) + "; }\n";
    source += "int work(int x) {\n  g_state = g_state * 3 + 1;\n  int acc = x + g_state;\n";
    if (heap) {
      // The block's bytes feed acc; the pointer itself never does (heap layout
      // differs across allocators, block contents may not).
      source += "  unsigned *p = (unsigned *)malloc((unsigned)(16 + (acc & 31)));\n"
                "  if (p != 0) {\n"
                "    p[0] = (unsigned)(acc & 0xFFFF) + " + std::to_string(1 + rand(9)) +
                "u;\n"
                "    acc = acc + (int)p[0];\n" +
                (rand(4) != 0 ? "    free(p);\n" : "") +
                "  }\n";
    }
    for (int k = 0; k < arity; ++k) {
      switch (rand(3)) {
        case 0:
          source += "  acc = acc * 31 + work_in" + std::to_string(k) + "(acc & 0xFFFF);\n";
          break;
        case 1:
          source += "  if (acc & 1) acc = acc ^ work_in" + std::to_string(k) +
                    "(x + " + std::to_string(k) + ");\n";
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

  // Top unit: one shared allocator instance, every node, plus a duplicate of
  // one mid node (multiple instantiation coverage).
  out.knit += "unit Top = {\n  imports [];\n  exports [ out : Work, dup : Work ];\n  link {\n";
  out.knit += "    [heap] <- " + out.allocator + " <- [];\n";
  auto imports_of = [&](int node) {
    std::string list;
    const std::vector<int>& ins = inputs[static_cast<size_t>(node)];
    for (size_t k = 0; k < ins.size(); ++k) {
      list += std::string(k > 0 ? ", " : "") + "w" + std::to_string(ins[k]);
    }
    if (allocates[static_cast<size_t>(node)]) {
      list += std::string(ins.empty() ? "" : ", ") + "heap";
    }
    return list;
  };
  for (int i = 0; i < nodes; ++i) {
    out.knit += "    [w" + std::to_string(i) + "] <- N" + std::to_string(i) + " <- [" +
                imports_of(i) + "];\n";
  }
  int duplicated = rand(nodes);
  out.knit += "    [dup] <- N" + std::to_string(duplicated) + " as second <- [" +
              imports_of(duplicated) + "];\n";
  out.knit += "    [out] <- N" + std::to_string(nodes - 1) + " as tail <- [" +
              imports_of(nodes - 1) + "];\n  };\n}\n";
  return out;
}

// Builds and runs a configuration; returns a behaviour fingerprint.
bool Fingerprint(const GeneratedConfig& config, const KnitcOptions& options,
                 uint64_t* fingerprint, std::string* error) {
  Diagnostics diags;
  Result<KnitBuildResult> build = KnitBuild(config.knit, config.sources, "Top", options, diags);
  if (!build.ok()) {
    *error = diags.ToString() + "\n" + config.knit;
    return false;
  }
  // The Machine verifies the image first; a rejection surfaces as init's error.
  Machine machine(build.value().image);
  RunResult init = machine.Call(build.value().init_function);
  if (!init.ok) {
    *error = init.error;
    return false;
  }
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint32_t value) {
    for (int b = 0; b < 4; ++b) {
      hash = (hash ^ ((value >> (8 * b)) & 0xFF)) * 0x100000001B3ull;
    }
  };
  for (uint32_t input : {0u, 3u, 17u, 100u}) {
    for (const char* port : {"out", "dup"}) {
      RunResult run = machine.Call(build.value().ExportedSymbol(port, "work"), {input});
      if (!run.ok) {
        *error = run.error;
        return false;
      }
      mix(run.value);
    }
  }
  *fingerprint = hash;
  return true;
}

class RandomKnitConfigTest : public testing::TestWithParam<int> {};

TEST_P(RandomKnitConfigTest, AllBuildModesAgree) {
  GeneratedConfig config = Generate(static_cast<unsigned>(GetParam()) * 2166136261u + 7);

  KnitcOptions modular;
  KnitcOptions flattened;
  flattened.flatten_everything = true;
  KnitcOptions unoptimized;
  unoptimized.opt_level = 0;
  KnitcOptions flattened_unsorted;
  flattened_unsorted.flatten_everything = true;
  flattened_unsorted.callers_first_definitions = true;

  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;
  std::string error;
  ASSERT_TRUE(Fingerprint(config, modular, &a, &error)) << error;
  ASSERT_TRUE(Fingerprint(config, flattened, &b, &error)) << error;
  ASSERT_TRUE(Fingerprint(config, unoptimized, &c, &error)) << error;
  ASSERT_TRUE(Fingerprint(config, flattened_unsorted, &d, &error)) << error;
  EXPECT_EQ(a, b) << "flattening changed behaviour\n" << config.knit;
  EXPECT_EQ(a, c) << "optimizer changed behaviour\n" << config.knit;
  EXPECT_EQ(a, d) << "definition order changed behaviour\n" << config.knit;
}

// Builds a configuration and fingerprints the linked image bytes (not the
// behaviour): the determinism claim for --jobs is bit-identity of the artifact.
bool ImageFingerprint(const GeneratedConfig& config, const KnitcOptions& options,
                      uint64_t* fingerprint, std::string* error) {
  Diagnostics diags;
  Result<KnitBuildResult> build = KnitBuild(config.knit, config.sources, "Top", options, diags);
  if (!build.ok()) {
    *error = diags.ToString() + "\n" + config.knit;
    return false;
  }
  VerifyResult verified = VerifyImage(build.value().image);
  if (!verified.ok()) {
    *error = verified.error + "\n" + config.knit;
    return false;
  }
  *fingerprint = FingerprintImage(build.value().image);
  return true;
}

// The allocator draw composes with every build axis: behaviour is identical at
// -O0 and -O2, and the -O2 image is bit-identical for --jobs 1, 2, and 8 —
// whichever heap the configuration drew.
TEST_P(RandomKnitConfigTest, DrawnAllocatorSurvivesOptLevelsAndJobCounts) {
  GeneratedConfig config = Generate(static_cast<unsigned>(GetParam()) * 2166136261u + 7);

  KnitcOptions level0;
  level0.opt_level = 0;
  KnitcOptions level2;
  level2.opt_level = 2;

  uint64_t at_o0 = 0;
  uint64_t at_o2 = 0;
  std::string error;
  ASSERT_TRUE(Fingerprint(config, level0, &at_o0, &error)) << error;
  ASSERT_TRUE(Fingerprint(config, level2, &at_o2, &error)) << error;
  EXPECT_EQ(at_o0, at_o2) << "-O2 changed behaviour with " << config.allocator << "\n"
                          << config.knit;

  uint64_t jobs1 = 0;
  ASSERT_TRUE(ImageFingerprint(config, level2, &jobs1, &error)) << error;
  for (int jobs : {2, 8}) {
    KnitcOptions threaded = level2;
    threaded.jobs = jobs;
    uint64_t jobsN = 0;
    ASSERT_TRUE(ImageFingerprint(config, threaded, &jobsN, &error)) << error;
    EXPECT_EQ(jobsN, jobs1) << "--jobs=" << jobs << " changed the image with "
                            << config.allocator << "\n" << config.knit;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKnitConfigTest, testing::Range(1, 26));

}  // namespace
}  // namespace knit
