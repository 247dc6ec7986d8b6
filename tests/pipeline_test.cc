// Staged-pipeline tests (src/driver/pipeline.h): the legacy/staged golden
// equivalence, stage-prefix re-entry, --jobs determinism, warm-cache rebuilds,
// and content-hash cache invalidation granularity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <string_view>

#include "src/clack/corpus.h"
#include "src/driver/build_cache.h"
#include "src/driver/knitc.h"
#include "src/support/hash.h"

namespace knit {
namespace {

// ---- golden: staged == legacy -----------------------------------------------

TEST(Pipeline, StagedBuildMatchesLegacyKnitBuildBitForBit) {
  Diagnostics legacy_diags;
  Result<KnitBuildResult> legacy = KnitBuild(ClackKnit(), ClackSources(), "ClackRouter",
                                             KnitcOptions(), legacy_diags);
  ASSERT_TRUE(legacy.ok()) << legacy_diags.ToString();

  Diagnostics staged_diags;
  KnitPipeline pipeline;
  Result<ParsedProgram> parsed = pipeline.Parse(ClackKnit(), staged_diags);
  ASSERT_TRUE(parsed.ok()) << staged_diags.ToString();
  Result<ElaboratedConfig> elaborated =
      pipeline.Elaborate(parsed.value(), "ClackRouter", staged_diags);
  ASSERT_TRUE(elaborated.ok()) << staged_diags.ToString();
  Result<ScheduledConfig> scheduled = pipeline.Schedule(elaborated.value(), staged_diags);
  ASSERT_TRUE(scheduled.ok()) << staged_diags.ToString();
  Result<CheckedConfig> checked = pipeline.Check(scheduled.value(), staged_diags);
  ASSERT_TRUE(checked.ok()) << staged_diags.ToString();
  Result<CompiledUnits> compiled =
      pipeline.Compile(checked.value(), ClackSources(), staged_diags);
  ASSERT_TRUE(compiled.ok()) << staged_diags.ToString();
  Result<LinkedImage> linked = pipeline.Link(compiled.value(), staged_diags);
  ASSERT_TRUE(linked.ok()) << staged_diags.ToString();

  EXPECT_EQ(FingerprintImage(legacy.value().image), FingerprintImage(linked.value().image));
  EXPECT_EQ(legacy.value().image.text_bytes, linked.value().image.text_bytes);
  EXPECT_EQ(legacy.value().image.data, linked.value().image.data);
  EXPECT_EQ(legacy.value().image.function_symbols, linked.value().image.function_symbols);
  EXPECT_EQ(legacy.value().natives, linked.value().natives);
  EXPECT_EQ(legacy.value().ExportedSymbol("in0", "pkt_push"),
            linked.value().export_names.at({"in0", "pkt_push"}));
}

// ---- stage-prefix re-entry ----------------------------------------------------

// Every artifact is a value: a fresh pipeline (fresh cache, fresh metrics) must be
// able to pick up the build from any stage prefix and produce the same image.
TEST(Pipeline, ReenteringAnyStagePrefixYieldsTheSameImage) {
  Diagnostics diags;
  KnitPipeline first;
  Result<ParsedProgram> parsed = first.Parse(ClackKnit(), diags);
  ASSERT_TRUE(parsed.ok()) << diags.ToString();
  Result<ElaboratedConfig> elaborated = first.Elaborate(parsed.value(), "ClackRouter", diags);
  ASSERT_TRUE(elaborated.ok()) << diags.ToString();
  Result<ScheduledConfig> scheduled = first.Schedule(elaborated.value(), diags);
  ASSERT_TRUE(scheduled.ok()) << diags.ToString();
  Result<CheckedConfig> checked = first.Check(scheduled.value(), diags);
  ASSERT_TRUE(checked.ok()) << diags.ToString();
  Result<CompiledUnits> compiled = first.Compile(checked.value(), ClackSources(), diags);
  ASSERT_TRUE(compiled.ok()) << diags.ToString();
  Result<LinkedImage> baseline = first.Link(compiled.value(), diags);
  ASSERT_TRUE(baseline.ok()) << diags.ToString();
  uint64_t want = FingerprintImage(baseline.value().image);

  for (int prefix = 0; prefix <= 5; ++prefix) {
    Diagnostics rediags;
    KnitPipeline resumed;  // fresh pipeline: nothing carried over but the artifact
    Result<ParsedProgram> p = prefix >= 1 ? parsed : resumed.Parse(ClackKnit(), rediags);
    ASSERT_TRUE(p.ok()) << "prefix " << prefix << ": " << rediags.ToString();
    Result<ElaboratedConfig> e = prefix >= 2
                                     ? elaborated
                                     : resumed.Elaborate(p.value(), "ClackRouter", rediags);
    ASSERT_TRUE(e.ok()) << "prefix " << prefix << ": " << rediags.ToString();
    Result<ScheduledConfig> s = prefix >= 3 ? scheduled : resumed.Schedule(e.value(), rediags);
    ASSERT_TRUE(s.ok()) << "prefix " << prefix << ": " << rediags.ToString();
    Result<CheckedConfig> c = prefix >= 4 ? checked : resumed.Check(s.value(), rediags);
    ASSERT_TRUE(c.ok()) << "prefix " << prefix << ": " << rediags.ToString();
    Result<CompiledUnits> u =
        prefix >= 5 ? compiled : resumed.Compile(c.value(), ClackSources(), rediags);
    ASSERT_TRUE(u.ok()) << "prefix " << prefix << ": " << rediags.ToString();
    Result<LinkedImage> image = resumed.Link(u.value(), rediags);
    ASSERT_TRUE(image.ok()) << "prefix " << prefix << ": " << rediags.ToString();
    EXPECT_EQ(FingerprintImage(image.value().image), want) << "prefix " << prefix;
  }
}

// ---- --jobs determinism -------------------------------------------------------

uint64_t BuildFingerprint(const std::string& top, KnitcOptions options,
                          PipelineMetrics* metrics_out = nullptr) {
  Diagnostics diags;
  KnitPipeline pipeline(std::move(options));
  Result<LinkedImage> built = pipeline.Build(ClackKnit(), ClackSources(), top, diags);
  EXPECT_TRUE(built.ok()) << diags.ToString();
  if (!built.ok()) {
    return 0;
  }
  if (metrics_out != nullptr) {
    *metrics_out = pipeline.metrics();
  }
  return FingerprintImage(built.value().image);
}

TEST(Pipeline, ImagesAreBitIdenticalAcrossJobCounts) {
  for (const char* top : {"ClackRouter", "ClackRouterFlat"}) {
    KnitcOptions j1;
    j1.jobs = 1;
    uint64_t base = BuildFingerprint(top, j1);
    ASSERT_NE(base, 0u);
    for (int jobs : {2, 8}) {
      KnitcOptions options;
      options.jobs = jobs;
      PipelineMetrics metrics;
      EXPECT_EQ(BuildFingerprint(top, options, &metrics), base)
          << top << " at jobs=" << jobs;
      const StageMetrics* compile = metrics.Find("compile");
      ASSERT_NE(compile, nullptr);
      EXPECT_GE(compile->threads, 1);
    }
  }
}

TEST(Pipeline, DifferentConfigurationsHaveDifferentFingerprints) {
  uint64_t modular = BuildFingerprint("ClackRouter", KnitcOptions());
  uint64_t flat = BuildFingerprint("ClackRouterFlat", KnitcOptions());
  EXPECT_NE(modular, flat);
}

// ---- artifact cache -----------------------------------------------------------

TEST(Pipeline, WarmCacheRebuildRecompilesNothingAndIsBitIdentical) {
  KnitcOptions options;
  options.cache = std::make_shared<BuildCache>();

  PipelineMetrics cold;
  uint64_t first = BuildFingerprint("ClackRouter", options, &cold);
  ASSERT_NE(first, 0u);
  EXPECT_GT(cold.CacheMisses(), 0);
  EXPECT_EQ(cold.CacheHits(), 0);

  PipelineMetrics warm;
  uint64_t second = BuildFingerprint("ClackRouter", options, &warm);
  EXPECT_EQ(second, first);
  EXPECT_EQ(warm.CacheMisses(), 0);
  EXPECT_EQ(warm.CacheHits(), cold.CacheMisses());
}

// A: standalone, B+C: one flatten group, D: standalone.
constexpr const char* kCacheKnit = R"(
bundletype TA = { fa }
bundletype TB = { fb }
bundletype TC = { fc }
bundletype TD = { fd }
unit A = { imports []; exports [ oa : TA ]; files { "a.c" }; }
unit B = { imports [ ic : TC ]; exports [ ob : TB ]; depends { ob needs ic; }; files { "b.c" }; }
unit C = { imports []; exports [ oc : TC ]; files { "c.c" }; }
unit D = { imports []; exports [ od : TD ]; files { "d.c" }; }
unit Grouped = {
  imports [];
  exports [ ob : TB ];
  flatten;
  link { [c] <- C <- []; [ob] <- B <- [c]; };
}
unit Top = {
  imports [];
  exports [ oa : TA, ob : TB, od : TD ];
  link { [oa] <- A <- []; [ob] <- Grouped <- []; [od] <- D <- []; };
}
)";

SourceMap CacheSources() {
  SourceMap sources;
  sources["a.c"] = "int fa(void) { return 1; }\n";
  sources["b.c"] = "extern int fc(void);\nint fb(void) { return fc() + 10; }\n";
  sources["c.c"] = "int fc(void) { return 2; }\n";
  sources["d.c"] = "int fd(void) { return 3; }\n";
  return sources;
}

PipelineMetrics BuildCacheProgram(const SourceMap& sources,
                                  const std::shared_ptr<BuildCache>& cache,
                                  KnitcOptions options = KnitcOptions(),
                                  const std::string& knit = kCacheKnit) {
  options.cache = cache;
  Diagnostics diags;
  KnitPipeline pipeline(options);
  Result<LinkedImage> built = pipeline.Build(knit, sources, "Top", diags);
  EXPECT_TRUE(built.ok()) << diags.ToString();
  return pipeline.metrics();
}

TEST(Pipeline, EditingOneUnitRecompilesExactlyThatUnit) {
  auto cache = std::make_shared<BuildCache>();
  SourceMap sources = CacheSources();

  // Cold: 2 standalone unit objects (A, D) + 1 flatten group = 3 compiles.
  PipelineMetrics cold = BuildCacheProgram(sources, cache);
  EXPECT_EQ(cold.CacheMisses(), 3);
  EXPECT_EQ(cold.CacheHits(), 0);
  EXPECT_EQ(cold.flatten_group_count, 1);

  // Untouched rebuild: everything from cache.
  PipelineMetrics warm = BuildCacheProgram(sources, cache);
  EXPECT_EQ(warm.CacheMisses(), 0);
  EXPECT_EQ(warm.CacheHits(), 3);

  // Edit the standalone unit A: exactly its object recompiles.
  sources["a.c"] = "int fa(void) { return 100; }\n";
  PipelineMetrics after_a = BuildCacheProgram(sources, cache);
  EXPECT_EQ(after_a.CacheMisses(), 1);
  EXPECT_EQ(after_a.CacheHits(), 2);

  // Edit unit B, a flatten-group member: exactly its group recompiles (the other
  // standalone objects stay cached).
  sources["b.c"] = "extern int fc(void);\nint fb(void) { return fc() + 20; }\n";
  PipelineMetrics after_b = BuildCacheProgram(sources, cache);
  EXPECT_EQ(after_b.CacheMisses(), 1);
  EXPECT_EQ(after_b.CacheHits(), 2);

  // Everything back in cache again.
  PipelineMetrics warm2 = BuildCacheProgram(sources, cache);
  EXPECT_EQ(warm2.CacheMisses(), 0);
  EXPECT_EQ(warm2.CacheHits(), 3);
}

// Optimization configuration is part of the compile-stage cache key: changing
// the level or a unit's inline limit must recompile, and a warm rebuild at the
// same configuration must not.
TEST(Pipeline, ChangingOptimizationConfigRecompiles) {
  auto cache = std::make_shared<BuildCache>();
  SourceMap sources = CacheSources();

  PipelineMetrics cold = BuildCacheProgram(sources, cache);  // default: -O1
  EXPECT_EQ(cold.CacheMisses(), 3);

  // Same sources at -O2: every object recompiles (the key changed, the text
  // didn't), and the -O1 entries stay in the cache untouched.
  KnitcOptions o2;
  o2.opt_level = 2;
  PipelineMetrics cold_o2 = BuildCacheProgram(sources, cache, o2);
  EXPECT_EQ(cold_o2.CacheMisses(), 3);
  EXPECT_EQ(cold_o2.CacheHits(), 0);

  // Warm rebuild at -O2: zero compiles.
  PipelineMetrics warm_o2 = BuildCacheProgram(sources, cache, o2);
  EXPECT_EQ(warm_o2.CacheMisses(), 0);
  EXPECT_EQ(warm_o2.CacheHits(), 3);

  // And the original -O1 entries are still warm too.
  PipelineMetrics warm_o1 = BuildCacheProgram(sources, cache);
  EXPECT_EQ(warm_o1.CacheMisses(), 0);
  EXPECT_EQ(warm_o1.CacheHits(), 3);

  // A unit whose flags set a different inline limit is a different key as
  // well: exactly that unit recompiles.
  std::string budget_knit = std::string("flags Budget = { \"-finline-limit=4\" }\n") + kCacheKnit;
  const std::string a_files = "files { \"a.c\" };";
  budget_knit.replace(budget_knit.find(a_files), a_files.size(),
                      "files { \"a.c\" } with flags Budget;");
  PipelineMetrics cold_budget = BuildCacheProgram(sources, cache, KnitcOptions(), budget_knit);
  EXPECT_EQ(cold_budget.CacheMisses(), 1);
  EXPECT_EQ(cold_budget.CacheHits(), 2);

  // -O0 (optimizer off) is yet another key.
  KnitcOptions o0;
  o0.opt_level = 0;
  PipelineMetrics cold_o0 = BuildCacheProgram(sources, cache, o0);
  EXPECT_EQ(cold_o0.CacheMisses(), 3);
  PipelineMetrics warm_o0 = BuildCacheProgram(sources, cache, o0);
  EXPECT_EQ(warm_o0.CacheMisses(), 0);
  EXPECT_EQ(warm_o0.CacheHits(), 3);
}

// The loaded profile's digest is part of the compile-stage cache key: switching
// profiles (or dropping the profile) must recompile rather than reuse objects
// built under different guidance, and a warm rebuild with the same profile must
// hit on everything.
TEST(Pipeline, ChangingProfileRecompiles) {
  auto cache = std::make_shared<BuildCache>();
  SourceMap sources = CacheSources();

  PipelineMetrics plain = BuildCacheProgram(sources, cache);  // no profile
  EXPECT_EQ(plain.CacheMisses(), 3);

  auto profile_a = std::make_shared<LoadedProfile>();
  profile_a->meta.top = "Top";
  profile_a->profile.total_cycles = 1000;

  KnitcOptions with_a;
  with_a.profile = profile_a;
  PipelineMetrics cold_a = BuildCacheProgram(sources, cache, with_a);
  EXPECT_EQ(cold_a.CacheMisses(), 3);
  EXPECT_EQ(cold_a.CacheHits(), 0);

  PipelineMetrics warm_a = BuildCacheProgram(sources, cache, with_a);
  EXPECT_EQ(warm_a.CacheMisses(), 0);
  EXPECT_EQ(warm_a.CacheHits(), 3);

  // A re-recorded profile with different measurements is a different key.
  auto profile_b = std::make_shared<LoadedProfile>(*profile_a);
  profile_b->profile.total_cycles = 2000;
  KnitcOptions with_b;
  with_b.profile = profile_b;
  PipelineMetrics cold_b = BuildCacheProgram(sources, cache, with_b);
  EXPECT_EQ(cold_b.CacheMisses(), 3);

  // The profile-free entries were never evicted.
  PipelineMetrics warm_plain = BuildCacheProgram(sources, cache);
  EXPECT_EQ(warm_plain.CacheMisses(), 0);
  EXPECT_EQ(warm_plain.CacheHits(), 3);
}

TEST(Pipeline, DiskCachePersistsAcrossPipelines) {
  std::string dir = ::testing::TempDir() + "knit-cache-test";
  std::filesystem::remove_all(dir);  // stale entries from a previous run = not cold
  SourceMap sources = CacheSources();
  {
    KnitcOptions options;
    options.cache_dir = dir;
    Diagnostics diags;
    KnitPipeline pipeline(options);
    ASSERT_TRUE(pipeline.Build(kCacheKnit, sources, "Top", diags).ok()) << diags.ToString();
    EXPECT_EQ(pipeline.metrics().CacheMisses(), 3);
  }
  {
    KnitcOptions options;
    options.cache_dir = dir;  // fresh pipeline + fresh in-memory cache, same dir
    Diagnostics diags;
    KnitPipeline pipeline(options);
    ASSERT_TRUE(pipeline.Build(kCacheKnit, sources, "Top", diags).ok()) << diags.ToString();
    EXPECT_EQ(pipeline.metrics().CacheMisses(), 0);
    EXPECT_EQ(pipeline.metrics().CacheHits(), 3);
  }
}

// A cached object whose instruction names no opcode is malformed: the lookup
// misses, the unit recompiles, and the image is the one a clean build links.
TEST(Pipeline, CachedObjectWithAnUnknownOpcodeIsRecompiled) {
  std::string dir = ::testing::TempDir() + "knit-cache-opcode-test";
  std::filesystem::remove_all(dir);
  SourceMap sources = CacheSources();
  auto build = [&](int expected_misses) {
    KnitcOptions options;
    options.cache_dir = dir;
    Diagnostics diags;
    KnitPipeline pipeline(options);
    Result<LinkedImage> built = pipeline.Build(kCacheKnit, sources, "Top", diags);
    EXPECT_TRUE(built.ok()) << diags.ToString();
    EXPECT_EQ(pipeline.metrics().CacheMisses(), expected_misses);
    return built.ok() ? FingerprintImage(built.value().image) : 0;
  };
  const uint64_t clean = build(3);

  // Overwrite the opcode field of the first instruction of one cached object.
  // Layout: magic, name, symbols (name, 5 words each), function count, then the
  // first function's name, 5 words, instruction count, and its first opcode.
  std::vector<std::filesystem::path> objects;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    objects.push_back(entry.path());
  }
  ASSERT_EQ(objects.size(), 3u);
  std::sort(objects.begin(), objects.end());
  std::string bytes;
  {
    std::ifstream in(objects[0], std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  size_t at = 8;
  auto u32 = [&bytes](size_t offset) {
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + i])) << (8 * i);
    }
    return value;
  };
  auto skip_string = [&] { at += 4 + u32(at); };
  skip_string();  // object name
  const uint32_t symbols = u32(at);
  at += 4;
  for (uint32_t s = 0; s < symbols; ++s) {
    skip_string();
    at += 5 * 4;
  }
  ASSERT_GE(u32(at), 1u) << "object has no functions";
  at += 4;
  skip_string();  // function name
  at += 5 * 4;
  ASSERT_GE(u32(at), 1u) << "function has no code";
  at += 4;
  ASSERT_LE(u32(at), static_cast<uint32_t>(Op::kNop));
  bytes[at] = static_cast<char>(0xC8);  // opcode 200
  {
    std::ofstream out(objects[0], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  EXPECT_EQ(build(1), clean);
  EXPECT_EQ(build(0), clean);  // the recompile rewrote the entry
}

// A cached object with any flipped byte (magic, payload or checksum) fails its
// checksum: the lookup misses, the unit recompiles, and the image is the one a
// clean build links.
TEST(Pipeline, CachedObjectWithAFlippedByteIsRecompiled) {
  std::string dir = ::testing::TempDir() + "knit-cache-flip-test";
  std::filesystem::remove_all(dir);
  SourceMap sources = CacheSources();
  auto build = [&](int expected_misses) {
    KnitcOptions options;
    options.cache_dir = dir;
    Diagnostics diags;
    KnitPipeline pipeline(options);
    Result<LinkedImage> built = pipeline.Build(kCacheKnit, sources, "Top", diags);
    EXPECT_TRUE(built.ok()) << diags.ToString();
    EXPECT_EQ(pipeline.metrics().CacheMisses(), expected_misses);
    return built.ok() ? FingerprintImage(built.value().image) : 0;
  };
  const uint64_t clean = build(3);

  std::vector<std::filesystem::path> objects;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    objects.push_back(entry.path());
  }
  ASSERT_EQ(objects.size(), 3u);
  std::sort(objects.begin(), objects.end());
  std::mt19937 rng(20240611);
  for (int round = 0; round < 24; ++round) {
    const std::filesystem::path& object = objects[round % objects.size()];
    std::string bytes;
    {
      std::ifstream in(object, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(bytes.empty());
    // The first and last bytes, then seeded offsets across the whole file.
    size_t at = round == 0 ? 0 : round == 1 ? bytes.size() - 1 : rng() % bytes.size();
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng() % 255));
    {
      std::ofstream out(object, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EQ(build(1), clean) << object.filename() << " byte " << at << " of " << bytes.size();
  }
  EXPECT_EQ(build(0), clean);  // every recompile rewrote its entry
}

// Marks the name a symbol is renamed to for the "names one symbol twice" edit
// below: an ObjectFile cannot hold two symbols of one name, so that edit renames
// a symbol to kTwinMark + another's name and UnmarkTwin drops the mark from the
// serialized bytes.
constexpr std::string_view kTwinMark = "\x01twin:";

// Drops kTwinMark from every marked string in the serialized object `bytes` (the
// symbol and, for a function, its display name) and seals the file again: the
// magic (8 bytes), then the payload, then its FNV-64 checksum (8 bytes,
// little-endian).
void UnmarkTwin(std::string& bytes) {
  for (size_t at = bytes.find(kTwinMark); at != std::string::npos;
       at = bytes.find(kTwinMark, at)) {
    // The marked string's 4-byte little-endian length precedes it.
    uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[at - 4 + i])) << (8 * i);
    }
    length -= static_cast<uint32_t>(kTwinMark.size());
    for (int i = 0; i < 4; ++i) {
      bytes[at - 4 + i] = static_cast<char>((length >> (8 * i)) & 0xFF);
    }
    bytes.erase(at, kTwinMark.size());
  }
  const uint64_t checksum = HashBytes(bytes.data() + 8, bytes.size() - 16);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>((checksum >> (8 * i)) & 0xFF);
  }
}

// A cached object whose checksum holds but that the compiler could not have
// written is not well formed: the lookup misses, the unit recompiles, and the
// image is the one a clean build links. Each edit below is applied to every
// cached object it fits, and the objects are sealed again by
// SerializeObjectFile (and then patched, for an edit an ObjectFile cannot
// hold). Linking the first used to crash the build; the frame and
// argument-count edits are what the seeded mutation test (cache_fuzz_test)
// found: the optimizer then sized per-offset tables by a 2 GiB frame, or
// popped an empty stack.
TEST(Pipeline, MalformedCachedObjectsAreRecompiled) {
  struct Edit {
    const char* what;
    bool (*apply)(ObjectFile& object);
    void (*patch)(std::string& bytes) = nullptr;  // applied to the sealed bytes
  };
  const Edit edits[] = {
      {"a second symbol of the first symbol's name",
       [](ObjectFile& object) {
         if (object.symbols().size() < 2) {
           return false;
         }
         const std::string twin = std::string(kTwinMark) + object.symbols()[0].name();
         Diagnostics diags;
         return ObjcopyRename(object, {{object.symbols()[1].name(), twin}}, diags).ok();
       },
       UnmarkTwin},
      {"call and symbol-constant operands 100000",
       [](ObjectFile& object) {
         bool changed = false;
         for (BytecodeFunction& function : object.functions) {
           for (Insn& insn : function.code) {
             if (insn.op == Op::kCall || insn.op == Op::kConstSym) {
               insn.a = 100000;
               changed = true;
             }
           }
         }
         return changed;
       }},
      {"a frame of 2080374788 bytes",
       [](ObjectFile& object) {
         for (BytecodeFunction& function : object.functions) {
           function.frame_size = 2080374788;
         }
         return !object.functions.empty();
       }},
      {"a call taking 100 more arguments than are pushed",
       [](ObjectFile& object) {
         for (BytecodeFunction& function : object.functions) {
           for (Insn& insn : function.code) {
             if (insn.op == Op::kCall) {
               insn.b += 100;
               return true;
             }
           }
         }
         return false;
       }},
      {"a jump past the end of its function",
       [](ObjectFile& object) {
         for (BytecodeFunction& function : object.functions) {
           for (Insn& insn : function.code) {
             if (IsJump(insn.op)) {
               insn.a = static_cast<int32_t>(function.code.size());
               return true;
             }
           }
         }
         return false;
       }},
      {"a local load at offset 2^30",
       [](ObjectFile& object) {
         for (BytecodeFunction& function : object.functions) {
           for (Insn& insn : function.code) {
             if (insn.op == Op::kLoadLocal) {
               insn.a = 1 << 30;
               return true;
             }
           }
         }
         return false;
       }},
      {"a 2-byte memory load",
       [](ObjectFile& object) {
         for (BytecodeFunction& function : object.functions) {
           for (Insn& insn : function.code) {
             if (insn.op == Op::kLoadMem) {
               insn.b = 2;
               return true;
             }
           }
         }
         return false;
       }},
      {"a value-returning function marked void",
       [](ObjectFile& object) {
         for (BytecodeFunction& function : object.functions) {
           for (const Insn& insn : function.code) {
             if (insn.op == Op::kRet && insn.a != 0) {
               function.returns_value = false;
               return true;
             }
           }
         }
         return false;
       }},
      {"a text symbol naming function 100000",
       [](ObjectFile& object) {
         for (ObjSymbol& symbol : object.symbols()) {
           if (symbol.section == ObjSymbol::Section::kText) {
             symbol.index = 100000;
             return true;
           }
         }
         return false;
       }},
  };
  for (const Edit& edit : edits) {
    std::string dir = ::testing::TempDir() + "knit-cache-malformed-test";
    std::filesystem::remove_all(dir);
    auto build = [&](int* misses) {
      KnitcOptions options;
      options.opt_level = 2;
      options.cache_dir = dir;
      Diagnostics diags;
      KnitPipeline pipeline(options);
      Result<LinkedImage> built =
          pipeline.Build(ClackKnit(), ClackSources(), "ClackRouter", diags);
      EXPECT_TRUE(built.ok()) << edit.what << ": " << diags.ToString();
      *misses = pipeline.metrics().CacheMisses();
      return built.ok() ? FingerprintImage(built.value().image) : 0;
    };
    int misses = 0;
    const uint64_t clean = build(&misses);
    ASSERT_GT(misses, 0);

    int rewritten = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::string bytes;
      {
        std::ifstream in(entry.path(), std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
      }
      ObjectFile object;
      ASSERT_TRUE(DeserializeObjectFile(bytes, &object)) << entry.path().filename();
      if (!edit.apply(object)) {
        continue;
      }
      bytes = SerializeObjectFile(object);
      if (edit.patch != nullptr) {
        edit.patch(bytes);
      }
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      ++rewritten;
    }
    ASSERT_GT(rewritten, 0) << edit.what;
    EXPECT_EQ(build(&misses), clean) << edit.what;
    EXPECT_EQ(misses, rewritten) << edit.what;
    EXPECT_EQ(build(&misses), clean) << edit.what;  // every recompile rewrote its entry
    EXPECT_EQ(misses, 0) << edit.what;
  }
}

// ---- metrics ------------------------------------------------------------------

TEST(Pipeline, MetricsRecordEveryStageAndSerializeAsJson) {
  Diagnostics diags;
  KnitPipeline pipeline;
  Result<LinkedImage> built = pipeline.Build(ClackKnit(), ClackSources(), "ClackRouter", diags);
  ASSERT_TRUE(built.ok()) << diags.ToString();
  const PipelineMetrics& metrics = pipeline.metrics();
  for (const char* stage :
       {"parse", "elaborate", "schedule", "check", "compile", "objcopy", "init-object",
        "link"}) {
    EXPECT_NE(metrics.Find(stage), nullptr) << stage;
  }
  EXPECT_GT(metrics.instance_count, 0);
  EXPECT_GT(metrics.object_count, 0);
  EXPECT_GT(metrics.TotalSeconds(), 0.0);

  std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"compile\""), std::string::npos);
  EXPECT_NE(json.find("\"instances\": "), std::string::npos);
  EXPECT_NE(json.find("\"cache_misses\": "), std::string::npos);
}

// The legacy wrapper surfaces the staged metrics under the old name.
TEST(Pipeline, LegacyWrapperCarriesPipelineMetrics) {
  Diagnostics diags;
  Result<KnitBuildResult> build =
      KnitBuild(ClackKnit(), ClackSources(), "ClackRouter", KnitcOptions(), diags);
  ASSERT_TRUE(build.ok()) << diags.ToString();
  const PipelineMetrics& stats = build.value().stats;
  EXPECT_GT(stats.instance_count, 0);
  EXPECT_GT(stats.object_count, 0);
  EXPECT_GT(stats.StageSeconds("compile"), 0.0);
}

// ---- object serialization round-trip ------------------------------------------

TEST(Pipeline, ObjectFileSerializationRoundTrips) {
  Diagnostics diags;
  KnitPipeline pipeline;
  Result<ParsedProgram> parsed = pipeline.Parse(kCacheKnit, diags);
  ASSERT_TRUE(parsed.ok());
  Result<ElaboratedConfig> elaborated = pipeline.Elaborate(parsed.value(), "Top", diags);
  ASSERT_TRUE(elaborated.ok());
  Result<ScheduledConfig> scheduled = pipeline.Schedule(elaborated.value(), diags);
  ASSERT_TRUE(scheduled.ok());
  Result<CheckedConfig> checked = pipeline.Check(scheduled.value(), diags);
  ASSERT_TRUE(checked.ok());
  Result<CompiledUnits> compiled = pipeline.Compile(checked.value(), CacheSources(), diags);
  ASSERT_TRUE(compiled.ok()) << diags.ToString();
  ASSERT_FALSE(compiled.value().objects.empty());

  for (const ObjectFile& object : compiled.value().objects) {
    std::string bytes = SerializeObjectFile(object);
    ObjectFile back;
    ASSERT_TRUE(DeserializeObjectFile(bytes, &back)) << object.name;
    EXPECT_EQ(back.name, object.name);
    ASSERT_EQ(back.symbols().size(), object.symbols().size());
    for (size_t i = 0; i < object.symbols().size(); ++i) {
      EXPECT_EQ(back.symbols()[i].name(), object.symbols()[i].name());
      EXPECT_EQ(back.symbols()[i].section, object.symbols()[i].section);
      EXPECT_EQ(back.symbols()[i].global, object.symbols()[i].global);
      EXPECT_EQ(back.symbols()[i].index, object.symbols()[i].index);
    }
    ASSERT_EQ(back.functions.size(), object.functions.size());
    for (size_t i = 0; i < object.functions.size(); ++i) {
      EXPECT_EQ(back.functions[i].name, object.functions[i].name);
      EXPECT_EQ(back.functions[i].code, object.functions[i].code);
      EXPECT_EQ(back.functions[i].returns_value, object.functions[i].returns_value);
    }
    EXPECT_EQ(back.data, object.data);
    EXPECT_EQ(back.data_relocs.size(), object.data_relocs.size());
  }

  // Corrupt bytes read as a miss, never as a bogus object.
  ObjectFile ignored;
  EXPECT_FALSE(DeserializeObjectFile("garbage", &ignored));
  std::string truncated = SerializeObjectFile(compiled.value().objects[0]);
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(DeserializeObjectFile(truncated, &ignored));
}

}  // namespace
}  // namespace knit
