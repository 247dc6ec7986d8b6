// Load-time bytecode verification (src/vm/verify.h): malformed hand-assembled
// images are rejected each with its own diagnostic, a machine on a rejected image
// never executes, every corpus image verifies, and seeded mutants of the Clack
// router are either rejected or run to a result or a trap under fuel.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/clack/session.h"
#include "src/clack/trace.h"
#include "src/driver/knitc.h"
#include "src/oskit/alloc_corpus.h"
#include "src/oskit/corpus.h"
#include "src/support/mangle.h"
#include "src/vm/machine.h"
#include "src/vm/verify.h"
#include "tests/testutil.h"

namespace knit {
namespace {

// One int-returning function "f" (id 0) plus, when asked, a two-parameter
// callee "g" (id 1) and one native "n" (id kNativeBase).
Image HandImage(std::vector<Insn> code, int frame_size = 0, bool with_callee = false) {
  Image image;
  BytecodeFunction f;
  f.name = "f";
  f.returns_value = true;
  f.frame_size = frame_size;
  f.text_offset = 0;
  f.code = std::move(code);
  image.functions.push_back(f);
  image.function_symbols["f"] = 0;
  if (with_callee) {
    BytecodeFunction g;
    g.name = "g";
    g.param_count = 2;
    g.frame_size = 8;
    g.returns_value = true;
    g.text_offset = 64;
    g.code = {{Op::kLoadLocal, 0, 4}, {Op::kRet, 1, 0}};
    image.functions.push_back(g);
    image.function_symbols["g"] = 1;
    image.natives.push_back("n");
  }
  image.text_bytes = 128;
  return image;
}

struct MalformedCase {
  const char* name;
  Image image;
  const char* diagnostic;
};

std::vector<MalformedCase> MalformedImages() {
  const int32_t returns = MakeCallB(0, true);
  std::vector<MalformedCase> cases;
  cases.push_back({"bad jump", HandImage({{Op::kJmp, 7, 0}}),
                   "jump target 7 outside the function (1 insns)"});
  // pc 3 is reached from the kJz at depth 0 and by falling through from pc 2
  // at depth 1.
  cases.push_back({"join depth mismatch",
                   HandImage({{Op::kConstInt, 1, 0},
                              {Op::kJz, 3, 0},
                              {Op::kConstInt, 5, 0},
                              {Op::kConstInt, 2, 0},
                              {Op::kRet, 1, 0}}),
                   "another path reaches it at depth"});
  cases.push_back({"underflow", HandImage({{Op::kConstInt, 1, 0}, {Op::kAdd, 0, 0}}),
                   "evaluation stack underflow (depth 1)"});
  cases.push_back({"local outside frame", HandImage({{Op::kLoadLocal, 4, 4}, {Op::kRet, 1, 0}}, 4),
                   "local access outside the 4-byte frame"});
  cases.push_back({"bad slot", HandImage({{Op::kCallBound, 3, returns}, {Op::kRet, 1, 0}}),
                   "bound call through invalid binding slot 3"});
  cases.push_back({"one past the last native",
                   HandImage({{Op::kCall, kNativeBase + 1, returns}, {Op::kRet, 1, 0}}, 0, true),
                   "call to invalid callee id 1073741825"});
  // Ids between the functions and kNativeBase name nothing; the first one is
  // where natives were numbered before they had their own range.
  cases.push_back({"first id past the functions",
                   HandImage({{Op::kCall, 2, returns}, {Op::kRet, 1, 0}}, 0, true),
                   "call to invalid callee id 2"});
  cases.push_back({"last id below the natives",
                   HandImage({{Op::kCall, kNativeBase - 1, returns}, {Op::kRet, 1, 0}}, 0, true),
                   "call to invalid callee id 1073741823"});
  cases.push_back({"bad callee id", HandImage({{Op::kCall, -1, returns}, {Op::kRet, 1, 0}}),
                   "call to invalid callee id -1"});
  cases.push_back({"too few arguments",
                   HandImage({{Op::kConstInt, 1, 0},
                              {Op::kCall, 1, MakeCallB(1, true)},
                              {Op::kRet, 1, 0}},
                             0, true),
                   "call to 'g' passes 1 arguments, it takes 2"});
  cases.push_back({"return convention",
                   HandImage({{Op::kConstInt, 1, 0},
                              {Op::kConstInt, 2, 0},
                              {Op::kCall, 1, MakeCallB(2, false)},
                              {Op::kConstInt, 0, 0},
                              {Op::kRet, 1, 0}},
                             0, true),
                   "call to 'g' disagrees with its return convention"});
  cases.push_back({"unlinked constant", HandImage({{Op::kConstSym, 0, 0}, {Op::kRet, 1, 0}}),
                   "unresolved symbol reference (unlinked code)"});
  cases.push_back({"bad opcode",
                   HandImage({{static_cast<Op>(200), 0, 0}, {Op::kRet, 1, 0}}),
                   "pc 0: invalid opcode 200"});
  Image void_returns_value = HandImage({{Op::kConstInt, 1, 0}, {Op::kRet, 1, 0}});
  void_returns_value.functions[0].returns_value = false;
  cases.push_back({"void returns a value", void_returns_value,
                   "return with a value from a void function"});
  cases.push_back({"falls off the end", HandImage({{Op::kConstInt, 1, 0}}),
                   "execution falls off the end of the function"});
  Image bad_binding = HandImage({{Op::kConstInt, 0, 0}, {Op::kRet, 1, 0}});
  bad_binding.bindings.push_back(BindingSlot{"s", "C", 9});
  cases.push_back({"bad binding target", bad_binding,
                   "binding slot 0 ('s') targets invalid callable 9"});
  return cases;
}

TEST(Verify, MalformedImagesAreRejectedEachWithItsOwnDiagnostic) {
  std::vector<std::string> seen;
  for (const MalformedCase& c : MalformedImages()) {
    SCOPED_TRACE(c.name);
    VerifyResult verified = VerifyImage(c.image);
    ASSERT_FALSE(verified.ok());
    EXPECT_NE(verified.error.find(c.diagnostic), std::string::npos) << verified.error;
    EXPECT_NE(verified.error.find("bytecode verification failed"), std::string::npos);
    for (const std::string& other : seen) {
      EXPECT_NE(verified.error, other) << "two cases share one diagnostic";
    }
    seen.push_back(verified.error);
  }
}

TEST(Verify, MachineOnARejectedImageNeverExecutes) {
  for (const MalformedCase& c : MalformedImages()) {
    SCOPED_TRACE(c.name);
    const std::string diagnostic = VerifyImage(c.image).error;
    Machine machine(c.image);
    for (const RunResult& result : {machine.Call("f"), machine.CallId(0), machine.CallId(5)}) {
      EXPECT_FALSE(result.ok);
      EXPECT_EQ(result.error, diagnostic);
    }
    EXPECT_EQ(machine.insns(), 0);
    EXPECT_EQ(machine.cycles(), 0);
  }
}

TEST(Verify, WellFormedImageReportsItsStackHighWaterMark) {
  // f: 1 + g(2, 3) — three values live at the call.
  Image image = HandImage({{Op::kConstInt, 1, 0},
                           {Op::kConstInt, 2, 0},
                           {Op::kConstInt, 3, 0},
                           {Op::kCall, 1, MakeCallB(2, true)},
                           {Op::kAdd, 0, 0},
                           {Op::kRet, 1, 0}},
                          0, true);
  VerifyResult verified = VerifyImage(image);
  ASSERT_TRUE(verified.ok()) << verified.error;
  EXPECT_EQ(verified.max_depth, (std::vector<int>{3, 1}));
  Machine machine(image);
  RunResult result = machine.Call("f");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.value, 3u);
}

// Codegen ends every body with a bare kRet, value-returning ones included, and
// the depth walk does not evaluate conditions, so that tail stays reachable
// behind a `while (1)` or an if-chain that covers every case. Such functions
// verify and run; a path that does reach the bare kRet returns 0.
TEST(Verify, ValueFunctionsWithAReachableBareReturnRun) {
  Image image = HandImage({{Op::kConstInt, 1, 0},
                           {Op::kConstInt, 2, 0},
                           {Op::kCall, 1, MakeCallB(2, true)},
                           {Op::kConstInt, 5, 0},
                           {Op::kAdd, 0, 0},
                           {Op::kRet, 1, 0}},
                          0, true);
  image.functions[1].code = {{Op::kRet, 0, 0}};
  VerifyResult verified = VerifyImage(image);
  ASSERT_TRUE(verified.ok()) << verified.error;
  Machine machine(image);
  RunResult result = machine.Call("f");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.value, 5u);
  EXPECT_EQ(machine.Call("g", {1, 2}).value, 0u);

  const char* source =
      "int g(int x) { return x; }\n"
      "int spin(int n) { while (1) { if (g(n)) return n; n = 3; } }\n"
      "int sign(int x) { if (x > 0) return 1; if (x <= 0) return 0; }\n"
      "int edge(int x) { if (x > 0) return 7; }\n"
      "int f(int x) { return spin(x) * 100 + sign(x) * 10 + edge(x); }\n";
  TestProgram plain = BuildProgram(source, /*optimize=*/false);
  ASSERT_TRUE(plain.ok()) << plain.error;
  EXPECT_TRUE(VerifyImage(*plain.image).ok()) << VerifyImage(*plain.image).error;
  EXPECT_EQ(RunBoth(source, "f", {5}), 517u);
  EXPECT_EQ(RunBoth(source, "f", {0}), 300u);
}

TEST(Verify, StubbedFunctionsVerifyButNeverRun) {
  Image image = HandImage({{Op::kConstInt, 0, 0}, {Op::kRet, 1, 0}}, 0, true);
  image.functions[1].code.clear();  // what dead-function elimination leaves behind
  VerifyResult verified = VerifyImage(image);
  ASSERT_TRUE(verified.ok()) << verified.error;
  EXPECT_EQ(verified.max_depth[1], -1);
  Machine machine(image);
  RunResult result = machine.Call("g", {1, 2});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("has no verified body"), std::string::npos) << result.error;
  // A direct call to a stub is a verification error, not a run-time trap.
  Image caller = HandImage({{Op::kConstInt, 1, 0},
                            {Op::kConstInt, 2, 0},
                            {Op::kCall, 1, MakeCallB(2, true)},
                            {Op::kRet, 1, 0}},
                           0, true);
  caller.functions[1].code.clear();
  EXPECT_NE(VerifyImage(caller).error.find("a stub without a body"), std::string::npos);
}

TEST(Verify, LenientDepthsMatchTheVerifierOnWellFormedCode) {
  Image image = HandImage({{Op::kConstInt, 1, 0},
                           {Op::kJz, 4, 0},
                           {Op::kConstInt, 5, 0},
                           {Op::kRet, 1, 0},
                           {Op::kConstInt, 6, 0},
                           {Op::kRet, 1, 0},
                           {Op::kNop, 0, 0}});
  std::string error;
  std::vector<int> strict = ComputeDepths(image.functions[0], &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(strict, ComputeDepths(image.functions[0]));
  EXPECT_EQ(strict, (std::vector<int>{0, 1, 0, 1, 0, 1, -1}));
}

// ---- every corpus image verifies ------------------------------------------------

struct CorpusTop {
  std::string top;
  const std::string* knit;
  const SourceMap* sources;
  std::string allocator;  // ClackAllocRouter only: the Alloc provider
};

std::vector<CorpusTop> CorpusTops() {
  std::vector<CorpusTop> tops;
  for (const char* top : {"ClackRouter", "ClackRouterFlat", "HandRouter", "HandRouterFlat"}) {
    tops.push_back({top, &ClackKnit(), &ClackSources(), ""});
  }
  for (const char* top : {"WebKernel", "WebKernelFlat"}) {
    tops.push_back({top, &OskitKnit(), &OskitSources(), ""});
  }
  for (const std::string& unit : AllocUnitNames()) {
    tops.push_back({"ClackAllocRouter", &ClackKnit(), &ClackSources(), unit});
  }
  return tops;
}

TEST(Verify, EveryCorpusImageVerifies) {
  int images = 0;
  for (const CorpusTop& corpus : CorpusTops()) {
    std::string knit_text = *corpus.knit;
    if (!corpus.allocator.empty()) {
      ASSERT_EQ(RewriteAllocProvider(knit_text, corpus.allocator), 1);
    }
    for (int level : {0, 1, 2}) {
      for (bool swappable : {false, true}) {
        SCOPED_TRACE(corpus.top + " " + corpus.allocator + " -O" + std::to_string(level) +
                     (swappable ? " --swappable=*" : ""));
        KnitcOptions options;
        options.opt_level = level;
        if (swappable) {
          options.swappable = {"*"};
        }
        Diagnostics diags;
        Result<KnitBuildResult> build =
            KnitBuild(knit_text, *corpus.sources, corpus.top, options, diags);
        ASSERT_TRUE(build.ok()) << diags.ToString();
        VerifyResult verified = VerifyImage(build.value().image);
        EXPECT_TRUE(verified.ok()) << verified.error;
        EXPECT_EQ(verified.max_depth.size(), build.value().image.functions.size());
        ++images;
      }
    }
  }
  EXPECT_EQ(images, 60);
}

// ---- seeded mutants of the Clack router --------------------------------------------
//
// Each mutant changes one field of one instruction (opcode, either operand) or
// swaps two instructions of one function. Whatever the verifier accepts must run
// to a result or a clean trap under a small fuel budget — never crash the host
// (the sanitizer lanes run this test instrumented).

TEST(Verify, MutatedClackImagesAreRejectedOrRunCleanly) {
  KnitcOptions options;
  options.opt_level = 2;
  Diagnostics diags;
  Result<KnitBuildResult> built =
      KnitBuild(ClackKnit(), ClackSources(), "ClackRouter", options, diags);
  ASSERT_TRUE(built.ok()) << diags.ToString();
  const KnitBuildResult& build = built.value();
  TraceOptions trace_options;
  trace_options.count = 6;
  trace_options.seed = 5;
  const std::vector<TracePacket> trace = GenerateTrace(trace_options);

  std::mt19937 rng(20261017);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<uint32_t>(n)); };
  auto operand = [&](int32_t current) -> int32_t {
    switch (pick(6)) {
      case 0:
        return current + 1;
      case 1:
        return current - 1;
      case 2:
        return -1 - pick(4);
      case 3:
        return static_cast<int32_t>(EncodeFuncRef(static_cast<int>(rng() & 0xFFFF)));
      case 4:
        return static_cast<int32_t>(rng());
      default:
        return pick(64);
    }
  };

  constexpr int kMutants = 400;
  int rejected = 0;
  int completed = 0;
  int trapped = 0;
  for (int m = 0; m < kMutants; ++m) {
    Image mutant = build.image;
    int f = pick(static_cast<int>(mutant.functions.size()));
    while (mutant.functions[f].code.empty()) {
      f = pick(static_cast<int>(mutant.functions.size()));
    }
    std::vector<Insn>& code = mutant.functions[f].code;
    Insn& insn = code[pick(static_cast<int>(code.size()))];
    switch (pick(4)) {
      case 0:
        insn.op = static_cast<Op>(pick(static_cast<int>(Op::kNop) + 4));
        break;
      case 1:
        insn.a = operand(insn.a);
        break;
      case 2:
        insn.b = operand(insn.b);
        break;
      default:
        std::swap(insn, code[pick(static_cast<int>(code.size()))]);
        break;
    }
    SCOPED_TRACE("mutant " + std::to_string(m) + " in " + mutant.functions[f].name + ": " +
                 DisassembleInsn(insn));

    Machine machine(mutant, CostModel());
    machine.set_max_insns(200'000);
    const std::string rejection = VerifyImage(mutant).error;
    Diagnostics session_diags;
    Result<std::unique_ptr<RouterSession>> session = RouterSession::Open(
        machine, RouterProgram::ClackEntryNames(build), EnvSymbol("dev", "dev_tx"),
        session_diags);
    ASSERT_TRUE(session.ok()) << session_diags.ToString();
    RunResult init = machine.Call(build.init_function);
    if (!rejection.empty()) {
      EXPECT_FALSE(init.ok);
      EXPECT_EQ(init.error, rejection);
      ++rejected;
      continue;
    }
    if (!init.ok) {
      EXPECT_FALSE(init.error.empty());
      ++trapped;
      continue;
    }
    Result<void> fed = session.value()->FeedRange(trace, 0, trace.size(), session_diags);
    ++(fed.ok() ? completed : trapped);
  }
  EXPECT_EQ(rejected + completed + trapped, kMutants);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(completed, 0);
  EXPECT_GT(trapped, 0);
}

}  // namespace
}  // namespace knit
