// VM machine-model tests: cost accounting, I-cache simulation, BTB behaviour,
// traps, determinism, and the memory interface.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "tests/testutil.h"

namespace knit {
namespace {

TEST(Machine, DeterministicCounters) {
  const char* source =
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i * i; return s; }";
  TestProgram a = BuildProgram(source, true);
  TestProgram b = BuildProgram(source, true);
  ASSERT_TRUE(a.ok() && b.ok());
  a.Run("f", {100});
  b.Run("f", {100});
  EXPECT_EQ(a.machine->cycles(), b.machine->cycles());
  EXPECT_EQ(a.machine->insns(), b.machine->insns());
  EXPECT_EQ(a.machine->ifetch_stalls(), b.machine->ifetch_stalls());
}

TEST(Machine, HotLoopHasFewStalls) {
  const char* source =
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }";
  TestProgram program = BuildProgram(source, true);
  ASSERT_TRUE(program.ok());
  program.Run("f", {10000});
  // The loop fits in a handful of cache lines: stalls must be a tiny fraction.
  EXPECT_LT(program.machine->ifetch_stalls(), program.machine->cycles() / 100);
}

TEST(Machine, CallsCostMoreThanInlineCode) {
  const char* calls =
      "int helper(int x) { return x + 1; }\n"
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s = helper(s); return s; }";
  const char* inline_code =
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s = s + 1; return s; }";
  // -O0 so the call is not inlined away.
  TestProgram with_calls = BuildProgram(calls, false);
  TestProgram without = BuildProgram(inline_code, false);
  ASSERT_TRUE(with_calls.ok() && without.ok());
  EXPECT_EQ(with_calls.Run("f", {1000}), without.Run("f", {1000}));
  EXPECT_GT(with_calls.machine->cycles(), without.machine->cycles() * 3 / 2)
      << "call overhead should dominate this loop";
}

TEST(Machine, BtbMakesMonomorphicIndirectCallsCheap) {
  const char* source =
      "int work(int x) { return x + 1; }\n"
      "int f(int n) {\n"
      "  int (*fp)(int) = work;\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i++) s = fp(s);\n"
      "  return s;\n"
      "}\n";
  TestProgram program = BuildProgram(source, false);
  ASSERT_TRUE(program.ok());
  program.machine->ResetCounters();
  program.Run("f", {1000});
  long long mono = program.machine->cycles();

  // Alternating targets defeat the last-target predictor.
  const char* bimorphic =
      "int work_a(int x) { return x + 1; }\n"
      "int work_b(int x) { return x + 1; }\n"
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    int (*fp)(int) = (i & 1) ? work_a : work_b;\n"
      "    s = fp(s);\n"
      "  }\n"
      "  return s;\n"
      "}\n";
  TestProgram program2 = BuildProgram(bimorphic, false);
  ASSERT_TRUE(program2.ok());
  program2.machine->ResetCounters();
  program2.Run("f", {1000});
  EXPECT_GT(program2.machine->cycles(), mono) << "mispredicted indirect calls cost more";
}

TEST(Machine, SmallerICacheMeansMoreStalls) {
  // Many distinct functions called round-robin: thrashes a small cache.
  std::string source;
  for (int i = 0; i < 24; ++i) {
    source += "int f" + std::to_string(i) + "(int x) { return x * " + std::to_string(i + 2) +
              " + x / 3 + (x << 2) - (x >> 1) + x % 7 + " + std::to_string(i) + "; }\n";
  }
  source += "int f(int n) {\n  int s = 1;\n";
  source += "  for (int i = 0; i < n; i++) {\n";
  for (int i = 0; i < 24; ++i) {
    source += "    s += f" + std::to_string(i) + "(s);\n";
  }
  source += "  }\n  return s;\n}\n";

  std::string error;
  Result<ObjectFile> object = CompileSource(source, false, &error);
  ASSERT_TRUE(object.ok()) << error;
  Diagnostics diags;
  std::vector<LinkItem> items;
  items.emplace_back(object.take());
  Result<LinkResult> linked = Link(std::move(items), LinkOptions(), diags);
  ASSERT_TRUE(linked.ok()) << diags.ToString();

  auto stalls_with_cache = [&](int bytes) {
    CostModel cost;
    cost.icache_bytes = bytes;
    Machine machine(linked.value().image, cost);
    machine.Call("f", {50});
    return machine.ifetch_stalls();
  };
  long long big = stalls_with_cache(16384);
  long long small = stalls_with_cache(512);
  EXPECT_GT(small, big * 2) << "big=" << big << " small=" << small;
}

TEST(Machine, StackOverflowIsTrapped) {
  TestProgram program = BuildProgram("int f(int n) { return f(n + 1); }", false);
  ASSERT_TRUE(program.ok());
  RunResult result = program.machine->Call("f", {0});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("stack overflow"), std::string::npos) << result.error;
}

TEST(Machine, InstructionBudgetIsEnforced) {
  TestProgram program = BuildProgram("int f(void) { while (1) { } return 0; }", false);
  ASSERT_TRUE(program.ok());
  program.machine->set_max_insns(100000);
  RunResult result = program.machine->Call("f");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("budget"), std::string::npos) << result.error;
}

TEST(Machine, OutOfRangeAccessTraps) {
  TestProgram program = BuildProgram(
      "int f(void) { int *p = (int *)0x7FFFFFFF; return *p; }", false);
  ASSERT_TRUE(program.ok());
  RunResult result = program.machine->Call("f");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("out-of-range"), std::string::npos) << result.error;
}

TEST(Machine, IndirectCallThroughDataTraps) {
  TestProgram program = BuildProgram(
      "int f(void) { int x = 5; int (*fp)(void) = (int (*)(void))x; return fp(); }", false);
  ASSERT_TRUE(program.ok());
  RunResult result = program.machine->Call("f");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("non-function"), std::string::npos) << result.error;
}

// A function reference past the last native names no callable: the call traps
// instead of indexing the native table out of bounds.
// Forged refs: a function id past the image, and slot refs at and far past
// the one binding slot, which must never index the slot table out of range.
TEST(Machine, IndirectCallThroughInvalidFunctionReferenceTraps) {
  for (uint32_t ref : {0x80001000u, EncodeFuncRef(Image::SlotRef(1)),
                       EncodeFuncRef(kNativeBase - 1)}) {
    SCOPED_TRACE(ref);
    Image image;
    BytecodeFunction f;
    f.name = "f";
    f.returns_value = true;
    f.text_offset = 0;
    f.code = {{Op::kConstInt, static_cast<int32_t>(ref), 0},
              {Op::kCallIndirect, 0, MakeCallB(0, true)},
              {Op::kRet, 1, 0}};
    image.functions.push_back(f);
    image.function_symbols["f"] = 0;
    image.bindings.push_back(BindingSlot{"f", "", 0});
    image.text_bytes = 16;
    Machine machine(image);
    RunResult result = machine.Call("f");
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("indirect call to invalid function reference"),
              std::string::npos)
        << result.error;
  }
}

TEST(Machine, HostMemoryInterface) {
  TestProgram program = BuildProgram("int f(void) { return 0; }", false);
  ASSERT_TRUE(program.ok());
  Machine& machine = *program.machine;
  uint32_t address = machine.Sbrk(64);
  ASSERT_GE(address, 0x1000u);
  machine.WriteWord(address, 0xDEADBEEF);
  EXPECT_EQ(machine.ReadWord(address), 0xDEADBEEFu);
  machine.WriteByte(address + 4, 'h');
  machine.WriteByte(address + 5, 'i');
  machine.WriteByte(address + 6, 0);
  EXPECT_EQ(machine.ReadCString(address + 4), "hi");
  // Little-endian byte order of words.
  EXPECT_EQ(machine.ReadByte(address), 0xEF);
}

TEST(Machine, BulkByteAccessMatchesPerByteAccess) {
  TestProgram program = BuildProgram(
      "extern void fill(int at);\nint f(int at) { fill(at); return 1; }", false, {"fill"});
  ASSERT_TRUE(program.ok()) << program.error;
  Machine& machine = *program.machine;
  const uint32_t address = machine.Sbrk(64);
  const std::vector<uint8_t> bytes = {1, 2, 3, 4, 5};
  machine.WriteBytes(address, bytes);
  std::span<const uint8_t> view = machine.BytesAt(address, 5);
  ASSERT_EQ(view.size(), 5u);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), bytes.begin()));

  // A range not wholly in memory has no view, and a write to it stores the
  // in-range bytes one by one and traps at the first byte outside.
  const uint32_t top = 1u << 24;  // the default memory size
  EXPECT_TRUE(machine.BytesAt(top - 2, 5).empty());
  EXPECT_TRUE(machine.BytesAt(0x800, 4).empty());  // the null guard page
  EXPECT_TRUE(machine.BytesAt(address, 0xFFFFFFFFu).empty());
  machine.BindNative("fill", [&bytes](Machine& m, std::span<const uint32_t> args) {
    m.WriteBytes(args[0], bytes);
    return 0u;
  });
  RunResult result = machine.Call("f", {top - 2});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("out-of-range memory access at address 16777216"),
            std::string::npos)
      << result.error;
  EXPECT_EQ(machine.ReadByte(top - 2), 1);
  EXPECT_EQ(machine.ReadByte(top - 1), 2);
}

TEST(Machine, TrapMessageNamesFunctionAndPc) {
  TestProgram program = BuildProgram(
      "int inner(int *p) { return *p; }\n"
      "int f(void) { return inner((int *)0); }\n",
      false);
  ASSERT_TRUE(program.ok());
  RunResult result = program.machine->Call("f");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("inner"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("pc"), std::string::npos) << result.error;
}

TEST(Machine, RunResultCarriesStructuredBacktrace) {
  TestProgram program = BuildProgram(
      "int inner(int *p) { return *p; }\n"
      "int mid(void) { return inner((int *)0); }\n"
      "int f(void) { return mid(); }\n",
      false);
  ASSERT_TRUE(program.ok());
  RunResult result = program.machine->Call("f");
  ASSERT_FALSE(result.ok);
  // Innermost first: inner, mid, f — each entry "name (pc N)".
  ASSERT_EQ(result.backtrace.size(), 3u);
  EXPECT_EQ(result.backtrace[0].substr(0, 6), "inner ");
  EXPECT_EQ(result.backtrace[1].substr(0, 4), "mid ");
  EXPECT_EQ(result.backtrace[2].substr(0, 2), "f ");
  for (const std::string& frame : result.backtrace) {
    EXPECT_NE(frame.find("(pc "), std::string::npos) << frame;
  }
  // The flat error embeds the same frames for plain printing.
  EXPECT_NE(result.error.find("at inner"), std::string::npos) << result.error;
  // A successful call leaves no stale backtrace behind.
  RunResult ok = program.machine->Call("mid_ok", {});
  (void)ok;  // function does not exist; just must not crash
  RunResult clean = program.machine->Call("f");
  EXPECT_EQ(clean.backtrace.size(), 3u);
}

TEST(Machine, FaultPlanTrapsTheNthInvocation) {
  TestProgram program = BuildProgram(
      "int g(int x) { return x + 1; }\n"
      "int f(void) { int s = 0; for (int i = 0; i < 5; i++) s = g(s); return s; }\n",
      false);
  ASSERT_TRUE(program.ok());

  FaultPlan plan;
  plan.injections.push_back(FaultInjection{"g", 3, /*trap=*/true, 0});
  program.machine->set_fault_plan(plan);
  RunResult result = program.machine->Call("f");
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("fault injected"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("'g'"), std::string::npos) << result.error;
  // The fault fires inside the callee's frame, so the backtrace names it.
  ASSERT_FALSE(result.backtrace.empty());
  EXPECT_EQ(result.backtrace.front().substr(0, 2), "g ");

  // Setting a plan resets invocation counting; clearing it removes the fault.
  program.machine->ClearFaultPlan();
  EXPECT_EQ(program.machine->Call("f").value, 5u);
}

TEST(Machine, FaultPlanInjectsReturnValues) {
  TestProgram program = BuildProgram(
      "int g(int x) { return x + 1; }\n"
      "int f(void) { int s = 0; for (int i = 0; i < 5; i++) s = s + g(0); return s; }\n",
      false);
  ASSERT_TRUE(program.ok());

  FaultPlan plan;
  plan.injections.push_back(FaultInjection{"g", 2, /*trap=*/false, 100});
  program.machine->set_fault_plan(plan);
  RunResult result = program.machine->Call("f");
  ASSERT_TRUE(result.ok) << result.error;
  // Four real calls return 1; the second invocation is forced to 100.
  EXPECT_EQ(result.value, 104u);
}

TEST(Machine, FaultPlanAppliesToNatives) {
  TestProgram program = BuildProgram(
      "extern int ping(void);\n"
      "int f(void) { return ping() + ping(); }\n",
      false, {"ping"});
  ASSERT_TRUE(program.ok());
  program.machine->BindNative(
      "ping", [](Machine&, std::span<const uint32_t>) { return 1u; });
  EXPECT_EQ(program.machine->Call("f").value, 2u);

  FaultPlan trap_plan;
  trap_plan.injections.push_back(FaultInjection{"ping", 2, /*trap=*/true, 0});
  program.machine->set_fault_plan(trap_plan);
  RunResult trapped = program.machine->Call("f");
  ASSERT_FALSE(trapped.ok);
  EXPECT_NE(trapped.error.find("fault injected"), std::string::npos) << trapped.error;
  EXPECT_NE(trapped.error.find("'ping'"), std::string::npos) << trapped.error;

  FaultPlan value_plan;
  value_plan.injections.push_back(FaultInjection{"ping", 1, /*trap=*/false, 41});
  program.machine->set_fault_plan(value_plan);
  EXPECT_EQ(program.machine->Call("f").value, 42u);
}

TEST(Machine, FuelRemainingTracksExecution) {
  TestProgram program = BuildProgram("int f(void) { return 0; }", false);
  ASSERT_TRUE(program.ok());
  program.machine->set_max_insns(10'000);
  EXPECT_EQ(program.machine->fuel_remaining(), 10'000);
  program.Run("f");
  long long after = program.machine->fuel_remaining();
  EXPECT_LT(after, 10'000);
  EXPECT_GT(after, 0);
  EXPECT_EQ(after, 10'000 - program.machine->insns());
  // ResetCounters refills the budget.
  program.machine->ResetCounters();
  EXPECT_EQ(program.machine->fuel_remaining(), 10'000);
}

// ---- live-reconfiguration quiescence (DESIGN.md §11) -------------------------
// ComponentQuiescent(c) must be false exactly while SOME live frame belongs to
// component c — the reconfig engine defers a hot swap on that predicate so it
// never tears a call mid-flight. The probes run inside a native, the only point
// where the host can observe the machine with frames live.

// Stamps a function's owning component on the image (the linker does this for
// real builds); the machine reads the image by reference, so stamping after
// construction is visible to ComponentQuiescent.
void StampComponent(TestProgram& program, const std::string& function,
                    const std::string& component) {
  int id = program.image->FindFunction(function);
  ASSERT_GE(id, 0) << function;
  program.image->functions[id].component = component;
}

struct QuiescenceProbe {
  bool a_quiescent = true;
  bool b_quiescent = true;
  size_t frame_depth = 0;
  int hits = 0;
};

void BindProbe(TestProgram& program, QuiescenceProbe& probe) {
  QuiescenceProbe* raw = &probe;
  program.machine->BindNative(
      "probe", [raw](Machine& machine, std::span<const uint32_t>) {
        raw->a_quiescent = machine.ComponentQuiescent("A");
        raw->b_quiescent = machine.ComponentQuiescent("B");
        raw->frame_depth = machine.FrameDepth();
        ++raw->hits;
        return 0u;
      });
}

TEST(Machine, ComponentQuiescentTracksWhichComponentHasALiveFrame) {
  TestProgram program = BuildProgram(
      "extern int probe(void);\n"
      "int leaf(int x) { return probe() + x; }\n"
      "int f(int x) { return leaf(x); }\n",
      false, {"probe"});
  ASSERT_TRUE(program.ok()) << program.error;
  StampComponent(program, "f", "A");
  StampComponent(program, "leaf", "B");
  QuiescenceProbe probe;
  BindProbe(program, probe);

  // Idle machine: everything is quiescent and there are no frames.
  EXPECT_TRUE(program.machine->ComponentQuiescent("A"));
  EXPECT_TRUE(program.machine->ComponentQuiescent("B"));
  EXPECT_EQ(program.machine->FrameDepth(), 0u);

  program.Run("f", {5});
  EXPECT_EQ(probe.hits, 1);
  // Observed from inside leaf: both the target and its caller are live.
  EXPECT_FALSE(probe.a_quiescent);
  EXPECT_FALSE(probe.b_quiescent);
  EXPECT_EQ(probe.frame_depth, 2u);

  // Back at the call boundary: quiescent again.
  EXPECT_TRUE(program.machine->ComponentQuiescent("A"));
  EXPECT_TRUE(program.machine->ComponentQuiescent("B"));
  EXPECT_EQ(program.machine->FrameDepth(), 0u);
}

TEST(Machine, ComponentQuiescentSeesCallerFramesAfterCalleeReturns) {
  // probe fires twice: once inside B's leaf, once from A's mid AFTER the leaf
  // returned — B must be quiescent again at the second probe even though the
  // run is still in flight.
  TestProgram program = BuildProgram(
      "extern int probe(void);\n"
      "int leaf(int x) { return probe() + x; }\n"
      "int mid(int x) { int y = leaf(x); return y + probe(); }\n"
      "int f(int x) { return mid(x); }\n",
      false, {"probe"});
  ASSERT_TRUE(program.ok()) << program.error;
  StampComponent(program, "f", "A");
  StampComponent(program, "mid", "A");
  StampComponent(program, "leaf", "B");

  std::vector<std::pair<bool, bool>> observations;  // (A quiescent, B quiescent)
  program.machine->BindNative(
      "probe", [&observations](Machine& machine, std::span<const uint32_t>) {
        observations.emplace_back(machine.ComponentQuiescent("A"),
                                  machine.ComponentQuiescent("B"));
        return 0u;
      });
  program.Run("f", {5});
  ASSERT_EQ(observations.size(), 2u);
  EXPECT_EQ(observations[0], std::make_pair(false, false)) << "inside leaf";
  EXPECT_EQ(observations[1], std::make_pair(false, true)) << "after leaf returned";
}

TEST(Machine, ComponentQuiescentHandlesRecursiveChains) {
  TestProgram program = BuildProgram(
      "extern int probe(void);\n"
      "int r(int n) { if (n == 0) { return probe(); } return r(n - 1) + 1; }\n"
      "int f(int n) { return r(n); }\n",
      false, {"probe"});
  ASSERT_TRUE(program.ok()) << program.error;
  StampComponent(program, "f", "A");
  StampComponent(program, "r", "B");
  QuiescenceProbe probe;
  BindProbe(program, probe);

  program.Run("f", {3});
  EXPECT_EQ(probe.hits, 1);
  EXPECT_FALSE(probe.b_quiescent) << "every recursive frame pins the component";
  // f plus r(3)..r(0): the whole chain is live at the innermost probe.
  EXPECT_EQ(probe.frame_depth, 5u);
  EXPECT_TRUE(program.machine->ComponentQuiescent("B")) << "after the chain unwinds";
}

TEST(Machine, ComponentQuiescentHandlesCrossComponentReentry) {
  // A -> B -> A: the target component has frames both above and below a foreign
  // frame; quiescence requires the ENTIRE stack to be free of it.
  TestProgram program = BuildProgram(
      "extern int probe(void);\n"
      "int a_leaf(int x) { return probe() + x; }\n"
      "int b_mid(int x) { return a_leaf(x); }\n"
      "int a_top(int x) { return b_mid(x); }\n",
      false, {"probe"});
  ASSERT_TRUE(program.ok()) << program.error;
  StampComponent(program, "a_top", "A");
  StampComponent(program, "a_leaf", "A");
  StampComponent(program, "b_mid", "B");
  QuiescenceProbe probe;
  BindProbe(program, probe);

  program.Run("a_top", {1});
  EXPECT_EQ(probe.hits, 1);
  EXPECT_FALSE(probe.a_quiescent);
  EXPECT_FALSE(probe.b_quiescent);
  EXPECT_EQ(probe.frame_depth, 3u);
  EXPECT_TRUE(program.machine->ComponentQuiescent("A"));
  EXPECT_TRUE(program.machine->ComponentQuiescent("B"));
}

TEST(Machine, ConsoleCapture) {
  TestProgram program = BuildProgram(
      "extern void __putchar(int c);\n"
      "int f(void) { __putchar('o'); __putchar('k'); return 0; }\n",
      true);
  ASSERT_TRUE(program.ok());
  program.Run("f");
  EXPECT_EQ(program.machine->console(), "ok");
  program.machine->ClearConsole();
  EXPECT_EQ(program.machine->console(), "");
}

}  // namespace
}  // namespace knit
