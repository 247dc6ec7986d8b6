// Trap-prefix exactness goldens: when a run stops early, the counters it leaves
// behind are an exact prefix of the full run's. A looping program is cut at
// every fuel budget 1..N, a division by zero fires mid-function, and a fault
// plan traps a callee and a native; each case pins cycles, I-fetch stalls,
// instructions, the error text and the backtrace. The goldens were captured
// before the interpreter kept its hot state in registers, so they prove the
// write-back at every trap point loses or double-counts nothing.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "tests/testutil.h"

namespace knit {
namespace {

// A tiny cache (6 sets of two 16-byte lines) so the loop keeps missing.
CostModel SmallCache() {
  CostModel cost;
  cost.icache_bytes = 192;
  cost.icache_line = 16;
  cost.icache_ways = 2;
  return cost;
}

constexpr uint32_t kMemoryBytes = 1 << 21;

struct Outcome {
  bool ok = false;
  uint32_t value = 0;
  long long cycles = 0;
  long long stalls = 0;
  long long insns = 0;
  std::string error;
  std::vector<std::string> backtrace;
};

Outcome RunOnFreshMachine(const Image& image, const std::string& function,
                          std::vector<uint32_t> args, long long fuel,
                          const FaultPlan& plan = FaultPlan()) {
  Machine machine(image, SmallCache(), kMemoryBytes);
  machine.BindNative("host_twice",
                     [](Machine&, std::span<const uint32_t> args) { return args[0] * 2; });
  if (fuel > 0) {
    machine.set_max_insns(fuel);
  }
  machine.set_fault_plan(plan);
  RunResult result = machine.Call(function, std::move(args));
  return Outcome{result.ok,          result.value,         machine.cycles(),
                 machine.ifetch_stalls(), machine.insns(), result.error,
                 result.backtrace};
}

std::string Describe(const Outcome& outcome) {
  std::string text = std::string(outcome.ok ? "ok " : "trap ") + std::to_string(outcome.value) +
                     " cycles=" + std::to_string(outcome.cycles) +
                     " stalls=" + std::to_string(outcome.stalls) +
                     " insns=" + std::to_string(outcome.insns) + " error=[" + outcome.error +
                     "] backtrace=[";
  for (size_t i = 0; i < outcome.backtrace.size(); ++i) {
    text += (i > 0 ? " | " : "") + outcome.backtrace[i];
  }
  return text + "]";
}

uint64_t Fnv(uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001B3ull;
  }
  return hash;
}

// Loads, stores, a direct call, an indirect call, a native call, a divide and
// a loop back edge: every kind of instruction the budget can land on.
constexpr const char* kLoopSource =
    "extern int host_twice(int x);\n"
    "int table[8];\n"
    "int square_third(int x) { return x * x / 3; }\n"
    "int mix(int x) { return host_twice(x) + x % 5; }\n"
    "int f(int n) {\n"
    "  int (*op)(int) = square_third;\n"
    "  int s = 0;\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    table[i & 7] = table[i & 7] + op(i) + mix(i);\n"
    "    s = s + table[(i * 3) & 7];\n"
    "  }\n"
    "  return s;\n"
    "}\n";

TestProgram BuildLoop() {
  return BuildProgram(kLoopSource, false, {"host_twice"});
}

TEST(TrapPrefixGoldens, EveryFuelBudgetStopsAtAnExactPrefix) {
  TestProgram program = BuildLoop();
  ASSERT_TRUE(program.ok()) << program.error;
  const Outcome full = RunOnFreshMachine(*program.image, "f", {6}, 0);
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(Describe(full), "ok 20 cycles=1494 stalls=632 insns=360 error=[] backtrace=[]");

  uint64_t digest = 0xcbf29ce484222325ull;
  for (long long budget = 1; budget <= full.insns; ++budget) {
    const Outcome cut = RunOnFreshMachine(*program.image, "f", {6}, budget);
    if (budget < full.insns) {
      ASSERT_FALSE(cut.ok) << budget;
      EXPECT_EQ(cut.insns, budget + 1) << budget;  // the instruction that ran dry counts
    } else {
      ASSERT_TRUE(cut.ok) << budget;
    }
    EXPECT_LE(cut.cycles, full.cycles) << budget;
    EXPECT_LE(cut.stalls, full.stalls) << budget;
    digest = Fnv(digest, std::to_string(budget) + ":" + Describe(cut) + "\n");
  }
  EXPECT_EQ(digest, 0x67e859e1cc9e21e2ull) << std::hex << "measured 0x" << digest;

  const Outcome first = RunOnFreshMachine(*program.image, "f", {6}, 1);
  EXPECT_EQ(Describe(first),
            "trap 0 cycles=10 stalls=8 insns=2 error=[fuel exhausted (instruction budget of 1 "
            "insns exceeded)\n  at f (pc 1)] backtrace=[f (pc 1)]");
  const Outcome middle = RunOnFreshMachine(*program.image, "f", {6}, full.insns / 2);
  EXPECT_EQ(Describe(middle),
            "trap 0 cycles=764 stalls=328 insns=181 error=[fuel exhausted (instruction budget "
            "of 180 insns exceeded)\n  at f (pc 6)] backtrace=[f (pc 6)]");
  const Outcome last = RunOnFreshMachine(*program.image, "f", {6}, full.insns - 1);
  EXPECT_EQ(Describe(last),
            "trap 0 cycles=1490 stalls=632 insns=360 error=[fuel exhausted (instruction budget "
            "of 359 insns exceeded)\n  at f (pc 52)] backtrace=[f (pc 52)]");
}

TEST(TrapPrefixGoldens, DivisionByZeroMidFunction) {
  TestProgram program = BuildProgram(
      "int ratio(int a, int b) { int q = a / b; return q + 1; }\n"
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i++) s = s + ratio(100, 3 - i);\n"
      "  return s;\n"
      "}\n",
      false);
  ASSERT_TRUE(program.ok()) << program.error;
  EXPECT_EQ(Describe(RunOnFreshMachine(*program.image, "f", {10}, 0)),
            "trap 0 cycles=296 stalls=64 insns=92 error=[division by zero\n  at ratio (pc 2)\n"
            "  at f (pc 13)] backtrace=[ratio (pc 2) | f (pc 13)]");
}

TEST(TrapPrefixGoldens, FaultPlanTrapsAFunctionAndANative) {
  TestProgram program = BuildLoop();
  ASSERT_TRUE(program.ok()) << program.error;
  FaultPlan function_plan;
  function_plan.injections.push_back(FaultInjection{"mix", 3, true, 0});
  EXPECT_EQ(Describe(RunOnFreshMachine(*program.image, "f", {6}, 0, function_plan)),
            "trap 0 cycles=647 stalls=280 insns=153 error=[fault injected into 'mix'\n"
            "  at mix (pc 0)\n  at f (pc 30)] backtrace=[mix (pc 0) | f (pc 30)]");

  FaultPlan native_plan;
  native_plan.injections.push_back(FaultInjection{"host_twice", 4, true, 0});
  EXPECT_EQ(Describe(RunOnFreshMachine(*program.image, "f", {6}, 0, native_plan)),
            "trap 0 cycles=902 stalls=384 insns=213 error=[fault injected into 'host_twice'\n"
            "  at mix (pc 1)\n  at f (pc 30)] backtrace=[mix (pc 1) | f (pc 30)]");

  // A return-mode injection skips the call and substitutes its value.
  FaultPlan return_plan;
  return_plan.injections.push_back(FaultInjection{"square_third", 2, false, 77});
  EXPECT_EQ(Describe(RunOnFreshMachine(*program.image, "f", {6}, 0, return_plan)),
            "ok 97 cycles=1416 stalls=584 insns=354 error=[] backtrace=[]");
}

}  // namespace
}  // namespace knit
