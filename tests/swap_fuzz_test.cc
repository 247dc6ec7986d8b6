// Seeded mutation testing of hot-swap replacements: a `--swap` source is a
// trust boundary. Every Clack leaf's source is mutated by byte flips,
// truncations and splices, and each mutant is requested as the leaf's
// replacement on a live router session. A mutant must end in a commit or in an
// abandonment that says why: never a crash, a hang or a sanitizer report.
// After each mutant the session must still take a packet (a trap, say from a
// committed mutant that now reads through a bad pointer, is a diagnosed
// result); then the original source is swapped back. The budget is fixed and
// the machine's fuel bounds every run, so the test is deterministic and cannot
// hang; the ASan+UBSan lane runs it instrumented. An input that finds a fault
// is kept as a regression case beside this test.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/clack/trace.h"
#include "tests/mutate.h"
#include "tests/swap_testutil.h"

namespace knit {
namespace {

constexpr int kFlipsPerLeaf = 40;
constexpr int kTruncationsPerLeaf = 16;
constexpr int kSplicesPerLeaf = 40;
// Instructions one request or one packet may run; the corpus needs a few
// thousand per packet.
constexpr long long kFuel = 1'000'000;

struct Outcomes {
  int committed = 0;
  int abandoned = 0;
  int trapped_packets = 0;
};

// One leaf of each distinct source file of ClackRouter.
std::vector<SwapTarget> Leaves(const SwapRig& rig) {
  std::vector<SwapTarget> leaves;
  std::set<std::string> files;
  for (const SwapTarget& target : rig.targets) {
    if (files.insert(target.source_name).second) {
      leaves.push_back(target);
    }
  }
  return leaves;
}

// Requests `source` as `target`'s replacement, then feeds one packet and swaps
// the original back. Returns a complaint, or "" when every step ended in a
// result or a diagnostic.
std::string TryMutant(SwapRig& rig, const SwapTarget& target, const std::string& source,
                      const TracePacket& packet, Outcomes& outcomes) {
  Machine& machine = rig.machine();
  machine.set_max_insns(machine.insns() + kFuel);
  SwapSpec spec;
  spec.instance = target.instance;
  spec.source_name = target.source_name;
  spec.source = source;
  SwapReport report = rig.engine->Request(spec);
  if (report.deferred) {
    return "a request at a quiescent point was deferred";
  }
  if (report.ok) {
    ++outcomes.committed;
  } else if (report.error.empty()) {
    return "an abandoned swap reported no error";
  } else {
    ++outcomes.abandoned;
  }
  machine.set_max_insns(machine.insns() + kFuel);
  Diagnostics diags;
  if (!rig.program->session().Feed(packet, 0, diags).ok()) {
    if (!diags.has_errors()) {
      return "a packet failed without a diagnostic";
    }
    ++outcomes.trapped_packets;
  }
  if (report.ok) {
    machine.set_max_insns(machine.insns() + kFuel);
    SwapReport restored = rig.SwapOwnSource(target);
    if (!restored.ok) {
      return "swapping the original back failed: " + restored.error;
    }
  }
  return "";
}

// A fresh rig per leaf, so a committed mutant that scribbled over a
// neighbour's state cannot leak into the next leaf's results.
Outcomes FuzzLeaves(uint32_t seed) {
  Outcomes outcomes;
  std::mt19937 rng(seed);
  TraceOptions trace_options;
  trace_options.count = 8;
  const std::vector<TracePacket> trace = GenerateTrace(trace_options);
  std::unique_ptr<SwapRig> probe = BuildSwapRig("ClackRouter", 2);
  if (probe == nullptr) {
    return outcomes;
  }
  int packet = 0;
  for (const SwapTarget& leaf : Leaves(*probe)) {
    std::unique_ptr<SwapRig> rig = BuildSwapRig("ClackRouter", 2);
    const std::string& text = ClackSources().at(leaf.source_name);
    for (auto [kind, count] : {std::pair{0, kFlipsPerLeaf}, std::pair{1, kTruncationsPerLeaf},
                               std::pair{2, kSplicesPerLeaf}}) {
      for (int i = 0; i < count; ++i) {
        std::string mutant = Mutate(text, kind, rng);
        std::string complaint =
            TryMutant(*rig, leaf, mutant, trace[packet++ % trace.size()], outcomes);
        EXPECT_EQ(complaint, "") << leaf.instance << ", mutation kind " << kind
                                 << ", input:\n" << mutant;
      }
    }
  }
  return outcomes;
}

TEST(SwapFuzz, MutatedReplacementsEndInACommitOrADiagnostic) {
  Outcomes outcomes = FuzzLeaves(0x73776170);
  std::printf("%d mutants committed, %d abandoned; %d packets trapped\n", outcomes.committed,
              outcomes.abandoned, outcomes.trapped_packets);
  // The budget reaches both ends of the swap path.
  EXPECT_GT(outcomes.committed, 0);
  EXPECT_GT(outcomes.abandoned, 0);
}

}  // namespace
}  // namespace knit
