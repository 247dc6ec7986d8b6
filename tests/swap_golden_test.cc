// The swap-sequence golden: seeded rounds of hot swaps over every slotted
// instance of the Clack routers, with traffic between swaps. After every
// finished swap the test folds a digest of the image (FingerprintImage, the
// symbol tables, the binding slots, the stored function refs and the words the
// machine holds at them) and of the swap's report; at the end it folds the
// machine's modeled counters and the session's transmissions. The recorded
// values pin the exact image each swap leaves behind, so a change to the swap
// path that alters any byte of any generation, or any modeled cycle, fails
// here.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/clack/trace.h"
#include "src/support/hash.h"
#include "tests/swap_testutil.h"

namespace knit {
namespace {

constexpr int kPacketsPerSwap = 5;
constexpr int kRounds = 3;

struct SequenceResult {
  uint64_t digest = 0;  // every swap's image state and report, in order
  int swaps = 0;
  long long cycles = 0;
  long long stalls = 0;
  long long insns = 0;
  uint64_t tx_hash = 0;
  uint32_t tx_count = 0;
};

void FoldImage(Fnv64& hasher, const Image& image, Machine& machine) {
  hasher.Update(FingerprintImage(image));
  hasher.Update(static_cast<uint64_t>(image.function_symbols.size()));
  for (const auto& [name, id] : image.function_symbols) {
    hasher.Update(name).Update(id);
  }
  hasher.Update(static_cast<uint64_t>(image.data_symbols.size()));
  for (const auto& [name, address] : image.data_symbols) {
    hasher.Update(name).Update(static_cast<uint64_t>(address));
  }
  hasher.Update(static_cast<uint64_t>(image.bindings.size()));
  for (const BindingSlot& slot : image.bindings) {
    hasher.Update(slot.symbol).Update(slot.component).Update(slot.target);
  }
  hasher.Update(static_cast<uint64_t>(image.func_ref_data.size()));
  for (uint32_t address : image.func_ref_data) {
    hasher.Update(static_cast<uint64_t>(address));
    hasher.Update(static_cast<uint64_t>(machine.ReadWord(address)));
  }
}

void FoldReport(Fnv64& hasher, const SwapReport& report) {
  hasher.Update(report.ok).Update(report.error);
  hasher.Update(report.version).Update(report.new_functions).Update(report.rebound_slots);
  hasher.Update(report.deferred_packets);
  hasher.Update(static_cast<uint64_t>(report.pause_cycles));
}

// Swaps every slotted instance of `top` with its own source, `kRounds` times in
// a fresh seeded order per round, one swap every kPacketsPerSwap packets.
SequenceResult RunSequence(const std::string& top, int opt_level, uint32_t seed) {
  SequenceResult out;
  std::unique_ptr<SwapRig> rig = BuildSwapRig(top, opt_level);
  if (rig == nullptr) {
    return out;
  }
  const int swaps = kRounds * static_cast<int>(rig->targets.size());
  TraceOptions trace_options;
  trace_options.count = (swaps + 2) * kPacketsPerSwap;
  trace_options.seed = seed;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);

  Fnv64 hasher;
  std::mt19937 rng(seed);
  std::vector<SwapTarget> order = rig->targets;
  int issued = 0;
  size_t folded = 0;
  auto fold_finished = [&] {
    const std::vector<SwapReport>& reports = rig->engine->reports();
    for (; folded < reports.size(); ++folded) {
      EXPECT_TRUE(reports[folded].ok) << reports[folded].error;
      FoldReport(hasher, reports[folded]);
      FoldImage(hasher, rig->image(), rig->machine());
    }
  };
  RouterSession& session = rig->program->session();
  session.SetPacketHook([&](int packet) {
    rig->engine->Pump();
    fold_finished();
    if ((packet + 1) % kPacketsPerSwap != 0 || issued >= swaps) {
      return;
    }
    if (issued % order.size() == 0) {
      SeededShuffle(order, rng);
    }
    rig->SwapOwnSource(order[issued++ % order.size()]);
    fold_finished();
  });
  Diagnostics diags;
  session.ResetStats();
  EXPECT_TRUE(session.FeedRange(trace, 0, trace.size(), diags).ok()) << diags.ToString();
  session.SetPacketHook(nullptr);
  Result<RouterStats> stats = session.Close(diags);
  EXPECT_TRUE(stats.ok()) << diags.ToString();
  EXPECT_EQ(issued, swaps);
  EXPECT_FALSE(rig->engine->HasPending());
  if (!stats.ok()) {
    return out;
  }
  out.swaps = static_cast<int>(folded);
  out.cycles = rig->machine().cycles();
  out.stalls = rig->machine().ifetch_stalls();
  out.insns = rig->machine().insns();
  out.tx_hash = stats.value().tx_hash;
  out.tx_count = stats.value().tx_count;
  hasher.Update(static_cast<uint64_t>(out.cycles)).Update(static_cast<uint64_t>(out.stalls));
  hasher.Update(static_cast<uint64_t>(out.insns)).Update(out.tx_hash);
  out.digest = hasher.digest();
  return out;
}

struct Golden {
  const char* top;
  int opt_level;
  uint32_t seed;
  uint64_t digest;
  int swaps;
  long long cycles;
  long long stalls;
  long long insns;
  uint64_t tx_hash;
  uint32_t tx_count;
};

void ExpectGolden(const Golden& golden) {
  SCOPED_TRACE(std::string(golden.top) + " -O" + std::to_string(golden.opt_level));
  SequenceResult got = RunSequence(golden.top, golden.opt_level, golden.seed);
  EXPECT_EQ(got.swaps, golden.swaps);
  EXPECT_EQ(got.cycles, golden.cycles);
  EXPECT_EQ(got.stalls, golden.stalls);
  EXPECT_EQ(got.insns, golden.insns);
  EXPECT_EQ(got.tx_hash, golden.tx_hash);
  EXPECT_EQ(got.tx_count, golden.tx_count);
  EXPECT_EQ(got.digest, golden.digest)
      << "recorded: {\"" << golden.top << "\", " << golden.opt_level << ", " << golden.seed
      << ", 0x" << HexDigest(got.digest) << "ull, " << got.swaps << ", " << got.cycles << ", "
      << got.stalls << ", " << got.insns << ", 0x" << HexDigest(got.tx_hash) << "ull, "
      << got.tx_count << "}";
}

// {top, -O, seed, digest, swaps, cycles, stalls, insns, tx hash, tx count}
TEST(SwapGolden, ClackRouterO1) {
  ExpectGolden({"ClackRouter", 1, 31, 0x8b2d625cda259745ull, 72, 658334, 5768, 479809,
                0x11891c00ded2025full, 342});
}

TEST(SwapGolden, ClackRouterO2) {
  ExpectGolden({"ClackRouter", 2, 32, 0x621fd6017325a1e6ull, 72, 671486, 5520, 489734,
                0xc60f2a27e1009b63ull, 352});
}

TEST(SwapGolden, ClackAllocRouterO2) {
  ExpectGolden({"ClackAllocRouter", 2, 33, 0xde0459ca8533f3b8ull, 78, 2927843, 13920, 2435539,
                0xe04b045157b4f328ull, 379});
}

TEST(SwapGolden, HandRouterO2) {
  ExpectGolden({"HandRouter", 2, 34, 0xf567be728750a6b2ull, 6, 58751, 3224, 48810,
                0xeaafa0a54c14f539ull, 39});
}

}  // namespace
}  // namespace knit
