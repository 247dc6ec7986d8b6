// Clack router tests: all four Table-1 configurations must behave identically on
// the same trace (same counters, same transmitted bytes), and the performance
// ordering must match the paper's shape.
#include <gtest/gtest.h>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/clack/trace.h"
#include "src/oskit/alloc_corpus.h"
#include "src/support/mangle.h"

namespace knit {
namespace {

RouterStats RunConfig(const std::string& top_unit, const std::vector<TracePacket>& trace,
                      int opt_level = 1) {
  Diagnostics diags;
  KnitcOptions options;
  options.opt_level = opt_level;
  KnitPipeline pipeline(options);
  Result<RouterProgram> program = RouterProgram::FromClack(pipeline, top_unit, diags);
  EXPECT_TRUE(program.ok()) << diags.ToString();
  if (!program.ok()) {
    return RouterStats{};
  }
  Result<RouterStats> stats = program.value().RunTrace(trace, diags);
  EXPECT_TRUE(stats.ok()) << diags.ToString();
  return stats.ok() ? stats.value() : RouterStats{};
}

class ClackConfigTest : public testing::TestWithParam<const char*> {};

TEST_P(ClackConfigTest, CountersMatchTraceExpectation) {
  TraceOptions trace_options;
  trace_options.count = 300;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);
  TraceExpectation expect = ExpectationOf(trace);

  RouterStats stats = RunConfig(GetParam(), trace);
  EXPECT_EQ(stats.in0, expect.in0);
  EXPECT_EQ(stats.in1, expect.in1);
  EXPECT_EQ(stats.ip, expect.ip);
  EXPECT_EQ(stats.out, expect.out);
  EXPECT_EQ(stats.drop, expect.drop);
  EXPECT_EQ(stats.tx_count, expect.tx);
  EXPECT_GT(stats.cycles, 0);
}

INSTANTIATE_TEST_SUITE_P(AllRouterConfigs, ClackConfigTest,
                         testing::Values("ClackRouter", "ClackRouterFlat", "HandRouter",
                                         "HandRouterFlat"));

TEST(Clack, AllConfigurationsTransmitIdenticalBytes) {
  TraceOptions trace_options;
  trace_options.count = 250;
  trace_options.seed = 99;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);

  RouterStats modular = RunConfig("ClackRouter", trace);
  RouterStats flat = RunConfig("ClackRouterFlat", trace);
  RouterStats hand = RunConfig("HandRouter", trace);
  RouterStats hand_flat = RunConfig("HandRouterFlat", trace);

  ASSERT_GT(modular.tx_count, 0u);
  EXPECT_EQ(modular.tx_hash, flat.tx_hash);
  EXPECT_EQ(modular.tx_hash, hand.tx_hash);
  EXPECT_EQ(modular.tx_hash, hand_flat.tx_hash);
}

// The -O2 image passes must not change what any configuration transmits: every
// top at every opt level produces the same bytes as the modular -O0 build.
TEST(Clack, OptLevelsTransmitIdenticalBytes) {
  TraceOptions trace_options;
  trace_options.count = 250;
  trace_options.seed = 99;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);

  RouterStats baseline = RunConfig("ClackRouter", trace, /*opt_level=*/0);
  ASSERT_GT(baseline.tx_count, 0u);
  for (const char* top : {"ClackRouter", "ClackRouterFlat", "HandRouter", "HandRouterFlat"}) {
    for (int opt_level : {0, 1, 2}) {
      RouterStats stats = RunConfig(top, trace, opt_level);
      EXPECT_EQ(baseline.tx_hash, stats.tx_hash) << top << " at -O" << opt_level;
      EXPECT_EQ(baseline.tx_count, stats.tx_count) << top << " at -O" << opt_level;
    }
  }
}

TEST(Clack, PerformanceOrderingMatchesPaper) {
  // Table 1's shape: base slowest; hand-optimization helps; flattening helps more;
  // flattening improves (not hurts) i-fetch stalls.
  TraceOptions trace_options;
  trace_options.count = 400;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);

  RouterStats base = RunConfig("ClackRouter", trace);
  RouterStats hand = RunConfig("HandRouter", trace);
  RouterStats flat = RunConfig("ClackRouterFlat", trace);
  RouterStats both = RunConfig("HandRouterFlat", trace);

  EXPECT_LT(hand.cycles, base.cycles);
  EXPECT_LT(flat.cycles, base.cycles);
  EXPECT_LT(both.cycles, flat.cycles + flat.cycles / 10);  // within ~10% or better
  EXPECT_LE(flat.ifetch_stalls, base.ifetch_stalls);
}


TEST(Clack, PacketTypeConstraintsAcceptTheRealRouter) {
  // The full router carries pkttype annotations on every element; the correct
  // wiring must pass the checker (it is on by default in KnitcOptions).
  Diagnostics diags;
  KnitPipeline pipeline;
  Result<RouterProgram> program = RouterProgram::FromClack(pipeline, "ClackRouter", diags);
  EXPECT_TRUE(program.ok()) << diags.ToString();
}

TEST(Clack, PacketTypeConstraintsCatchMissingStrip) {
  // MiswiredClackRouter feeds the classifier's (Ethernet) IP output directly into
  // CheckIPHeader (which requires IpPacket) — the paper's "components only receive
  // packets of an appropriate type" scenario, caught at build time.
  Diagnostics diags;
  KnitPipeline pipeline;
  Result<RouterProgram> program =
      RouterProgram::FromClack(pipeline, "MiswiredClackRouter", diags);
  EXPECT_FALSE(program.ok());
  EXPECT_NE(diags.ToString().find("pkttype"), std::string::npos) << diags.ToString();

  // With checking disabled the broken router builds — and would misparse frames.
  // (Built directly: the measurement harness requires a two-port router.)
  Diagnostics quiet;
  KnitcOptions unchecked;
  unchecked.check_constraints = false;
  EXPECT_TRUE(
      KnitBuild(ClackKnit(), ClackSources(), "MiswiredClackRouter", unchecked, quiet).ok())
      << quiet.ToString();
}

TEST(Clack, ModularRouterHas24Instances) {
  Diagnostics diags;
  KnitPipeline pipeline;
  Result<RouterProgram> program = RouterProgram::FromClack(pipeline, "ClackRouter", diags);
  ASSERT_TRUE(program.ok()) << diags.ToString();
  EXPECT_EQ(program.value().build()->stats.instance_count, 24);
}

TEST(Clack, TtlIsActuallyDecremented) {
  // Forwarded packets must come out with TTL-1 and a re-valid checksum; covered
  // indirectly by tx_hash equality, but verify once against a hand-computed frame.
  TraceOptions trace_options;
  trace_options.count = 1;
  trace_options.arp_percent = 0;
  trace_options.other_percent = 0;
  trace_options.bad_checksum_percent = 0;
  trace_options.ttl_expired_percent = 0;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);
  ASSERT_EQ(trace[0].kind, PacketKind::kForward);

  Diagnostics diags;
  KnitPipeline pipeline;
  Result<RouterProgram> program = RouterProgram::FromClack(pipeline, "ClackRouter", diags);
  ASSERT_TRUE(program.ok()) << diags.ToString();

  uint8_t ttl_in = trace[0].frame[14 + 8];
  std::vector<uint8_t> tx_frame;
  program.value().machine().BindNative(
      EnvSymbol("dev", "dev_tx"), [&](Machine& m, std::span<const uint32_t> args) {
        tx_frame.clear();
        for (uint32_t i = 0; i < args[1]; ++i) {
          tx_frame.push_back(m.ReadByte(args[0] + i));
        }
        return 0u;
      });
  Result<RouterStats> stats = program.value().RunTrace(trace, diags);
  ASSERT_TRUE(stats.ok()) << diags.ToString();
  ASSERT_GE(tx_frame.size(), 34u);
  EXPECT_EQ(tx_frame[14 + 8], ttl_in - 1);
  // Recompute the IP checksum of the transmitted frame: must be valid.
  uint32_t sum = 0;
  for (int i = 0; i < 20; i += 2) {
    sum += (static_cast<uint32_t>(tx_frame[14 + i]) << 8) | tx_frame[14 + i + 1];
  }
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  EXPECT_EQ(sum, 0xFFFFu);
  // Ethernet type still IPv4 and destination MAC derived from the gateway.
  EXPECT_EQ(tx_frame[12], 8);
  EXPECT_EQ(tx_frame[13], 0);
}

// ---------------------------------------------------------------------------
// ClackAllocRouter: the router with a heap on its IP path. Which allocator
// serves the Alloc import is a one-line config change (RewriteAllocProvider);
// the transmitted bytes must not depend on the choice.
// ---------------------------------------------------------------------------

Result<RouterProgram> BuildAllocRouter(const std::string& alloc_unit, Diagnostics& diags,
                                       int opt_level = 1) {
  KnitcOptions options;
  options.opt_level = opt_level;
  std::string knit_text = ClackKnit();
  EXPECT_EQ(RewriteAllocProvider(knit_text, alloc_unit), 1) << alloc_unit;
  KnitPipeline pipeline(options);
  return RouterProgram::FromKnit(pipeline, knit_text, ClackSources(), "ClackAllocRouter",
                                 diags);
}

TEST(ClackAlloc, EveryAllocatorForwardsByteIdenticallyToThePlainRouter) {
  TraceOptions trace_options;
  trace_options.count = 250;
  trace_options.seed = 99;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);
  TraceExpectation expect = ExpectationOf(trace);

  RouterStats baseline = RunConfig("ClackRouter", trace);
  ASSERT_GT(baseline.tx_count, 0u);

  for (const std::string& unit : AllocUnitNames()) {
    SCOPED_TRACE(unit);
    Diagnostics diags;
    Result<RouterProgram> program = BuildAllocRouter(unit, diags);
    ASSERT_TRUE(program.ok()) << diags.ToString();
    Result<RouterStats> stats = program.value().RunTrace(trace, diags);
    ASSERT_TRUE(stats.ok()) << diags.ToString();

    // Same counters and the same transmitted bytes as the heap-less router.
    EXPECT_EQ(stats.value().tx_hash, baseline.tx_hash);
    EXPECT_EQ(stats.value().tx_count, expect.tx);
    EXPECT_EQ(stats.value().out, expect.out);
    EXPECT_EQ(stats.value().drop, expect.drop);

    // The scratch element saw every post-check IP packet and really allocated.
    Machine& machine = program.value().machine();
    RunResult scratch =
        machine.Call(program.value().build()->ExportedSymbol("statsScratch", "counter_value"));
    ASSERT_TRUE(scratch.ok) << scratch.error;
    EXPECT_GT(scratch.value, 0u);
    EXPECT_GT(machine.bytes_allocated(), 0);
    if (unit == "AllocFreelist" || unit == "AllocBuddy") {
      // These reuse freed blocks: every scratch buffer was returned.
      EXPECT_EQ(machine.live_bytes(), 0) << "allocated " << machine.bytes_allocated()
                                         << ", freed " << machine.bytes_freed();
    }
  }
}

TEST(ClackAlloc, HeapAttributionChargesTheScratchElementNotTheAllocator) {
  TraceOptions trace_options;
  trace_options.count = 200;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);

  Diagnostics diags;
  Result<RouterProgram> program = BuildAllocRouter("AllocFreelist", diags);
  ASSERT_TRUE(program.ok()) << diags.ToString();
  program.value().EnableProfiling();
  Result<RouterStats> stats = program.value().RunTrace(trace, diags);
  ASSERT_TRUE(stats.ok()) << diags.ToString();

  const ComponentProfile& profile = stats.value().profile;
  ASSERT_GT(profile.total_bytes_alloc, 0);
  long long sum_alloc = 0;
  long long scratch_alloc = 0;
  for (const ComponentProfileEntry& entry : profile.components) {
    sum_alloc += entry.bytes_alloc;
    if (entry.component.find("PayloadScratch") != std::string::npos) {
      scratch_alloc = entry.bytes_alloc;
      EXPECT_GT(entry.live_peak, 0);
    }
    if (entry.component.find("/AllocFreelist") != std::string::npos) {
      EXPECT_EQ(entry.bytes_alloc, 0)
          << "the requester walk must not charge the allocator unit";
    }
  }
  EXPECT_EQ(sum_alloc, profile.total_bytes_alloc);
  EXPECT_EQ(scratch_alloc, profile.total_bytes_alloc)
      << "all scratch bytes belong to the scratch element";
  // Exact sums against the machine counters for the profiled window.
  EXPECT_EQ(profile.total_bytes_alloc, program.value().machine().bytes_allocated());
  EXPECT_EQ(profile.total_bytes_freed, program.value().machine().bytes_freed());
}

}  // namespace
}  // namespace knit
