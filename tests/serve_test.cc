// Serving-layer tests: an N-shard fleet must be *indistinguishable* from one
// machine running the whole trace — same transmitted bytes (aggregate tx_hash
// byte-identical to the single-machine fold), same counters (exact sums), same
// component attribution (exact per-component sums) — for every shard count,
// batch size and opt level, including traces longer than the queues. A shard
// that fails must fail the serve and still let the drain finish.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/clack/trace.h"
#include "src/serve/serve.h"
#include "src/support/mangle.h"

namespace knit {
namespace {

// One build per opt level, shared by every fleet and single-machine baseline in
// the process — the fleet's whole premise is machines sharing an image.
std::shared_ptr<const KnitBuildResult> RouterBuild(int opt_level) {
  static std::map<int, std::shared_ptr<const KnitBuildResult>> cache;
  auto it = cache.find(opt_level);
  if (it != cache.end()) {
    return it->second;
  }
  Diagnostics diags;
  KnitcOptions options;
  options.opt_level = opt_level;
  KnitPipeline pipeline(options);
  Result<LinkedImage> built = pipeline.Build(ClackKnit(), ClackSources(), "ClackRouter", diags);
  EXPECT_TRUE(built.ok()) << diags.ToString();
  if (!built.ok()) {
    return nullptr;
  }
  auto build = std::make_shared<const KnitBuildResult>(
      KnitBuildResultFrom(built.take(), pipeline.metrics()));
  cache[opt_level] = build;
  return build;
}

// Single-machine reference, driven through the same RouterSession API the fleet
// uses (open -> feed -> close), over the same shared build.
RouterStats RunSingle(const std::shared_ptr<const KnitBuildResult>& build,
                      const std::vector<TracePacket>& trace) {
  Diagnostics diags;
  Machine machine(build->image);
  Result<std::unique_ptr<RouterSession>> session = RouterSession::Open(
      machine, RouterProgram::ClackEntryNames(*build), EnvSymbol("dev", "dev_tx"), diags);
  EXPECT_TRUE(session.ok()) << diags.ToString();
  if (!session.ok()) {
    return RouterStats{};
  }
  EXPECT_TRUE(machine.Call(build->init_function).ok);
  EXPECT_TRUE(session.value()->FeedRange(trace, 0, trace.size(), diags).ok())
      << diags.ToString();
  Result<RouterStats> stats = session.value()->Close(diags);
  EXPECT_TRUE(stats.ok()) << diags.ToString();
  return stats.ok() ? stats.value() : RouterStats{};
}

ServeReport RunFleet(const std::shared_ptr<const KnitBuildResult>& build,
                     const std::vector<TracePacket>& trace, const ServeOptions& options) {
  Diagnostics diags;
  Result<std::unique_ptr<RouterFleet>> fleet =
      RouterFleet::FromBuild(build, RouterProgram::ClackEntryNames(*build),
                             EnvSymbol("dev", "dev_tx"), options, diags);
  EXPECT_TRUE(fleet.ok()) << diags.ToString();
  if (!fleet.ok()) {
    return ServeReport{};
  }
  Result<ServeReport> report = fleet.value()->Serve(trace, diags);
  EXPECT_TRUE(report.ok()) << diags.ToString();
  return report.ok() ? report.take() : ServeReport{};
}

std::vector<TracePacket> TestTrace(int count, uint32_t seed = 0x5e12e) {
  TraceOptions options;
  options.count = count;
  options.seed = seed;
  return GenerateTrace(options);
}

// The acceptance criterion: aggregate hash and counters are byte-identical to
// the single machine for shard counts {1, 2, 4, 8} at -O1 and -O2. The third
// parameter is the trace length.
class FleetEquivalenceTest : public testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(FleetEquivalenceTest, AggregateMatchesSingleMachine) {
  const int opt_level = std::get<0>(GetParam());
  const int shards = std::get<1>(GetParam());
  std::shared_ptr<const KnitBuildResult> build = RouterBuild(opt_level);
  ASSERT_NE(build, nullptr);
  std::vector<TracePacket> trace = TestTrace(std::get<2>(GetParam()));
  RouterStats single = RunSingle(build, trace);
  ASSERT_GT(single.tx_count, 0u);

  ServeOptions options;
  options.shards = shards;
  ServeReport report = RunFleet(build, trace, options);

  EXPECT_EQ(report.total.tx_hash, single.tx_hash);
  EXPECT_EQ(report.total.tx_count, single.tx_count);
  EXPECT_EQ(report.total.packets, single.packets);
  if (shards == 1) {
    // One shard IS the single machine — cycle-exact.
    EXPECT_EQ(report.total.cycles, single.cycles);
    EXPECT_EQ(report.total.ifetch_stalls, single.ifetch_stalls);
  } else {
    // N machines each warm their own I-cache/BTB, so aggregate cycles differ
    // from the single machine's (whose warmup is shared across the whole
    // trace); the *behaviour* — counters and transmitted bytes — may not.
    EXPECT_GT(report.total.cycles, 0);
  }
  EXPECT_EQ(report.total.in0, single.in0);
  EXPECT_EQ(report.total.in1, single.in1);
  EXPECT_EQ(report.total.ip, single.ip);
  EXPECT_EQ(report.total.out, single.out);
  EXPECT_EQ(report.total.drop, single.drop);
  EXPECT_EQ(report.latency.count(), static_cast<long long>(trace.size()));
}

INSTANTIATE_TEST_SUITE_P(OptLevelsAndShardCounts, FleetEquivalenceTest,
                         testing::Combine(testing::Values(1, 2),
                                          testing::Values(1, 2, 4, 8),
                                          testing::Values(600)));

// Each shard's queue holds 1,024 packets. 600 packets never fill one; 8,192
// packets over 2 or 4 shards give every queue 2,000 or more, so the feeder can
// block on a full queue and resume, and the hash must not notice.
INSTANTIATE_TEST_SUITE_P(LongerThanTheQueues, FleetEquivalenceTest,
                         testing::Combine(testing::Values(1, 2), testing::Values(2, 4),
                                          testing::Values(8192)));

TEST(Serve, TotalsAreExactSumsOfShardReports) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild(1);
  ASSERT_NE(build, nullptr);
  std::vector<TracePacket> trace = TestTrace(500);
  ServeOptions options;
  options.shards = 4;
  ServeReport report = RunFleet(build, trace, options);

  ASSERT_EQ(report.shards.size(), 4u);
  int packets = 0;
  long long cycles = 0, stalls = 0;
  uint32_t tx = 0, in0 = 0, in1 = 0, out = 0, drop = 0;
  for (const ShardReport& shard : report.shards) {
    packets += shard.stats.packets;
    cycles += shard.stats.cycles;
    stalls += shard.stats.ifetch_stalls;
    tx += shard.stats.tx_count;
    in0 += shard.stats.in0;
    in1 += shard.stats.in1;
    out += shard.stats.out;
    drop += shard.stats.drop;
  }
  EXPECT_EQ(report.total.packets, packets);
  EXPECT_EQ(report.total.cycles, cycles);
  EXPECT_EQ(report.total.ifetch_stalls, stalls);
  EXPECT_EQ(report.total.tx_count, tx);
  EXPECT_EQ(report.total.in0, in0);
  EXPECT_EQ(report.total.in1, in1);
  EXPECT_EQ(report.total.out, out);
  EXPECT_EQ(report.total.drop, drop);
  // Every packet of the trace was drained to exactly one shard.
  EXPECT_EQ(packets, static_cast<int>(trace.size()));
}

TEST(Serve, BatchSizeDoesNotChangeResults) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild(1);
  ASSERT_NE(build, nullptr);
  std::vector<TracePacket> trace = TestTrace(400);

  ServeReport baseline;
  for (int batch : {1, 7, 64}) {
    ServeOptions options;
    options.shards = 2;
    options.batch = batch;
    ServeReport report = RunFleet(build, trace, options);
    if (batch == 1) {
      baseline = report;
      ASSERT_GT(baseline.total.tx_count, 0u);
      continue;
    }
    // The VM is deterministic, so not just the bytes — the modeled cycles are
    // batch-size invariant too.
    EXPECT_EQ(report.total.tx_hash, baseline.total.tx_hash) << "batch=" << batch;
    EXPECT_EQ(report.total.cycles, baseline.total.cycles) << "batch=" << batch;
    EXPECT_EQ(report.total.packets, baseline.total.packets) << "batch=" << batch;
  }
}

TEST(Serve, ProfileAggregationIsExact) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild(1);
  ASSERT_NE(build, nullptr);
  std::vector<TracePacket> trace = TestTrace(300);
  ServeOptions options;
  options.shards = 2;
  options.profile = true;
  ServeReport report = RunFleet(build, trace, options);

  // Attribution never loses a cycle: fleet-wide, the profile totals equal the
  // summed per-shard totals equal the summed counter deltas.
  ASSERT_EQ(report.shards.size(), 2u);
  long long shard_profile_cycles = 0;
  for (const ShardReport& shard : report.shards) {
    EXPECT_EQ(shard.stats.profile.total_cycles, shard.stats.cycles) << "shard " << shard.shard;
    shard_profile_cycles += shard.stats.profile.total_cycles;
  }
  EXPECT_EQ(report.total.profile.total_cycles, shard_profile_cycles);
  EXPECT_EQ(report.total.profile.total_cycles, report.total.cycles);
  EXPECT_EQ(report.total.profile.total_ifetch_stalls, report.total.ifetch_stalls);
  EXPECT_FALSE(report.total.profile.components.empty());

  // Each merged component row is the exact sum of that component's shard rows.
  for (const ComponentProfileEntry& merged : report.total.profile.components) {
    long long cycles = 0;
    for (const ShardReport& shard : report.shards) {
      for (const ComponentProfileEntry& entry : shard.stats.profile.components) {
        if (entry.component == merged.component) {
          cycles += entry.cycles;
        }
      }
    }
    EXPECT_EQ(merged.cycles, cycles) << merged.component;
  }
}

// Allocator-aware serving: ClackAllocRouter gives every shard a private heap
// instance. Resetting those arenas at batch boundaries must be invisible in the
// transmitted bytes, and the merged profile's memory columns must sum exactly.
TEST(Serve, PerShardArenaResetKeepsTxHashAndSumsMemoryExactly) {
  std::vector<TracePacket> trace = TestTrace(400);
  KnitcOptions build_options;
  build_options.opt_level = 1;

  // Single-machine reference over the same configuration.
  Diagnostics diags;
  KnitPipeline single_pipeline(build_options);
  Result<RouterProgram> single =
      RouterProgram::FromClack(single_pipeline, "ClackAllocRouter", diags);
  ASSERT_TRUE(single.ok()) << diags.ToString();
  Result<RouterStats> base = single.value().RunTrace(trace, diags);
  ASSERT_TRUE(base.ok()) << diags.ToString();

  KnitPipeline fleet_pipeline(build_options);
  Result<LinkedImage> built =
      fleet_pipeline.Build(ClackKnit(), ClackSources(), "ClackAllocRouter", diags);
  ASSERT_TRUE(built.ok()) << diags.ToString();
  auto build = std::make_shared<const KnitBuildResult>(
      KnitBuildResultFrom(built.take(), fleet_pipeline.metrics()));
  ServeOptions options;
  options.shards = 4;
  options.batch = 16;
  options.profile = true;
  options.reset_alloc_per_batch = true;
  Result<std::unique_ptr<RouterFleet>> fleet =
      RouterFleet::FromBuild(build, RouterProgram::ClackEntryNames(*build),
                             EnvSymbol("dev", "dev_tx"), options, diags);
  ASSERT_TRUE(fleet.ok()) << diags.ToString();
  Result<ServeReport> served = fleet.value()->Serve(trace, diags);
  ASSERT_TRUE(served.ok()) << diags.ToString();
  const ServeReport& report = served.value();

  // Resets between batches never change what was transmitted: the scratch
  // element forwards the original packet whether its malloc succeeds or not.
  EXPECT_EQ(report.total.tx_hash, base.value().tx_hash);
  EXPECT_EQ(report.total.tx_count, base.value().tx_count);
  EXPECT_EQ(report.total.out, base.value().out);
  EXPECT_EQ(report.total.drop, base.value().drop);

  // Memory attribution survives aggregation: the fleet really allocated, the
  // merged totals are exact sums of the shard totals, and the merged rows are
  // exact sums of the shard rows (live_peak merges as max — shard heaps are
  // disjoint, so peaks never add).
  EXPECT_GT(report.total.profile.total_bytes_alloc, 0u);
  uint64_t shard_alloc = 0, shard_freed = 0;
  for (const ShardReport& shard : report.shards) {
    shard_alloc += shard.stats.profile.total_bytes_alloc;
    shard_freed += shard.stats.profile.total_bytes_freed;
  }
  EXPECT_EQ(report.total.profile.total_bytes_alloc, shard_alloc);
  EXPECT_EQ(report.total.profile.total_bytes_freed, shard_freed);
  uint64_t row_alloc = 0;
  for (const ComponentProfileEntry& merged : report.total.profile.components) {
    row_alloc += merged.bytes_alloc;
    uint64_t bytes = 0, freed = 0, peak = 0;
    for (const ShardReport& shard : report.shards) {
      for (const ComponentProfileEntry& entry : shard.stats.profile.components) {
        if (entry.component == merged.component) {
          bytes += entry.bytes_alloc;
          freed += entry.bytes_freed;
          peak = std::max<uint64_t>(peak, entry.live_peak);
        }
      }
    }
    EXPECT_EQ(merged.bytes_alloc, bytes) << merged.component;
    EXPECT_EQ(merged.bytes_freed, freed) << merged.component;
    EXPECT_EQ(merged.live_peak, peak) << merged.component;
  }
  EXPECT_EQ(report.total.profile.total_bytes_alloc, row_alloc);
}

TEST(Serve, FlowsStayOnTheirShard) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild(1);
  ASSERT_NE(build, nullptr);
  std::vector<TracePacket> trace = TestTrace(200);
  Diagnostics diags;
  ServeOptions options;
  options.shards = 4;
  Result<std::unique_ptr<RouterFleet>> fleet =
      RouterFleet::FromBuild(build, RouterProgram::ClackEntryNames(*build),
                             EnvSymbol("dev", "dev_tx"), options, diags);
  ASSERT_TRUE(fleet.ok()) << diags.ToString();
  for (const TracePacket& packet : trace) {
    int shard = fleet.value()->ShardOf(packet);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, fleet.value()->ShardOf(packet));  // deterministic
  }
}

TEST(Serve, ServeIsOneShot) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild(1);
  ASSERT_NE(build, nullptr);
  std::vector<TracePacket> trace = TestTrace(50);
  Diagnostics diags;
  ServeOptions options;
  Result<std::unique_ptr<RouterFleet>> fleet =
      RouterFleet::FromBuild(build, RouterProgram::ClackEntryNames(*build),
                             EnvSymbol("dev", "dev_tx"), options, diags);
  ASSERT_TRUE(fleet.ok()) << diags.ToString();
  ASSERT_TRUE(fleet.value()->Serve(trace, diags).ok()) << diags.ToString();
  EXPECT_FALSE(fleet.value()->Serve(trace, diags).ok());
  EXPECT_NE(diags.ToString().find("already served"), std::string::npos);
}

TEST(Serve, SessionRefusesPacketsAfterClose) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild(1);
  ASSERT_NE(build, nullptr);
  std::vector<TracePacket> trace = TestTrace(10);
  Diagnostics diags;
  Machine machine(build->image);
  Result<std::unique_ptr<RouterSession>> session = RouterSession::Open(
      machine, RouterProgram::ClackEntryNames(*build), EnvSymbol("dev", "dev_tx"), diags);
  ASSERT_TRUE(session.ok()) << diags.ToString();
  ASSERT_TRUE(machine.Call(build->init_function).ok);
  ASSERT_TRUE(session.value()->FeedRange(trace, 0, trace.size(), diags).ok());
  ASSERT_TRUE(session.value()->Close(diags).ok());
  EXPECT_TRUE(session.value()->closed());
  EXPECT_FALSE(session.value()->Feed(trace[0], 0, diags).ok());
  EXPECT_NE(diags.ToString().find("fed after Close"), std::string::npos);
}

// A shard that traps fails the whole serve with its diagnostic, and the drain
// still ends: the failed shard closes its queue, so the feeder never blocks on
// it, and the feed stops. The trace is longer than the queues, so the feeder is
// still running when the trap lands. The three budgets put the first trap at
// the first packet, early in the stream and late in it. With one shard the
// feeder, faster than the worker, is blocked on the failed shard's full queue
// when the trap lands, so a failure that left its queue open would hang here.
TEST(Serve, ShardFailureStopsTheFeedAndDrains) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild(1);
  ASSERT_NE(build, nullptr);
  std::vector<TracePacket> trace = TestTrace(20000);
  for (int shards : {1, 4}) {
    for (long long fuel : {1'000ll, 200'000ll, 2'000'000ll}) {
      Diagnostics diags;
      ServeOptions options;
      options.shards = shards;
      options.fuel = fuel;
      Result<std::unique_ptr<RouterFleet>> fleet =
          RouterFleet::FromBuild(build, RouterProgram::ClackEntryNames(*build),
                                 EnvSymbol("dev", "dev_tx"), options, diags);
      ASSERT_TRUE(fleet.ok()) << diags.ToString();
      EXPECT_FALSE(fleet.value()->Serve(trace, diags).ok())
          << "shards=" << shards << " fuel=" << fuel;
      EXPECT_NE(diags.ToString().find("fuel exhausted"), std::string::npos)
          << "shards=" << shards << " fuel=" << fuel << ": " << diags.ToString();
    }
  }
}

TEST(Serve, EmptyTraceDrainsCleanly) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild(1);
  ASSERT_NE(build, nullptr);
  ServeOptions options;
  options.shards = 2;
  ServeReport report = RunFleet(build, std::vector<TracePacket>{}, options);
  EXPECT_EQ(report.total.packets, 0);
  EXPECT_EQ(report.total.tx_hash, 0u);
  EXPECT_EQ(report.latency.count(), 0);
}

}  // namespace
}  // namespace knit
