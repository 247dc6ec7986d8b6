// Table-1 counter goldens: the exact modeled counters of the five Table-1 router
// configurations on the 1,000-packet trace, under the default 8 KB L1I and under
// the 1 KB L1I the benches and knitbench use (the paper's text:cache ratio).
// Every interpreter or I-cache change must leave these bit-identical: they are
// the numbers Table 1 reports, not a tolerance band around them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/clack/trace.h"

namespace knit {
namespace {

struct Counters {
  long long cycles;
  long long ifetch_stalls;
  long long insns;
  uint64_t tx_hash;
};

struct Row {
  const char* top;
  int opt_level;
  long long table1_cy_per_pkt;  // bench/table1_clack's rounded cycles/packet column
  Counters default_cache;       // CostModel() as is: 8 KB, 32-byte lines, 4 ways
  Counters small_cache;         // icache_bytes = 1024
};

constexpr Row kRows[] = {
    {"ClackRouter", 1, 2434,
     {1676787, 1488, 1305823, 0x284c757f379beb96ull},
     {2434003, 758704, 1305823, 0x284c757f379beb96ull}},
    {"HandRouter", 1, 1948,
     {1347215, 936, 1190439, 0x284c757f379beb96ull},
     {1948351, 602072, 1190439, 0x284c757f379beb96ull}},
    {"ClackRouterFlat", 1, 2174,
     {1485421, 1424, 1273991, 0x284c757f379beb96ull},
     {2174061, 690064, 1273991, 0x284c757f379beb96ull}},
    {"HandRouterFlat", 1, 1908,
     {1320541, 920, 1179513, 0x284c757f379beb96ull},
     {1907909, 588288, 1179513, 0x284c757f379beb96ull}},
    {"ClackRouter", 2, 2176,
     {1483999, 1432, 1272561, 0x284c757f379beb96ull},
     {2176487, 693920, 1272561, 0x284c757f379beb96ull}},
};

Counters Measure(const char* top, int opt_level, const CostModel& cost,
                 const std::vector<TracePacket>& trace) {
  Diagnostics diags;
  KnitcOptions options;
  options.opt_level = opt_level;
  KnitPipeline pipeline(options);
  Result<RouterProgram> program = RouterProgram::FromClack(pipeline, top, diags, cost);
  EXPECT_TRUE(program.ok()) << diags.ToString();
  if (!program.ok()) {
    return Counters{};
  }
  // Only the packets are counted: init ran in FromClack, and the counter
  // read-back in Snapshot comes after the last sample.
  RouterSession& session = program.value().session();
  session.ResetStats();
  const long long insns_before = program.value().machine().insns();
  EXPECT_TRUE(session.FeedRange(trace, 0, trace.size(), diags).ok()) << diags.ToString();
  const long long insns = program.value().machine().insns() - insns_before;
  Result<RouterStats> stats = session.Snapshot(diags);
  EXPECT_TRUE(stats.ok()) << diags.ToString();
  EXPECT_EQ(stats.value().packets, static_cast<int>(trace.size()));
  return Counters{stats.value().cycles, stats.value().ifetch_stalls, insns,
                  stats.value().tx_hash};
}

void ExpectCounters(const Counters& got, const Counters& want, const std::string& label) {
  EXPECT_EQ(got.cycles, want.cycles) << label;
  EXPECT_EQ(got.ifetch_stalls, want.ifetch_stalls) << label;
  EXPECT_EQ(got.insns, want.insns) << label;
  EXPECT_EQ(got.tx_hash, want.tx_hash) << label;
  if (got.cycles != want.cycles || got.ifetch_stalls != want.ifetch_stalls ||
      got.insns != want.insns || got.tx_hash != want.tx_hash) {
    std::printf("%s measured {%lld, %lld, %lld, 0x%016llxull}\n", label.c_str(), got.cycles,
                got.ifetch_stalls, got.insns, static_cast<unsigned long long>(got.tx_hash));
  }
}

// Names the configuration in test listings, instead of gtest's byte dump of the
// row, which carries the address of `top`.
void PrintTo(const Row& row, std::ostream* os) {
  *os << row.top << " -O" << row.opt_level;
}

class Table1Goldens : public testing::TestWithParam<Row> {};

TEST_P(Table1Goldens, CountersAreBitIdentical) {
  const Row& row = GetParam();
  TraceOptions trace_options;
  trace_options.count = 1000;
  const std::vector<TracePacket> trace = GenerateTrace(trace_options);
  const std::string label = std::string(row.top) + " -O" + std::to_string(row.opt_level);

  ExpectCounters(Measure(row.top, row.opt_level, CostModel(), trace), row.default_cache,
                 label + " (8 KB L1I)");
  CostModel small;
  small.icache_bytes = 1024;
  const Counters measured = Measure(row.top, row.opt_level, small, trace);
  ExpectCounters(measured, row.small_cache, label + " (1 KB L1I)");
  EXPECT_EQ(std::llround(static_cast<double>(measured.cycles) / 1000.0),
            row.table1_cy_per_pkt)
      << label;
}

INSTANTIATE_TEST_SUITE_P(FiveConfigurations, Table1Goldens, testing::ValuesIn(kRows),
                         [](const testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.top) + "_O" +
                                  std::to_string(info.param.opt_level);
                         });

}  // namespace
}  // namespace knit
