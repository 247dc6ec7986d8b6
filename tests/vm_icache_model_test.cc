// The I-cache model (src/vm/icache.h) against a reference: the stamp-based LRU
// the machine used before, written out here. Seeded random fetch streams run
// through both over line sizes 16/32/64 and 1/2/4/8 ways, at a set count that
// is not a power of two (768 bytes) and at one that is; every access must hit
// or miss alike, so the stall totals match too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "src/vm/icache.h"

namespace knit {
namespace {

constexpr long long kMissStall = 8;

// Per set, per way: a tag (-1 empty) and the clock value of its last touch. A
// hit refreshes the stamp; a miss fills the way with the smallest stamp.
class StampLru {
 public:
  StampLru(int cache_bytes, int line_bytes, int ways)
      : line_bytes_(line_bytes),
        ways_(ways),
        sets_(cache_bytes / (line_bytes * ways)),
        table_(static_cast<size_t>(sets_) * ways) {}

  bool Access(uint32_t address) {  // true on a miss
    const int64_t line = address / line_bytes_;
    const int64_t set = line % sets_;
    const int64_t tag = line / sets_;
    Way* ways = &table_[static_cast<size_t>(set) * ways_];
    ++clock_;
    int victim = 0;
    for (int w = 0; w < ways_; ++w) {
      if (ways[w].tag == tag) {
        ways[w].stamp = clock_;
        return false;
      }
      if (ways[w].stamp < ways[victim].stamp) {
        victim = w;
      }
    }
    ways[victim].tag = tag;
    ways[victim].stamp = clock_;
    return true;
  }

 private:
  struct Way {
    int64_t tag = -1;
    uint64_t stamp = 0;
  };
  int line_bytes_;
  int ways_;
  int sets_;
  std::vector<Way> table_;
  uint64_t clock_ = 0;
};

// Instruction-aligned fetch addresses with the locality of real code: mostly
// short forward runs, some jumps back into a loop body, some calls far away.
std::vector<uint32_t> FetchStream(uint32_t seed, size_t count, uint32_t text_bytes) {
  std::mt19937 rng(seed);
  std::vector<uint32_t> stream;
  uint32_t pc = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t roll = rng() % 100;
    if (roll < 70) {
      pc += 4;
    } else if (roll < 85) {
      pc -= std::min<uint32_t>(pc, 4 * (rng() % 24));
    } else {
      pc = 4 * (rng() % (text_bytes / 4));
    }
    pc %= text_bytes;
    stream.push_back(pc);
  }
  return stream;
}

void ExpectSameHitsAndMisses(int cache_bytes, int line_bytes, int ways, uint32_t seed) {
  StampLru reference(cache_bytes, line_bytes, ways);
  ICacheModel model(cache_bytes, line_bytes, ways);
  long long reference_stalls = 0;
  long long model_stalls = 0;
  const std::vector<uint32_t> stream = FetchStream(seed, 20000, 4 * cache_bytes);
  for (size_t i = 0; i < stream.size(); ++i) {
    const bool reference_miss = reference.Access(stream[i]);
    const bool model_miss = model.Probe(model.Locate(stream[i]));
    ASSERT_EQ(model_miss, reference_miss)
        << "access " << i << " (address " << stream[i] << ") of seed " << seed << ", "
        << cache_bytes << " bytes, " << line_bytes << "-byte lines, " << ways << " ways";
    reference_stalls += reference_miss ? kMissStall : 0;
    model_stalls += model_miss ? kMissStall : 0;
  }
  EXPECT_EQ(model_stalls, reference_stalls);
  EXPECT_GT(model_stalls, 0);
}

TEST(ICacheModel, MatchesStampLruOnRandomStreams) {
  for (int cache_bytes : {768, 1024}) {
    for (int line_bytes : {16, 32, 64}) {
      for (int ways : {1, 2, 4, 8}) {
        for (uint32_t seed = 1; seed <= 5; ++seed) {
          ExpectSameHitsAndMisses(cache_bytes, line_bytes, ways, seed);
        }
      }
    }
  }
}

TEST(ICacheModel, LocatePlacesLinesLikeDivision) {
  ICacheModel model(768, 32, 4);  // 6 sets
  for (uint32_t address : {0u, 4u, 31u, 32u, 191u, 192u, 4096u, 0xFFFFFFFCu}) {
    const ICacheSlot slot = model.Locate(address);
    EXPECT_EQ(slot.line, address / 32) << address;
    EXPECT_EQ(slot.set_base, (address / 32) % 6 * 4) << address;
    EXPECT_EQ(model.LineStart(slot), uint64_t{address} / 32 * 32) << address;
  }
}

TEST(ICacheModel, EvictsTheLeastRecentlyUsedLine) {
  ICacheModel model(64, 16, 2);  // 2 sets of 2 ways; lines 0, 2, 4 share set 0
  auto miss = [&](uint32_t line) { return model.Probe(model.Locate(line * 16)); };
  EXPECT_TRUE(miss(0));
  EXPECT_TRUE(miss(2));
  EXPECT_FALSE(miss(0));  // 0 is now the most recent; 2 the least
  EXPECT_TRUE(miss(4));   // evicts 2
  EXPECT_FALSE(miss(0));
  EXPECT_TRUE(miss(2));   // evicts 4
  EXPECT_TRUE(miss(1));   // set 1 is untouched by set 0's traffic
  EXPECT_FALSE(miss(0));
}

}  // namespace
}  // namespace knit
