// The L1 instruction-cache model behind Machine::ifetch_stalls(): set-associative,
// least-recently-used replacement, any geometry (the set count need not be a power
// of two).
//
// The divisions that place an address happen once, in Locate, when the machine
// adopts a function (at load and when a hot swap grows the image); the machine
// keeps one ICacheSlot per instruction. A probe then only compares: each set
// holds its resident lines in most-recently-used-first order, so a probe is one
// pass over the ways that compares and shifts the touched line to the front, and
// yields a miss flag. That is exactly LRU, so it reproduces the stamp-based LRU it
// replaced hit for hit: both keep, per set, the `ways` most recently touched
// distinct lines, and a miss evicts the one touched longest ago (an empty way
// before any valid one).
#ifndef SRC_VM_ICACHE_H_
#define SRC_VM_ICACHE_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace knit {

// Where one text address lives in the cache.
struct ICacheSlot {
  uint32_t line = 0;      // address / line bytes; unique within its set, so it is the tag
  uint32_t set_base = 0;  // index of the set's first way in the tag store
};

class ICacheModel {
 public:
  ICacheModel(int cache_bytes, int line_bytes, int ways)
      : line_bytes_(static_cast<uint32_t>(line_bytes)),
        ways_(ways),
        sets_(static_cast<uint32_t>(cache_bytes / (line_bytes * ways))),
        tags_(static_cast<size_t>(sets_) * static_cast<size_t>(ways), kEmpty) {}

  ICacheSlot Locate(uint32_t address) const {
    const uint32_t line = address / line_bytes_;
    return ICacheSlot{line, (line % sets_) * static_cast<uint32_t>(ways_)};
  }

  // First byte of the slot's line.
  uint64_t LineStart(ICacheSlot slot) const {
    return static_cast<uint64_t>(slot.line) * line_bytes_;
  }

  // Touches the slot's line and makes it the most recently used of its set.
  // Returns true on a miss: the line was filled in place of the set's least
  // recently used one.
  bool Probe(ICacheSlot slot) {
    uint64_t* set = tags_.data() + slot.set_base;
    const uint64_t line = slot.line;
    // One pass of masked selects, no early exit and no data-dependent branch:
    // each way up to the line's old position (every way on a miss, which drops
    // the least recent line) takes its predecessor's line, the front takes this
    // one, and the ways after the old position keep theirs (`keep` is all ones
    // once the pass has met the line).
    uint64_t carry = line;
    uint64_t keep = 0;
    for (int w = 0; w < ways_; ++w) {
      const uint64_t current = set[w];
      set[w] = (current & keep) | (carry & ~keep);
      keep |= uint64_t{0} - static_cast<uint64_t>(current == line);
      carry = current;
    }
    return keep == 0;
  }

 private:
  // Marks an empty way; no line number reaches it (lines fit in 32 bits).
  static constexpr uint64_t kEmpty = std::numeric_limits<uint64_t>::max();

  uint32_t line_bytes_;
  int ways_;
  uint32_t sets_;
  std::vector<uint64_t> tags_;  // per set, `ways_` lines, most recent first
};

}  // namespace knit

#endif  // SRC_VM_ICACHE_H_
