#include "knitbench/yardstick.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "knitbench/spans.h"

namespace knitbench {
namespace {

// Each part takes about a third of the ~19 ms on the baseline host.
constexpr int kDispatchSteps = 1500000;
constexpr int kMapOperations = 20000;
constexpr int kChaseNodes = 1 << 21;  // 8 MB of uint32_t
constexpr int kChaseSteps = 50000;

uint64_t Dispatch() {
  static const uint8_t kProgram[16] = {0, 1, 2, 3, 1, 0, 2, 4, 3, 1, 4, 0, 2, 2, 3, 4};
  uint64_t regs[4] = {1, 2, 3, 4};
  for (int i = 0; i < kDispatchSteps; ++i) {
    switch (kProgram[(i * 7 + (regs[0] & 3)) & 15]) {
      case 0:
        regs[0] += regs[1];
        break;
      case 1:
        regs[1] ^= regs[0] >> 3;
        break;
      case 2:
        regs[2] = regs[2] * 31 + regs[3];
        break;
      case 3:
        regs[3] -= regs[2] & 255;
        break;
      default:
        regs[0] = (regs[0] << 1) | (regs[3] & 1);
        break;
    }
  }
  return regs[0] + regs[1] + regs[2] + regs[3];
}

uint64_t Churn() {
  std::map<std::string, std::vector<int>> table;
  for (int i = 0; i < kMapOperations; ++i) {
    table["k" + std::to_string((i * 2654435761u) % 5000)].push_back(i);
    if (i % 3 == 0) {
      table.erase(table.begin());
    }
  }
  return table.size();
}

// One cycle through every node in a fixed random order.
const std::vector<uint32_t>& ChaseRing() {
  static const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> order(kChaseNodes);
    std::iota(order.begin(), order.end(), 0);
    std::mt19937 rng(12345);
    std::shuffle(order.begin() + 1, order.end(), rng);
    std::vector<uint32_t> next(kChaseNodes);
    for (size_t i = 0; i < order.size(); ++i) {
      next[order[i]] = order[(i + 1) % order.size()];
    }
    return next;
  }();
  return ring;
}

uint64_t Chase() {
  const std::vector<uint32_t>& ring = ChaseRing();
  uint32_t at = 0;
  for (int i = 0; i < kChaseSteps; ++i) {
    at = ring[at];
  }
  return at;
}

}  // namespace

double RunYardstickMs() {
  ChaseRing();  // built once, outside the timing
  const Clock::time_point start = Clock::now();
  static volatile uint64_t sink;
  sink = Dispatch() + Churn() + Chase();
  return SecondsSince(start) * 1e3;
}

}  // namespace knitbench
