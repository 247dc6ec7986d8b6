// Swap-cost scaling: a hot swap costs in proportion to its replacement, not to
// the image it lands in. Every retired generation's text stays in the image by
// design (DESIGN.md §11), so an image that has served 2,000 swaps holds tens of
// times the code of a fresh one; a whole-image pass per swap made one leaf's
// swap on such an image cost 3.6-3.8x the same swap on a fresh image.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "tests/swap_testutil.h"

namespace knit {
namespace {

constexpr int kGrowthSwaps = 2000;
constexpr int kSamples = 15;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Host seconds of one Request that swaps `leaf` with its own source.
double RequestSeconds(SwapRig& rig, const SwapTarget& leaf) {
  const auto start = std::chrono::steady_clock::now();
  SwapReport report = rig.SwapOwnSource(leaf);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(report.ok) << report.error;
  return elapsed.count();
}

TEST(SwapScaling, ALeafSwapCostsTheSameOnAFreshAndAGrownImage) {
  std::unique_ptr<SwapRig> fresh = BuildSwapRig("ClackRouter", 2);
  std::unique_ptr<SwapRig> grown = BuildSwapRig("ClackRouter", 2);
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(grown, nullptr);
  const std::vector<SwapTarget>& targets = grown->targets;
  auto leaf = std::find_if(targets.begin(), targets.end(), [](const SwapTarget& target) {
    return target.instance == "ClackRouter/Strip";
  });
  ASSERT_NE(leaf, targets.end());

  for (int swap = 0; swap < kGrowthSwaps; ++swap) {
    SwapReport report = grown->SwapOwnSource(targets[swap % targets.size()]);
    ASSERT_TRUE(report.ok) << report.error;
  }
  ASSERT_GT(grown->image().functions.size(), 20 * fresh->image().functions.size());

  // Both images in one process, so a sanitizer or a slow host scales both
  // sides; the samples alternate between the images and each side takes its
  // median, so host-speed drift and one-off stalls move neither side alone.
  RequestSeconds(*fresh, *leaf);
  RequestSeconds(*grown, *leaf);
  std::vector<double> fresh_seconds;
  std::vector<double> grown_seconds;
  for (int sample = 0; sample < kSamples; ++sample) {
    fresh_seconds.push_back(RequestSeconds(*fresh, *leaf));
    grown_seconds.push_back(RequestSeconds(*grown, *leaf));
  }
  const double fresh_median = Median(fresh_seconds);
  const double grown_median = Median(grown_seconds);
  ASSERT_GT(fresh_median, 0.0);
  EXPECT_LE(grown_median / fresh_median, 1.5)
      << "fresh: " << fresh_median * 1e6 << " us, grown by " << kGrowthSwaps
      << " swaps: " << grown_median * 1e6 << " us";
  std::printf("swap of %s: fresh %.1f us, grown by %d swaps %.1f us (%.2fx)\n",
              leaf->instance.c_str(), fresh_median * 1e6, kGrowthSwaps, grown_median * 1e6,
              grown_median / fresh_median);
}

}  // namespace
}  // namespace knit
