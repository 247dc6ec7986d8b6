// Helpers for the hot-swap tests that drive a live Clack router: a program
// built swappable, its engine, and the instances behind binding slots.
#ifndef TESTS_SWAP_TESTUTIL_H_
#define TESTS_SWAP_TESTUTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/driver/pipeline.h"
#include "src/reconfig/reconfig.h"

namespace knit {

// An instance a swap can replace from source.
struct SwapTarget {
  std::string instance;
  std::string source_name;
};

// A Clack router program built with `swappable` and a reconfig engine on it.
struct SwapRig {
  std::unique_ptr<RouterProgram> program;
  std::unique_ptr<ReconfigEngine> engine;
  std::vector<SwapTarget> targets;  // slotted instances, in configuration order

  const Image& image() const { return program->build()->image; }
  Machine& machine() { return program->machine(); }

  // Requests a swap of `target` with its own corpus source.
  SwapReport SwapOwnSource(const SwapTarget& target) {
    SwapSpec spec;
    spec.instance = target.instance;
    spec.source_name = target.source_name;
    spec.source = ClackSources().at(target.source_name);
    return engine->Request(spec);
  }
};

inline std::unique_ptr<SwapRig> BuildSwapRig(const std::string& top, int opt_level,
                                             std::vector<std::string> swappable = {"*"}) {
  KnitcOptions options;
  options.opt_level = opt_level;
  options.swappable = std::move(swappable);
  KnitPipeline pipeline(options);
  Diagnostics diags;
  Result<RouterProgram> built = RouterProgram::FromClack(pipeline, top, diags);
  EXPECT_TRUE(built.ok()) << diags.ToString();
  if (!built.ok()) {
    return nullptr;
  }
  auto rig = std::make_unique<SwapRig>();
  rig->program = std::make_unique<RouterProgram>(built.take());
  rig->engine = std::make_unique<ReconfigEngine>(*rig->program->mutable_build(),
                                                 rig->program->machine(), ClackSources());
  std::set<std::string> slotted;
  for (const BindingSlot& slot : rig->image().bindings) {
    slotted.insert(slot.component);
  }
  for (const Instance& instance : rig->program->build()->config.instances) {
    if (slotted.count(instance.path) != 0 && !instance.unit->files.empty()) {
      rig->targets.push_back(SwapTarget{instance.path, instance.unit->files[0]});
    }
  }
  EXPECT_FALSE(rig->targets.empty()) << top << " has no slotted instances";
  return rig;
}

// A Fisher-Yates shuffle on raw mt19937 draws: the same order on every
// standard library, so a golden recorded on one toolchain holds on another.
template <typename T>
void SeededShuffle(std::vector<T>& items, std::mt19937& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng() % i]);
  }
}

}  // namespace knit

#endif  // TESTS_SWAP_TESTUTIL_H_
