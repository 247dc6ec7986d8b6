// Residency: a machine costs the pages it touches, not its address space. VM
// data memory is a lazily zeroed mapping (src/vm/data_memory.h), so building
// machines and a fleet stays within a minor-fault budget, memory nothing wrote
// reads zero, and a host access past the end hits the guard page.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/serve/serve.h"
#include "src/support/mangle.h"
#include "src/vm/data_memory.h"

namespace knit {
namespace {

constexpr uint32_t kMemoryBytes = 1 << 24;  // Machine's default data memory
constexpr uint32_t kStackBytes = 1 << 20;   // the stack region below the top
constexpr uint32_t kPage = 4096;

// Minor faults one machine over ClackRouter -O2 may take from construction
// through knit__init: the data image, the stack and heap pages init writes, and
// the host-side tables. Zero-filling all of memory took ~4,100 (one per 4 KB
// page). Measured per machine, 8 machines / 4-shard fleet: Release 1 / 1,
// ASan+UBSan 23 / 32-37, TSan 34 / 22-47 (the sanitizer runtimes fault in
// shadow and quarantine pages); the budget leaves 3x room over the worst.
constexpr long kFaultsPerMachine = 160;

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

std::shared_ptr<const KnitBuildResult> RouterBuild() {
  static std::shared_ptr<const KnitBuildResult> build = [] {
    Diagnostics diags;
    KnitcOptions options;
    options.opt_level = 2;
    KnitPipeline pipeline(options);
    Result<LinkedImage> built =
        pipeline.Build(ClackKnit(), ClackSources(), "ClackRouter", diags);
    EXPECT_TRUE(built.ok()) << diags.ToString();
    return built.ok() ? std::make_shared<const KnitBuildResult>(
                            KnitBuildResultFrom(built.take(), pipeline.metrics()))
                      : nullptr;
  }();
  return build;
}

bool AllZero(std::span<const uint8_t> bytes) {
  for (uint8_t byte : bytes) {
    if (byte != 0) {
      return false;
    }
  }
  return true;
}

TEST(Residency, MachinesFaultOnlyThePagesTheyTouch) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild();
  ASSERT_NE(build, nullptr);
  constexpr int kMachines = 8;
  std::vector<std::unique_ptr<Machine>> machines;
  const long before = MinorFaults();
  for (int i = 0; i < kMachines; ++i) {
    machines.push_back(std::make_unique<Machine>(build->image));
    ASSERT_TRUE(machines.back()->Call(build->init_function).ok);
  }
  const long faults = MinorFaults() - before;
  std::printf("%d machines: %ld minor faults\n", kMachines, faults);
  EXPECT_LT(faults, kMachines * kFaultsPerMachine);
}

TEST(Residency, FleetSetupFaultsOnlyThePagesItTouches) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild();
  ASSERT_NE(build, nullptr);
  ServeOptions options;
  options.shards = 4;
  Diagnostics diags;
  const long before = MinorFaults();
  Result<std::unique_ptr<RouterFleet>> fleet =
      RouterFleet::FromBuild(build, RouterProgram::ClackEntryNames(*build),
                             EnvSymbol("dev", "dev_tx"), options, diags);
  const long faults = MinorFaults() - before;
  ASSERT_TRUE(fleet.ok()) << diags.ToString();
  std::printf("%d-shard fleet: %ld minor faults\n", options.shards, faults);
  EXPECT_LT(faults, options.shards * kFaultsPerMachine);
}

TEST(Residency, MemoryNothingWroteReadsZero) {
  std::shared_ptr<const KnitBuildResult> build = RouterBuild();
  ASSERT_NE(build, nullptr);
  const Image& image = build->image;
  Machine machine(image, CostModel(), kMemoryBytes);

  // The data image is loaded; the rest of its last page is zero.
  std::span<const uint8_t> data =
      machine.BytesAt(image.data_base, static_cast<uint32_t>(image.data.size()));
  ASSERT_TRUE(std::equal(data.begin(), data.end(), image.data.begin(), image.data.end()));
  const uint32_t data_end = image.data_base + static_cast<uint32_t>(image.data.size());
  const uint32_t data_page_end = (data_end + kPage - 1) & ~(kPage - 1);
  EXPECT_TRUE(AllZero(machine.BytesAt(data_end, data_page_end - data_end)));

  // What follows holds on a machine that has run.
  ASSERT_TRUE(machine.Call(build->init_function).ok);

  // The byte below the top, and a page near the stack floor.
  EXPECT_EQ(machine.ReadByte(kMemoryBytes - 1), 0);
  EXPECT_TRUE(AllZero(machine.BytesAt(kMemoryBytes - kStackBytes, kPage)));

  // A fresh Sbrk grant, after init has taken its own.
  const uint32_t grant = machine.Sbrk(1);
  ASSERT_NE(grant, 0u);
  EXPECT_TRUE(AllZero(machine.BytesAt(grant, kPage)));
}

TEST(ResidencyDeathTest, HostAccessPastTheEndHitsTheGuardPage) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  DataMemory memory(16 * kPage);
  memory.data()[memory.size() - 1] = 1;  // the last byte is ordinary memory
  EXPECT_EQ(memory.data()[memory.size() - 1], 1);
  EXPECT_DEATH(
      {
        volatile uint8_t* past = memory.data() + memory.size();
        *past = 1;
      },
      "");
}

}  // namespace
}  // namespace knit
