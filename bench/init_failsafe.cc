// Guards the happy-path cost of failure-aware initialization: the generated
// knit__init with status tracking and per-call failure checks must stay within a
// small constant factor of the paper's monolithic call sequence. We build the
// WebKernel configuration both ways and compare the cycle cost of a full
// init + workload + fini run on each.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/driver/knitc.h"
#include "src/oskit/corpus.h"
#include "src/support/mangle.h"
#include "src/vm/machine.h"

namespace knit {
namespace {

struct InitCost {
  long long init_cycles = 0;
  long long total_cycles = 0;
  long long image_functions = 0;
};

uint32_t WriteString(Machine& machine, const std::string& text) {
  uint32_t address = machine.Sbrk(static_cast<uint32_t>(text.size()) + 1);
  for (size_t i = 0; i < text.size(); ++i) {
    machine.WriteByte(address + static_cast<uint32_t>(i), static_cast<uint8_t>(text[i]));
  }
  machine.WriteByte(address + static_cast<uint32_t>(text.size()), 0);
  return address;
}

InitCost Measure(bool failsafe) {
  Diagnostics diags;
  KnitcOptions options;
  options.failsafe_init = failsafe;
  Result<KnitBuildResult> build =
      KnitBuild(OskitKnit(), OskitSources(), "WebKernel", options, diags);
  if (!build.ok()) {
    std::fprintf(stderr, "build failed:\n%s\n", diags.ToString().c_str());
    std::exit(1);
  }
  const KnitBuildResult& result = build.value();

  Machine machine(result.image);
  machine.BindNative(EnvSymbol("raw", "raw_putc"),
                     [](Machine&, std::span<const uint32_t>) { return 0u; });

  InitCost cost;
  cost.image_functions = static_cast<long long>(result.image.functions.size());

  RunResult init = machine.Call(result.init_function);
  if (!init.ok) {
    std::fprintf(stderr, "knit__init trapped: %s\n", init.error.c_str());
    std::exit(1);
  }
  cost.init_cycles = machine.cycles();

  uint32_t path = WriteString(machine, "/index.html");
  std::string serve = result.ExportedSymbol("serve", "serve_web");
  for (int i = 0; i < 200; ++i) {
    RunResult served = machine.Call(serve, {7, path});
    if (!served.ok) {
      std::fprintf(stderr, "serve_web trapped: %s\n", served.error.c_str());
      std::exit(1);
    }
  }
  machine.Call(result.fini_function);
  cost.total_cycles = machine.cycles();
  return cost;
}

int Main() {
  InitCost monolithic = Measure(false);
  InitCost failsafe = Measure(true);

  std::printf("WebKernel initialization cost, monolithic vs failure-aware knit__init\n");
  std::printf("%-28s %14s %14s\n", "", "monolithic", "failsafe");
  std::printf("%-28s %14lld %14lld\n", "init cycles", monolithic.init_cycles,
              failsafe.init_cycles);
  std::printf("%-28s %14lld %14lld\n", "init+workload+fini cycles", monolithic.total_cycles,
              failsafe.total_cycles);
  std::printf("%-28s %14lld %14lld\n", "image functions", monolithic.image_functions,
              failsafe.image_functions);

  double init_ratio =
      static_cast<double>(failsafe.init_cycles) / static_cast<double>(monolithic.init_cycles);
  double total_ratio = static_cast<double>(failsafe.total_cycles) /
                       static_cast<double>(monolithic.total_cycles);
  std::printf("init overhead:  %+.1f%%\n", (init_ratio - 1.0) * 100.0);
  std::printf("total overhead: %+.1f%%\n", (total_ratio - 1.0) * 100.0);

  // The failure bookkeeping runs once per initializer call, so steady-state cost
  // must be unchanged and even the init phase must stay within a small factor.
  if (total_ratio > 1.02) {
    std::fprintf(stderr, "FAIL: failsafe init added %.1f%% to total runtime (budget 2%%)\n",
                 (total_ratio - 1.0) * 100.0);
    return 1;
  }
  if (init_ratio > 3.0) {
    std::fprintf(stderr, "FAIL: failsafe init phase is %.2fx monolithic (budget 3x)\n",
                 init_ratio);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace
}  // namespace knit

int main() { return knit::Main(); }
