// Regenerates Table 2: "Click router performance, with and without all three MIT
// optimizations" plus the in-text comparison against Clack ("the performance of
// their base system is approximately the same as ours (3% slower)").
//
// Paper: unoptimized 2486 cycles; optimized 1146 cycles (-54%).
//
// Also prints the per-optimization ablation (fast classifier / specializer /
// xform), which the paper's reference [19] motivates.
#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "src/click/click_gen.h"

namespace knit {
namespace {

RouterStats RunClick(const ClickOptim& optim, const std::vector<TracePacket>& trace,
                     bool* ok) {
  Diagnostics diags;
  Result<std::unique_ptr<Image>> image = BuildClickRouter(optim, diags);
  if (!image.ok()) {
    std::fprintf(stderr, "click build failed:\n%s", diags.ToString().c_str());
    *ok = false;
    return RouterStats{};
  }
  Result<RouterProgram> program = RouterProgram::FromImage(
      std::move(image.value()), ClickEntryNames(), "dev_tx", diags, RouterCostModel());
  if (!program.ok()) {
    *ok = false;
    return RouterStats{};
  }
  program.value().machine().Call("click_init");
  Result<RouterStats> stats = program.value().RunTrace(trace, diags);
  if (!stats.ok()) {
    std::fprintf(stderr, "click run failed:\n%s", diags.ToString().c_str());
    *ok = false;
    return RouterStats{};
  }
  *ok = true;
  return stats.value();
}

int Run() {
  std::vector<TracePacket> trace = RouterTrace();
  std::printf("=== Table 2: Click router, object-based, with/without the MIT "
              "optimizations ===\n");
  std::printf("  paper: unoptimized 2486 cycles; optimized 1146 cycles (-54%%)\n\n");
  std::printf("  %-28s %10s %14s %12s\n", "version", "cycles/pkt", "ifetch-stall",
              "text bytes");

  bool ok = true;
  RouterStats unopt = RunClick(ClickOptim::None(), trace, &ok);
  if (!ok) {
    return 1;
  }
  PrintRouterRow("unoptimized", unopt);
  RouterStats all = RunClick(ClickOptim::All(), trace, &ok);
  if (!ok) {
    return 1;
  }
  PrintRouterRow("optimized (all three)", all);
  std::printf("  %-28s %9.1f%%\n\n", "  improvement",
              100.0 * (1.0 - all.CyclesPerPacket() / unopt.CyclesPerPacket()));

  std::printf("  ablation (each optimization alone):\n");
  struct Row {
    const char* label;
    ClickOptim optim;
  };
  const Row rows[] = {
      {"fast classifier only", ClickOptim{true, false, false}},
      {"specializer only", ClickOptim{false, true, false}},
      {"xform only", ClickOptim{false, false, true}},
  };
  for (const Row& row : rows) {
    RouterStats stats = RunClick(row.optim, trace, &ok);
    if (!ok) {
      return 1;
    }
    PrintRouterRow(row.label, stats);
  }

  // The in-text Clack comparison.
  std::optional<MeasuredRouter> clack =
      MeasureRouter("Clack modular", "ClackRouter", KnitcOptions{}, trace);
  if (!clack) {
    return 1;
  }
  std::printf("\n  base Click vs base Clack (paper: Click ~3%% slower):\n");
  PrintRouterRow("Clack modular", clack->stats);
  PrintRouterRow("Click unoptimized", unopt);
  std::printf("  %-28s %9.1f%%\n\n", "  Click slower by",
              100.0 * (unopt.CyclesPerPacket() / clack->stats.CyclesPerPacket() - 1.0));
  return 0;
}

}  // namespace
}  // namespace knit

int main() { return knit::Run(); }
