// Ablations for the design choices DESIGN.md calls out around flattening:
//   1. definition sorting — the paper sorts merged definitions "so that the
//      definition of each function comes before as many uses as possible (to
//      encourage inlining)"; our per-TU inliner (like 1990s gcc) only inlines
//      already-seen definitions, so unsorted merging should lose most of the win;
//   2. flattening granularity — per-unit objects vs the router subtree vs the
//      whole program ("Knit can merge files at any unit boundary, as directed by
//      the programmer via the unit specifications");
//   3. link-time optimization — the -O2 image passes (cross-unit inlining over
//      the resolved bindings + global DCE) as an alternative to source-level
//      flattening, with measured boundary-call counts written to BENCH_lto.json.
#include <cstdio>
#include <fstream>
#include <optional>

#include "bench/bench_util.h"

namespace knit {
namespace {

// Measures one configuration and prints its row; `out`, if given, keeps the stats.
bool MeasureRow(const char* label, const char* top, const KnitcOptions& options,
                const std::vector<TracePacket>& trace, RouterStats* out = nullptr) {
  std::optional<MeasuredRouter> run = MeasureRouter(label, top, options, trace);
  if (!run) {
    return false;
  }
  PrintRouterRow(label, run->stats);
  if (out != nullptr) {
    *out = std::move(run->stats);
  }
  return true;
}

int Run() {
  std::vector<TracePacket> trace = RouterTrace();
  std::printf("=== Ablation: flattener definition sorting ===\n");
  std::printf("  %-28s %10s %14s %12s\n", "configuration", "cycles/pkt", "ifetch-stall",
              "text bytes");
  KnitcOptions sorted;
  KnitcOptions unsorted;
  unsorted.sort_definitions = false;
  KnitcOptions callers_first;
  callers_first.callers_first_definitions = true;
  if (!MeasureRow("flattened, defs sorted", "ClackRouterFlat", sorted, trace) ||
      !MeasureRow("flattened, source order", "ClackRouterFlat", unsorted, trace) ||
      !MeasureRow("flattened, callers first", "ClackRouterFlat", callers_first, trace)) {
    return 1;
  }
  std::printf("  (source order here is already bottom-up; callers-first is the "
              "adversarial case)\n");

  std::printf("\n=== Ablation: flattening granularity ===\n");
  std::printf("  %-28s %10s %14s %12s\n", "configuration", "cycles/pkt", "ifetch-stall",
              "text bytes");
  KnitcOptions none;
  none.flatten = false;
  KnitcOptions marker;  // honor the `flatten` marker on the router compound
  KnitcOptions everything;
  everything.flatten_everything = true;
  if (!MeasureRow("per-unit objects", "ClackRouterFlat", none, trace) ||
      !MeasureRow("router subtree merged", "ClackRouterFlat", marker, trace) ||
      !MeasureRow("whole program merged", "ClackRouter", everything, trace)) {
    return 1;
  }

  std::printf("\n=== Ablation: per-TU optimizer entirely off (-O0) ===\n");
  std::printf("  %-28s %10s %14s %12s\n", "configuration", "cycles/pkt", "ifetch-stall",
              "text bytes");
  KnitcOptions o0;
  o0.opt_level = 0;
  if (!MeasureRow("modular -O1", "ClackRouter", KnitcOptions(), trace) ||
      !MeasureRow("modular -O0", "ClackRouter", o0, trace)) {
    return 1;
  }

  // The lto arm: instead of rewriting sources (flattening), keep the modular
  // sources and let the -O2 image passes inline across the resolved component
  // bindings. Boundary calls come from the profiler, so the claim "the image
  // passes remove the calls flattening removes" is measured, not asserted.
  std::printf("\n=== Ablation: link-time optimization (lto) vs flattening ===\n");
  std::printf("  %-28s %10s %14s %12s\n", "configuration", "cycles/pkt", "ifetch-stall",
              "text bytes");
  KnitcOptions lto;
  lto.opt_level = 2;
  RouterStats modular_stats;
  RouterStats lto_stats;
  RouterStats flat_stats;
  if (!MeasureRow("modular -O1", "ClackRouter", KnitcOptions(), trace, &modular_stats) ||
      !MeasureRow("modular -O2 (lto)", "ClackRouter", lto, trace, &lto_stats) ||
      !MeasureRow("flattened -O1", "ClackRouterFlat", KnitcOptions(), trace, &flat_stats)) {
    return 1;
  }
  std::printf("  boundary calls: %lld modular -> %lld lto -> %lld flattened\n",
              modular_stats.profile.boundary_calls, lto_stats.profile.boundary_calls,
              flat_stats.profile.boundary_calls);

  std::ofstream out("BENCH_lto.json", std::ios::trunc);
  if (out) {
    char buffer[1024];
    std::snprintf(buffer, sizeof(buffer),
                  "{\n"
                  "  \"target\": \"ClackRouter\",\n"
                  "  \"packets\": %d,\n"
                  "  \"modular_boundary_calls\": %lld,\n"
                  "  \"lto_boundary_calls\": %lld,\n"
                  "  \"flattened_boundary_calls\": %lld,\n"
                  "  \"modular_cycles_per_packet\": %.1f,\n"
                  "  \"lto_cycles_per_packet\": %.1f,\n"
                  "  \"flattened_cycles_per_packet\": %.1f,\n"
                  "  \"modular_text_bytes\": %d,\n"
                  "  \"lto_text_bytes\": %d,\n"
                  "  \"flattened_text_bytes\": %d\n"
                  "}\n",
                  modular_stats.packets, modular_stats.profile.boundary_calls,
                  lto_stats.profile.boundary_calls, flat_stats.profile.boundary_calls,
                  modular_stats.CyclesPerPacket(), lto_stats.CyclesPerPacket(),
                  flat_stats.CyclesPerPacket(), modular_stats.text_bytes,
                  lto_stats.text_bytes, flat_stats.text_bytes);
    out << buffer;
    std::printf("  lto report written to BENCH_lto.json\n");
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace knit

int main() { return knit::Run(); }
