// Live-reconfiguration cost (DESIGN.md §11): how long does a hot swap pause the
// router, and what does keeping an instance swappable cost in steady state?
//
//   - pause: cycles the machine spends inside the swap itself (replacement
//     initializers plus old-generation finalizers) while packets wait, plus the
//     packet boundaries a request spent deferred;
//   - steady state: cycles/packet of a --swappable=* build versus the plain
//     build, at -O1 and -O2 — the price of routing cross-component calls into a
//     swappable instance through binding slots (and of deoptimizing -O2
//     devirtualization at those boundaries).
//
// Every number is a modeled count, so the output is the same on every run; the
// host wall time of a swap is knitbench's `hotswap` workload (swap_pause_ms).
// Results go to stdout and to BENCH_swap.json.
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/reconfig/reconfig.h"

namespace knit {
namespace {

struct SwapBenchRow {
  double plain_cycles_per_packet = 0;
  double swappable_cycles_per_packet = 0;
  long long pause_cycles = 0;
  int deferred_packets = 0;
  int rebound_slots = 0;
  int new_functions = 0;
};

double OverheadPercent(const SwapBenchRow& row) {
  if (row.plain_cycles_per_packet == 0) {
    return 0;
  }
  return (row.swappable_cycles_per_packet / row.plain_cycles_per_packet - 1.0) * 100.0;
}

bool MeasureOpt(int opt_level, const std::vector<TracePacket>& trace,
                const std::string& swap_instance, SwapBenchRow* row) {
  const std::string level = "-O" + std::to_string(opt_level);
  KnitcOptions plain_options;
  plain_options.opt_level = opt_level;
  std::optional<MeasuredRouter> plain =
      MeasureRouter("plain " + level, "ClackRouter", plain_options, trace);
  if (!plain) {
    return false;
  }
  const RouterStats& plain_stats = plain->stats;
  row->plain_cycles_per_packet = plain_stats.CyclesPerPacket();

  // Steady state first (no swap in flight).
  KnitcOptions swappable_options = plain_options;
  swappable_options.swappable = {"*"};
  std::optional<MeasuredRouter> swappable =
      MeasureRouter("swappable " + level, "ClackRouter", swappable_options, trace);
  if (!swappable) {
    return false;
  }
  row->swappable_cycles_per_packet = swappable->stats.CyclesPerPacket();
  if (swappable->stats.tx_hash != plain_stats.tx_hash) {
    std::fprintf(stderr, "%s: swappable build diverged from the plain build\n", level.c_str());
    return false;
  }
  RouterProgram& program = swappable->program;

  // The swap: same trace again, hot-swapping `swap_instance` with a fresh
  // copy of its own source at the midpoint, under traffic.
  ReconfigEngine engine(*program.mutable_build(), program.machine(), ClackSources());
  const auto& instances = program.build()->config.instances;
  int target = program.build()->config.FindInstance(swap_instance);
  if (target < 0) {
    std::fprintf(stderr, "swap instance '%s' not found\n", swap_instance.c_str());
    return false;
  }
  const int swap_at = static_cast<int>(trace.size()) / 2;
  program.session().SetPacketHook([&](int packet) {
    engine.Pump();
    if (packet == swap_at) {
      SwapSpec spec;
      spec.instance = instances[target].path;
      spec.source_name = instances[target].unit->files[0];
      spec.source = ClackSources().at(spec.source_name);
      engine.Request(spec);
    }
  });
  Diagnostics diags;
  Result<RouterStats> swap_run = program.RunTrace(trace, diags);
  program.session().SetPacketHook(nullptr);
  if (!swap_run.ok()) {
    std::fprintf(stderr, "swap run -O%d failed:\n%s\n", opt_level, diags.ToString().c_str());
    return false;
  }
  if (engine.reports().empty() || !engine.reports().back().ok) {
    std::fprintf(stderr, "-O%d swap failed: %s\n", opt_level,
                 engine.reports().empty() ? "no report" : engine.reports().back().error.c_str());
    return false;
  }
  if (swap_run.value().tx_hash != plain_stats.tx_hash) {
    std::fprintf(stderr, "-O%d: swap run diverged from the plain build\n", opt_level);
    return false;
  }
  const SwapReport& report = engine.reports().back();
  row->pause_cycles = report.pause_cycles;
  row->deferred_packets = report.deferred_packets;
  row->rebound_slots = report.rebound_slots;
  row->new_functions = report.new_functions;
  return true;
}

int Main() {
  const std::vector<TracePacket> trace = RouterTrace(1000);
  // The route-lookup element sits on the hot forwarding path: swapping it is
  // the representative worst case for pause placement.
  const std::string swap_instance = "ClackRouter/RouteLookup";

  SwapBenchRow o1;
  SwapBenchRow o2;
  if (!MeasureOpt(1, trace, swap_instance, &o1) || !MeasureOpt(2, trace, swap_instance, &o2)) {
    return 1;
  }

  std::printf("Live reconfiguration cost (ClackRouter, %zu packets, swap %s mid-trace)\n\n",
              trace.size(), swap_instance.c_str());
  std::printf("  %-34s %12s %12s\n", "", "-O1", "-O2");
  std::printf("  %-34s %12.1f %12.1f\n", "plain cycles/packet",
              o1.plain_cycles_per_packet, o2.plain_cycles_per_packet);
  std::printf("  %-34s %12.1f %12.1f\n", "swappable(*) cycles/packet",
              o1.swappable_cycles_per_packet, o2.swappable_cycles_per_packet);
  std::printf("  %-34s %11.1f%% %11.1f%%\n", "steady-state binding overhead",
              OverheadPercent(o1), OverheadPercent(o2));
  std::printf("  %-34s %12lld %12lld\n", "swap pause (machine cycles)", o1.pause_cycles,
              o2.pause_cycles);
  std::printf("  %-34s %12d %12d\n", "packets deferred by the swap",
              o1.deferred_packets, o2.deferred_packets);
  std::printf("  %-34s %12d %12d\n", "binding slots rebound", o1.rebound_slots,
              o2.rebound_slots);
  std::printf("  %-34s %12d %12d\n", "functions appended", o1.new_functions,
              o2.new_functions);

  std::ofstream out("BENCH_swap.json", std::ios::trunc);
  if (out) {
    char buffer[2048];
    std::snprintf(buffer, sizeof(buffer),
                  "{\n"
                  "  \"target\": \"ClackRouter\",\n"
                  "  \"packets\": %zu,\n"
                  "  \"swap_instance\": \"%s\",\n"
                  "  \"o1_plain_cycles_per_packet\": %.1f,\n"
                  "  \"o1_swappable_cycles_per_packet\": %.1f,\n"
                  "  \"o1_binding_overhead_percent\": %.2f,\n"
                  "  \"o1_swap_pause_cycles\": %lld,\n"
                  "  \"o1_swap_deferred_packets\": %d,\n"
                  "  \"o1_rebound_slots\": %d,\n"
                  "  \"o1_functions_appended\": %d,\n"
                  "  \"o2_plain_cycles_per_packet\": %.1f,\n"
                  "  \"o2_swappable_cycles_per_packet\": %.1f,\n"
                  "  \"o2_binding_overhead_percent\": %.2f,\n"
                  "  \"o2_swap_pause_cycles\": %lld,\n"
                  "  \"o2_swap_deferred_packets\": %d,\n"
                  "  \"o2_rebound_slots\": %d,\n"
                  "  \"o2_functions_appended\": %d\n"
                  "}\n",
                  trace.size(), swap_instance.c_str(), o1.plain_cycles_per_packet,
                  o1.swappable_cycles_per_packet, OverheadPercent(o1), o1.pause_cycles,
                  o1.deferred_packets, o1.rebound_slots, o1.new_functions,
                  o2.plain_cycles_per_packet, o2.swappable_cycles_per_packet,
                  OverheadPercent(o2), o2.pause_cycles, o2.deferred_packets,
                  o2.rebound_slots, o2.new_functions);
    out << buffer;
    std::printf("\nwrote BENCH_swap.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace knit

int main() { return knit::Main(); }
