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
// Results go to stdout and to BENCH_swap.json.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/clack/corpus.h"
#include "src/reconfig/reconfig.h"

namespace knit {
namespace {

struct SwapBenchRow {
  double plain_cycles_per_packet = 0;
  double swappable_cycles_per_packet = 0;
  long long pause_cycles = 0;
  double swap_host_us = 0;  // wall time of Request(): compile + patch-link
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
  Diagnostics diags;
  KnitcOptions plain_options;
  plain_options.opt_level = opt_level;
  KnitPipeline plain_pipeline(plain_options);
  Result<RouterProgram> plain =
      RouterProgram::FromClack(plain_pipeline, "ClackRouter", diags, RouterCostModel());
  if (!plain.ok()) {
    std::fprintf(stderr, "plain -O%d build failed:\n%s\n", opt_level,
                 diags.ToString().c_str());
    return false;
  }
  Result<RouterStats> plain_stats = plain.value().RunTrace(trace, diags);
  if (!plain_stats.ok()) {
    std::fprintf(stderr, "plain -O%d run failed:\n%s\n", opt_level, diags.ToString().c_str());
    return false;
  }
  row->plain_cycles_per_packet = plain_stats.value().CyclesPerPacket();

  KnitcOptions swappable_options = plain_options;
  swappable_options.swappable = {"*"};
  KnitPipeline swappable_pipeline(swappable_options);
  Result<RouterProgram> swappable = RouterProgram::FromClack(swappable_pipeline, "ClackRouter",
                                                             diags, RouterCostModel());
  if (!swappable.ok()) {
    std::fprintf(stderr, "swappable -O%d build failed:\n%s\n", opt_level,
                 diags.ToString().c_str());
    return false;
  }
  RouterProgram& program = swappable.value();

  // Steady state first (no swap in flight).
  Result<RouterStats> swappable_stats = program.RunTrace(trace, diags);
  if (!swappable_stats.ok()) {
    std::fprintf(stderr, "swappable -O%d run failed:\n%s\n", opt_level,
                 diags.ToString().c_str());
    return false;
  }
  row->swappable_cycles_per_packet = swappable_stats.value().CyclesPerPacket();
  if (swappable_stats.value().tx_hash != plain_stats.value().tx_hash) {
    std::fprintf(stderr, "-O%d: swappable build diverged from the plain build\n", opt_level);
    return false;
  }

  // Swap latency: same trace again, hot-swapping `swap_instance` with a fresh
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
      auto start = std::chrono::steady_clock::now();
      engine.Request(spec);
      row->swap_host_us =
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
              .count();
    }
  });
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
  if (swap_run.value().tx_hash != plain_stats.value().tx_hash) {
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
  std::printf("  %-34s %12.0f %12.0f\n", "swap latency (host microseconds)",
              o1.swap_host_us, o2.swap_host_us);
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
                  "  \"o1_swap_host_us\": %.0f,\n"
                  "  \"o1_swap_deferred_packets\": %d,\n"
                  "  \"o1_rebound_slots\": %d,\n"
                  "  \"o1_functions_appended\": %d,\n"
                  "  \"o2_plain_cycles_per_packet\": %.1f,\n"
                  "  \"o2_swappable_cycles_per_packet\": %.1f,\n"
                  "  \"o2_binding_overhead_percent\": %.2f,\n"
                  "  \"o2_swap_pause_cycles\": %lld,\n"
                  "  \"o2_swap_host_us\": %.0f,\n"
                  "  \"o2_swap_deferred_packets\": %d,\n"
                  "  \"o2_rebound_slots\": %d,\n"
                  "  \"o2_functions_appended\": %d\n"
                  "}\n",
                  trace.size(), swap_instance.c_str(), o1.plain_cycles_per_packet,
                  o1.swappable_cycles_per_packet, OverheadPercent(o1), o1.pause_cycles,
                  o1.swap_host_us, o1.deferred_packets, o1.rebound_slots, o1.new_functions,
                  o2.plain_cycles_per_packet, o2.swappable_cycles_per_packet,
                  OverheadPercent(o2), o2.pause_cycles, o2.swap_host_us,
                  o2.deferred_packets, o2.rebound_slots, o2.new_functions);
    out << buffer;
    std::printf("\nwrote BENCH_swap.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace knit

int main() { return knit::Main(); }
