// Table 1, PGO row: profile-guided LinkOptimize against the paper's flattening
// baseline. The paper closes the componentization gap by rewriting sources
// (flattening); the -O2 image passes close most of it at link time; this
// bench measures the rest of the gap closing when the -O2 passes are steered by
// a recorded ComponentProfile (--profile-use): inline budget spent
// hottest-first, text laid out by hot-path affinity, never-executed functions
// outlined behind the hot code.
//
// The run is the full recorded-profile workflow, not a shortcut: the modular
// -O2 router is profiled, the profile is serialized to the on-disk document
// format and parsed back (the --profile / --profile-use round trip), and the
// rebuild is steered by the parsed copy. The bench fails if the PGO'd image
// transmits anything different from the plain -O2 image (layout must never
// change results) or does not beat plain -O2 on both cycles and I-fetch stalls
// per packet, and writes the before/after numbers to BENCH_pgo.json. The same
// comparison under a shrinking L1I is bench/ablation_icache's last two columns.
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "bench/bench_util.h"

namespace knit {
namespace {

int Run() {
  std::vector<TracePacket> trace = RouterTrace();
  KnitcOptions o1_options;
  o1_options.cache = std::make_shared<BuildCache>();
  KnitcOptions o2_options = o1_options;
  o2_options.opt_level = 2;
  std::printf("=== Table 1, PGO row: profile-guided -O2 vs flattening ===\n");
  std::printf("  %-28s %10s %14s %12s\n", "configuration", "cycles/pkt", "ifetch-stall",
              "text bytes");

  std::optional<MeasuredRouter> flat_run =
      MeasureRouter("flattened -O1", "ClackRouterFlat", o1_options, trace);
  if (!flat_run) {
    return 1;
  }
  const RouterStats& flat = flat_run->stats;
  PrintRouterRow("flattened -O1", flat);
  std::optional<MeasuredRouter> o2_run =
      MeasureRouter("modular -O2 (image passes)", "ClackRouter", o2_options, trace);
  if (!o2_run) {
    return 1;
  }
  const RouterStats& o2 = o2_run->stats;
  PrintRouterRow("modular -O2 (image passes)", o2);

  KnitcOptions pgo_options = o2_options;
  pgo_options.profile = RoundTripProfile("ClackRouter", o2.profile);
  if (pgo_options.profile == nullptr) {
    return 1;
  }
  std::optional<MeasuredRouter> pgo_run =
      MeasureRouter("modular -O2 + profile (PGO)", "ClackRouter", pgo_options, trace);
  if (!pgo_run) {
    return 1;
  }
  const RouterStats& pgo = pgo_run->stats;
  PrintRouterRow("modular -O2 + profile (PGO)", pgo);

  // Layout and inline order must never change what the router does: the PGO'd
  // image has to transmit byte-identical packets with identical counters.
  if (pgo.tx_hash != o2.tx_hash || pgo.tx_count != o2.tx_count || pgo.out != o2.out ||
      pgo.drop != o2.drop || pgo.ip != o2.ip) {
    std::fprintf(stderr,
                 "PGO changed results: tx %016llx/%u vs %016llx/%u — layout must be "
                 "behavior-neutral\n",
                 static_cast<unsigned long long>(pgo.tx_hash), pgo.tx_count,
                 static_cast<unsigned long long>(o2.tx_hash), o2.tx_count);
    return 1;
  }
  std::printf("  (tx hash %016llx identical across -O2 and PGO: layout is "
              "behavior-neutral)\n",
              static_cast<unsigned long long>(pgo.tx_hash));
  std::printf("  PGO vs plain -O2: %+.1f cycles/pkt, %+.1f stalls/pkt; vs flattened: "
              "%+.1f cycles/pkt\n",
              pgo.CyclesPerPacket() - o2.CyclesPerPacket(),
              pgo.StallsPerPacket() - o2.StallsPerPacket(),
              pgo.CyclesPerPacket() - flat.CyclesPerPacket());
  std::printf("  boundary calls: %lld -O2 -> %lld PGO (flattened: %lld)\n",
              o2.profile.boundary_calls, pgo.profile.boundary_calls,
              flat.profile.boundary_calls);

  // Both counts are modeled and exact, so the PGO win is asserted outright.
  if (pgo.CyclesPerPacket() >= o2.CyclesPerPacket() ||
      pgo.StallsPerPacket() >= o2.StallsPerPacket()) {
    std::fprintf(stderr,
                 "PGO did not beat plain -O2: %.1f vs %.1f cycles/pkt, %.1f vs %.1f "
                 "stalls/pkt\n",
                 pgo.CyclesPerPacket(), o2.CyclesPerPacket(), pgo.StallsPerPacket(),
                 o2.StallsPerPacket());
    return 1;
  }

  std::ofstream out("BENCH_pgo.json", std::ios::trunc);
  if (out) {
    char buffer[2048];
    std::snprintf(buffer, sizeof(buffer),
                  "{\n"
                  "  \"target\": \"ClackRouter\",\n"
                  "  \"packets\": %d,\n"
                  "  \"flattened_cycles\": %lld,\n"
                  "  \"o2_cycles\": %lld,\n"
                  "  \"pgo_cycles\": %lld,\n"
                  "  \"flattened_cycles_per_packet\": %.1f,\n"
                  "  \"o2_cycles_per_packet\": %.1f,\n"
                  "  \"pgo_cycles_per_packet\": %.1f,\n"
                  "  \"o2_stalls_per_packet\": %.1f,\n"
                  "  \"pgo_stalls_per_packet\": %.1f,\n"
                  "  \"o2_text_bytes\": %d,\n"
                  "  \"pgo_text_bytes\": %d,\n"
                  "  \"tx_hash\": \"%016llx\",\n"
                  "  \"tx_hash_equal\": true\n"
                  "}\n",
                  o2.packets, flat.cycles, o2.cycles, pgo.cycles,
                  flat.CyclesPerPacket(), o2.CyclesPerPacket(),
                  pgo.CyclesPerPacket(), o2.StallsPerPacket(), pgo.StallsPerPacket(),
                  o2.text_bytes, pgo.text_bytes,
                  static_cast<unsigned long long>(pgo.tx_hash));
    out << buffer;
    std::printf("\n  pgo report written to BENCH_pgo.json\n");
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace knit

int main() { return knit::Run(); }
