// Ablation: I-cache size sensitivity. The paper worried that flattening-driven
// inlining "would increase the size of the router code, leading to poor I-cache
// performance" and found the opposite. This sweep shows where each configuration's
// stall behaviour sits as the simulated L1I shrinks from "everything fits" to the
// paper's text:cache regime. The last two columns compare the link-time answer
// (-O2 image passes) with its profile-guided form (--profile-use): same image
// contents, but text laid out by recorded hot-path affinity with never-executed
// functions outlined — the layout should matter more the smaller the cache gets.
// The 1024-byte row is Table 1 (bench/table1_clack) plus its PGO row
// (bench/pgo_table1): same trace, same cache.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench/bench_util.h"

namespace knit {
namespace {

int Run() {
  std::vector<TracePacket> trace = RouterTrace();

  // Record the profile that steers the PGO column: one modular -O2 run at the
  // Table-1 cache size, pushed through the on-disk document round trip exactly
  // like a `--profile` / `--profile-use` pair.
  KnitcOptions o2;
  o2.opt_level = 2;
  o2.cache = std::make_shared<BuildCache>();
  std::optional<MeasuredRouter> recorded =
      MeasureRouter("profiling run", "ClackRouter", o2, trace);
  if (!recorded) {
    return 1;
  }
  std::shared_ptr<const LoadedProfile> profile =
      RoundTripProfile("ClackRouter", recorded->stats.profile);
  if (profile == nullptr) {
    return 1;
  }

  std::printf("=== Ablation: I-cache size sweep (stall cycles per packet) ===\n");
  std::printf("  %-10s %16s %16s %16s %16s %16s %16s\n", "L1I bytes", "modular",
              "hand-opt", "flattened", "hand+flat", "mod -O2", "-O2 + PGO");
  struct Column {
    const char* top;
    int opt_level;
    bool use_profile;
  };
  const Column columns[] = {
      {"ClackRouter", 1, false},     {"HandRouter", 1, false},
      {"ClackRouterFlat", 1, false}, {"HandRouterFlat", 1, false},
      {"ClackRouter", 2, false},     {"ClackRouter", 2, true},
  };
  // One artifact cache for the whole sweep: only the simulated cache changes,
  // so every build after the first row is pure artifact-cache hits.
  for (int icache : {8192, 4096, 2048, 1024, 512}) {
    std::printf("  %-10d", icache);
    for (const Column& column : columns) {
      CostModel cost;
      cost.icache_bytes = icache;
      KnitcOptions options;
      options.opt_level = column.opt_level;
      options.cache = o2.cache;
      if (column.use_profile) {
        options.profile = profile;
      }
      std::optional<MeasuredRouter> run =
          MeasureRouter(column.top, column.top, options, trace, cost);
      if (!run) {
        return 1;
      }
      std::printf(" %8.0f st %5.0f", run->stats.CyclesPerPacket(),
                  run->stats.StallsPerPacket());
    }
    std::printf("\n");
  }
  std::printf("\n(cycles | stalls per packet; the paper's regime — text >> L1I — is the "
              "bottom rows)\n\n");
  return 0;
}

}  // namespace
}  // namespace knit

int main() { return knit::Run(); }
