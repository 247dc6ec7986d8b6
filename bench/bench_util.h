// Shared helpers for the experiment harnesses. Each bench binary regenerates one
// of the paper's tables/figures and prints paper-reported values next to measured
// ones (absolute numbers come from a simulated machine; shapes are the claim).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/clack/trace.h"
#include "src/vm/profile_trace.h"

namespace knit {

// The Table-1/2 machine: the paper's Pentium Pro had an 8 KB L1I covering a 109 KB
// kernel text (~1:14). Our router images are ~6 KB, so the router experiments scale
// the simulated L1I to 1 KB to preserve the text:cache ratio; everything else uses
// the default cost model.
inline CostModel RouterCostModel() {
  CostModel cost;
  cost.icache_bytes = 1024;
  return cost;
}

inline std::vector<TracePacket> RouterTrace(int count = 1000) {
  TraceOptions options;
  options.count = count;
  return GenerateTrace(options);
}

inline std::map<std::string, std::string> ClickEntryNames() {
  return {
      {"in0", "click_in0"},           {"in1", "click_in1"},
      {"statsIn0", "click_stats_in0"}, {"statsIn1", "click_stats_in1"},
      {"statsIp", "click_stats_ip"},   {"statsOut", "click_stats_out"},
      {"statsDrop", "click_stats_drop"},
  };
}

inline void PrintRouterRow(const char* label, const RouterStats& stats) {
  std::printf("  %-28s %10.0f %14.0f %12d\n", label, stats.CyclesPerPacket(),
              stats.StallsPerPacket(), stats.text_bytes);
}

// A router built and run once by MeasureRouter. The program stays live so a
// bench can keep driving the same machine (swap_latency hot-swaps it).
struct MeasuredRouter {
  RouterProgram program;
  RouterStats stats;  // the one run, with its component profile
};

// Builds `top` from `knit_text` over the Clack sources with `options`, turns
// the component profiler on (attribution never changes a modeled count) and
// runs `trace`. On failure prints the diagnostics under `label` and returns
// nullopt.
inline std::optional<MeasuredRouter> MeasureRouter(const std::string& label,
                                                   const std::string& top,
                                                   const KnitcOptions& options,
                                                   const std::vector<TracePacket>& trace,
                                                   const CostModel& cost = RouterCostModel(),
                                                   const std::string& knit_text = ClackKnit()) {
  Diagnostics diags;
  KnitPipeline pipeline(options);
  Result<RouterProgram> program =
      RouterProgram::FromKnit(pipeline, knit_text, ClackSources(), top, diags, cost);
  if (!program.ok()) {
    std::fprintf(stderr, "build failed for %s:\n%s", label.c_str(), diags.ToString().c_str());
    return std::nullopt;
  }
  program.value().EnableProfiling();
  Result<RouterStats> stats = program.value().RunTrace(trace, diags);
  if (!stats.ok()) {
    std::fprintf(stderr, "run failed for %s:\n%s", label.c_str(), diags.ToString().c_str());
    return std::nullopt;
  }
  return MeasuredRouter{program.take(), stats.take()};
}

// Stamps a profile recorded on the -O2 build of `top` with its recording
// context and pushes it through the on-disk document format and back: exactly
// what a `knitc --profile=FILE` / `--profile-use=FILE` pair does, so a PGO
// build is steered by what a user's would be. Returns null (diagnostics
// printed) on failure.
inline std::shared_ptr<const LoadedProfile> RoundTripProfile(
    const std::string& top, const ComponentProfile& recorded,
    const std::string& knit_text = ClackKnit()) {
  Diagnostics diags;
  KnitPipeline pipeline{KnitcOptions{}};
  Result<ParsedProgram> parsed = pipeline.Parse(knit_text, diags);
  Result<ElaboratedConfig> elaborated = parsed.ok()
                                            ? pipeline.Elaborate(parsed.value(), top, diags)
                                            : Result<ElaboratedConfig>::Failure();
  if (!elaborated.ok()) {
    std::fprintf(stderr, "elaborating %s failed:\n%s", top.c_str(), diags.ToString().c_str());
    return nullptr;
  }
  std::string document =
      SerializeComponentProfile(recorded, MakeProfileMeta(elaborated.value(), 2), top);
  Result<LoadedProfile> loaded = ParseComponentProfile(document, diags);
  if (!loaded.ok()) {
    std::fprintf(stderr, "profile round trip failed for %s:\n%s", top.c_str(),
                 diags.ToString().c_str());
    return nullptr;
  }
  return std::make_shared<const LoadedProfile>(loaded.take());
}

}  // namespace knit

#endif  // BENCH_BENCH_UTIL_H_
