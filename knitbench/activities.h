// The three activities a knitc user runs — serve a fleet, build the corpus,
// hot-swap under traffic. Each workload gives half of its timed phase to one of
// them and interleaves the other two as probes, so every run prints every
// end-to-end metric (see NOTES.md).
//
// Every activity checks its outputs against references the code under test
// does not produce: the trace generator's own expectation, an -O0 single
// machine's tx hash, and --jobs=1 image fingerprints.
#ifndef KNITBENCH_ACTIVITIES_H_
#define KNITBENCH_ACTIVITIES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "knitbench/spans.h"
#include "src/clack/trace.h"
#include "src/vm/machine.h"

namespace knitbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Operations attempted and failed (packets, builds, swaps), with the reason of
// every failure. A failed output check fails every operation it covers.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;

  void Fail(long long ops, const std::string& why);
};

// Build-stage counters read from PipelineMetrics while tracing is on, so they
// describe the same builds as the stage spans.
struct BuildLayers {
  int builds = 0;
  double objcopy_seconds = 0;
  long long compile_tasks = 0;
  int compile_threads = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
};

// Everything an activity shares with the rest of the run.
struct Context {
  explicit Context(const std::string& workload) : spans(workload) {}

  uint32_t seed = 0;
  std::vector<knit::TracePacket> trace;  // the seeded trace every packet phase replays
  knit::TraceExpectation expected;       // ExpectationOf(trace)
  uint64_t reference_tx_hash = 0;        // -O0 single machine over `trace`

  SpanLog spans;
  Tally tally;
  BuildLayers build_layers;
};

// 0 for no values.
double Median(std::vector<double> values);

// The Table-1 machine: the paper's 8 KB L1I held ~1/14 of its kernel text, so
// the ~6 KB router images run against a 1 KB L1I to keep that ratio.
knit::CostModel RouterCostModel();

// Fills ctx.reference_tx_hash from an -O0 single-machine run of ctx.trace.
bool ComputeReferenceHash(Context& ctx);

class Activity {
 public:
  Activity() = default;
  Activity(const Activity&) = delete;
  Activity& operator=(const Activity&) = delete;
  virtual ~Activity() = default;

  // The program calls that prepare the timed phase. Re-runnable: each call
  // starts from scratch.
  virtual bool Setup() = 0;

  // Untimed references this activity checks against (after Setup).
  virtual bool References() { return true; }

  // Runs units of work until `seconds` have passed (at least one unit),
  // checking every output. Returns the median host cost of one unit of this
  // call (seconds per packet, or per corpus pass), for the tracing overhead.
  virtual double Run(double seconds) = 0;

  // End-to-end metrics measured by every Run so far. Only fills names that
  // are still absent, so the workload's own activity wins.
  virtual void Report(Metrics& metrics) const = 0;

  // Per-layer metrics (traced runs), including calls timed alone here.
  virtual void ReportLayers(Metrics& metrics) = 0;
};

std::unique_ptr<Activity> MakeFleet(Context& ctx);
std::unique_ptr<Activity> MakeBuild(Context& ctx);
std::unique_ptr<Activity> MakeHotswap(Context& ctx);

// Per-layer metrics derived from the stage spans and ctx.build_layers.
void ReportBuildLayers(const Context& ctx, Metrics& metrics);

}  // namespace knitbench

#endif  // KNITBENCH_ACTIVITIES_H_
