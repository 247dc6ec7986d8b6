// knitbench: the repository benchmark's measuring program (run it through
// knitbench/run.py, which builds it and selects the metrics BENCHMARK.json
// declares).
//
//   knitbench --workload fleet|build|hotswap --seed N --seconds S --trace 0|1
//             [--trace-file PATH] [--tiny] [--perturb-reference]
//
// Prints one JSON record as its last stdout line: host facts, seed, the
// operation tally and every metric it measured. Exits 1 when any output check
// failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "knitbench/activities.h"
#include "knitbench/yardstick.h"
#include "src/support/trace_event.h"

#ifndef KNITBENCH_BUILD_TYPE
#define KNITBENCH_BUILD_TYPE "unknown"
#endif
#ifndef KNITBENCH_COMPILER
#define KNITBENCH_COMPILER "unknown"
#endif

namespace knitbench {
namespace {

// One seeded trace feeds every packet phase: fleet serves, single-session
// feeds and hot-swap episodes (a swap every 25 packets).
constexpr int kTracePackets = 10000;
constexpr int kTinyTracePackets = 1500;
// The timed phase is cut into rounds. Each round sets the workload's own
// activity up afresh, runs it for kMainShare of the round and the other two
// for half the rest each, so all three, and set-up too, see the same spells of
// a machine whose speed drifts. setup_s is the median over the rounds. The
// yardstick runs after every slice and scales the host-time metrics.
constexpr double kRoundSeconds = 2;
constexpr double kMainShare = 0.5;

// The end-to-end host-time metrics, scaled by the yardstick to the reference
// host speed (yardstick.h); `rate` marks a metric where higher is faster.
struct HostTimeMetric {
  const char* name;
  bool rate;
};
constexpr HostTimeMetric kHostTimeMetrics[] = {
    {"setup_s", false},    {"serve_pps", true},     {"build_ms", false},
    {"rebuild_ms", false}, {"swap_pause_ms", false}, {"swap_pause_p90_ms", false},
};

// Scales every host-time metric by the run's median yardstick time and keeps
// the measured value as raw.<name>.
void ScaleHostTimes(const std::vector<double>& yardstick_ms, Metrics& metrics) {
  const double slowdown = Median(yardstick_ms) / kReferenceYardstickMs;
  metrics["host.yardstick_ms"] = {Median(yardstick_ms), "ms"};
  for (const HostTimeMetric& host_time : kHostTimeMetrics) {
    auto found = metrics.find(host_time.name);
    if (found == metrics.end()) {
      continue;
    }
    Metric& metric = found->second;
    metrics["raw." + std::string(host_time.name)] = metric;
    metric.value = host_time.rate ? metric.value * slowdown : metric.value / slowdown;
  }
}

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  bool tiny = false;
  bool perturb_reference = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-file" && has_value) {
      args.trace_file = argv[++i];
    } else if (arg == "--tiny") {
      args.tiny = true;
    } else if (arg == "--perturb-reference") {
      args.perturb_reference = true;
    } else {
      std::fprintf(stderr, "knitbench: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (args.workload != "fleet" && args.workload != "build" && args.workload != "hotswap") {
    std::fprintf(stderr, "knitbench: --workload must be fleet, build or hotswap\n");
    return false;
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "knitbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

std::unique_ptr<Activity> Make(const std::string& name, Context& ctx) {
  if (name == "fleet") {
    return MakeFleet(ctx);
  }
  if (name == "build") {
    return MakeBuild(ctx);
  }
  return MakeHotswap(ctx);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

bool Correct(const Context& ctx) { return ctx.tally.failed == 0 && ctx.tally.errors.empty(); }

std::string Quote(const std::string& text) { return "\"" + knit::JsonEscape(text) + "\""; }

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintRecord(const Args& args, const Context& ctx, const Metrics& metrics) {
  std::string out = "{\"workload\": " + Quote(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"seconds\": " + Number(args.seconds) +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"host\": {\"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"build_type\": " + Quote(KNITBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + Quote(KNITBENCH_COMPILER) + "}" +
                    ", \"correct\": " + (Correct(ctx) ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(ctx.tally.attempted) +
                    ", \"failed\": " + std::to_string(ctx.tally.failed) + ", \"errors\": [";
  for (size_t i = 0; i < ctx.tally.errors.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(ctx.tally.errors[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += (first ? "" : ", ") + Quote(name) + ": {\"value\": " + Number(metric.value) +
           ", \"unit\": " + Quote(metric.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    return 2;
  }
  Context ctx(args.workload);
  ctx.seed = args.seed;
  knit::TraceOptions trace_options;
  trace_options.count = args.tiny ? kTinyTracePackets : kTracePackets;
  trace_options.seed = args.seed;
  ctx.trace = knit::GenerateTrace(trace_options);
  ctx.expected = knit::ExpectationOf(ctx.trace);
  if (args.perturb_reference) {
    ++ctx.expected.in0;  // the gate's own test: a wrong reference must fail the run
  }

  Metrics metrics;
  std::unique_ptr<Activity> main_activity = Make(args.workload, ctx);
  std::vector<std::unique_ptr<Activity>> probes;
  for (const char* name : {"fleet", "build", "hotswap"}) {
    if (args.workload != name) {
      probes.push_back(Make(name, ctx));
    }
  }

  bool ok = ComputeReferenceHash(ctx);
  std::vector<double> setups;
  std::vector<double> yardstick_ms;  // after every slice of every round
  auto set_up = [&] {
    ctx.spans.set_enabled(false);
    const Clock::time_point start = Clock::now();
    ok = ok && main_activity->Setup();
    setups.push_back(SecondsSince(start));
  };
  set_up();
  ok = ok && main_activity->References();
  if (ok) {
    const int rounds =
        std::max(args.trace ? 2 : 1, static_cast<int>(args.seconds / kRoundSeconds + 0.5));
    const double round = args.seconds / rounds;
    std::vector<double> costs[2];  // the main activity's unit cost, untraced and traced
    for (int i = 0; ok && i < rounds; ++i) {
      // Traced runs alternate untraced and traced slices of the main
      // activity; the difference is the tracing overhead.
      const bool traced = args.trace && i % 2 == 1;
      set_up();
      if (!ok) {
        break;
      }
      ctx.spans.set_enabled(traced);
      costs[traced].push_back(main_activity->Run(round * kMainShare));
      if (i == 0) {
        // Read before the probes exist, so the peak RSS is the workload's own.
        metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
        for (const std::unique_ptr<Activity>& probe : probes) {
          ok = ok && probe->Setup() && probe->References();
        }
      }
      ctx.spans.set_enabled(args.trace);
      // After the peak RSS is read: the yardstick holds 8 MB of its own.
      yardstick_ms.push_back(RunYardstickMs());
      for (const std::unique_ptr<Activity>& probe : probes) {
        if (ok) {
          probe->Run(round * (1 - kMainShare) / probes.size());
          yardstick_ms.push_back(RunYardstickMs());
        }
      }
    }
    if (!costs[0].empty() && !costs[1].empty()) {
      const double untraced = Median(costs[0]);
      metrics["bench.trace_overhead_pct"] = {(Median(costs[1]) - untraced) / untraced * 100,
                                             "%"};
    }
  }
  if (!setups.empty()) {
    metrics["setup_s"] = {Median(setups), "s"};
  }
  main_activity->Report(metrics);
  for (const std::unique_ptr<Activity>& probe : probes) {
    probe->Report(metrics);
  }
  if (!yardstick_ms.empty()) {
    ScaleHostTimes(yardstick_ms, metrics);
  }
  if (args.trace) {
    main_activity->ReportLayers(metrics);
    for (const std::unique_ptr<Activity>& probe : probes) {
      probe->ReportLayers(metrics);
    }
    ReportBuildLayers(ctx, metrics);
    if (!args.trace_file.empty()) {
      std::ofstream file(args.trace_file, std::ios::trunc);
      file << ctx.spans.ToChromeTrace();
      if (!file) {
        ctx.tally.Fail(0, "could not write " + args.trace_file);
      }
    }
  }
  metrics["error_rate"] = {
      ctx.tally.attempted == 0 ? 1.0 : double(ctx.tally.failed) / ctx.tally.attempted, "ratio"};
  PrintRecord(args, ctx, metrics);
  return Correct(ctx) ? 0 : 1;
}

}  // namespace
}  // namespace knitbench

int main(int argc, char** argv) { return knitbench::Main(argc, argv); }
