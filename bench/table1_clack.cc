// Regenerates Table 1: "Clack router performance using various optimizations,
// measured in number of cycles from the moment a packet enters the router graph to
// the moment it leaves."
//
// Paper (Pentium Pro 200 MHz, gcc 2.95.2):
//   hand-opt  flattened    cycles   i-fetch stalls   text (bytes)
//      -          -         2411        781            109,464
//      x          -         1897        637            108,246
//      -          x         1574        455            106,065
//      x          x         1457        361            106,305
//
// Shape claims this reproduction checks: componentization has significant cost
// (hand-optimizing the 24-component router into 2 components helps ~20%);
// flattening the modular router helps without hurting the I-cache (stalls go DOWN
// and text does not grow); combining both adds little on top of the larger
// effect — both optimizations mine the same overhead.
//
// With --profile[=FILE], the same runs are re-attributed per component (see
// ComponentProfile): the per-component cycle tables for the modular and flattened
// routers are printed, the boundary edges that flattening eliminated are listed,
// and all four timelines are written as Chrome trace-event JSON (default
// table1_profile.json; open in Perfetto or chrome://tracing). EXPERIMENTS.md's
// "per-component breakdown" section is regenerated from this output.
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>

#include "bench/bench_util.h"

namespace knit {
namespace {

// Drops the top-unit segment ("ClackRouter/Lookup#0" -> "Lookup#0") so component
// paths from different top-level configurations compare; pseudo-components
// ("<env>", "<init>") pass through unchanged.
std::string StripTop(const std::string& path) {
  size_t slash = path.find('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int Run(int argc, char** argv) {
  bool profile = false;
  std::string profile_path = "table1_profile.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--profile") {
      profile = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile = true;
      profile_path = arg.substr(std::string("--profile=").size());
    } else {
      std::fprintf(stderr, "usage: table1_clack [--profile[=FILE]]\n");
      return 2;
    }
  }

  std::vector<TracePacket> trace = RouterTrace();
  std::printf("=== Table 1: Clack router performance (paper section 6) ===\n");
  std::printf("trace: %zu packets (2 ports; IPv4 forward + ARP + drops)\n\n", trace.size());
  std::printf("  paper:   base 2411cy/781st/109464B | hand 1897/637 | flat 1574/455 | "
              "both 1457/361\n\n");
  std::printf("  %-28s %10s %14s %12s\n", "configuration", "cycles/pkt", "ifetch-stall",
              "text bytes");

  struct Row {
    const char* label;
    const char* top;
    int opt_level;
  };
  const Row rows[] = {
      {"modular (24 components)", "ClackRouter", 1},
      {"hand-optimized (2 comps)", "HandRouter", 1},
      {"flattened", "ClackRouterFlat", 1},
      {"hand-optimized + flattened", "HandRouterFlat", 1},
      // The link-time answer to flattening: same modular sources, but the -O2
      // image passes inline across the resolved component bindings.
      {"modular -O2 (image passes)", "ClackRouter", 2},
  };
  // One artifact cache across the four builds: a unit compiled for the modular
  // router is reused (pre-objcopy) by every later configuration that keeps it.
  KnitcOptions options;
  options.cache = std::make_shared<BuildCache>();
  double base_cycles = 0;
  std::vector<RouterStats> measured;
  for (const Row& row : rows) {
    KnitcOptions row_options = options;
    row_options.opt_level = row.opt_level;
    std::optional<MeasuredRouter> run = MeasureRouter(row.label, row.top, row_options, trace);
    if (!run) {
      return 1;
    }
    const RouterStats& stats = run->stats;
    PrintRouterRow(row.label, stats);
    if (base_cycles == 0) {
      base_cycles = stats.CyclesPerPacket();
    } else {
      std::printf("  %-28s %9.1f%%\n", "  improvement vs modular",
                  100.0 * (1.0 - stats.CyclesPerPacket() / base_cycles));
    }
    measured.push_back(std::move(run->stats));
  }
  std::printf("\n(all four configurations transmit byte-identical packets; "
              "see tests/clack_test.cc)\n\n");

  if (!profile) {
    return 0;
  }

  // ---- per-component attribution (--profile) ---------------------------------
  std::printf("=== Per-component attribution (1000-packet window) ===\n");
  for (size_t i = 0; i < measured.size(); ++i) {
    const RouterStats& stats = measured[i];
    if (stats.profile.total_cycles != stats.cycles ||
        stats.profile.total_ifetch_stalls != stats.ifetch_stalls) {
      std::fprintf(stderr,
                   "attribution mismatch for %s: profile %lld cycles vs measured %lld\n",
                   rows[i].label, stats.profile.total_cycles, stats.cycles);
      return 1;
    }
  }
  std::printf("(per-component sums equal the Table 1 cycle/stall totals exactly, all four "
              "configurations)\n");
  for (size_t i : {size_t{0}, size_t{2}}) {  // modular and flattened
    std::printf("\n%s [%s]:\n%s", rows[i].label, rows[i].top,
                measured[i].profile.ToText(5).c_str());
  }

  // Boundary edges the flattened build no longer crosses: compare edge sets with
  // the top-unit prefix stripped. Edges that survive flattening are cross-member
  // calls the optimizer chose not to inline.
  const ComponentProfile& modular = measured[0].profile;
  const ComponentProfile& flat = measured[2].profile;
  std::set<std::pair<std::string, std::string>> flat_edges;
  for (const BoundaryEdge& edge : flat.edges) {
    if (edge.caller != edge.callee) {
      flat_edges.insert({StripTop(edge.caller), StripTop(edge.callee)});
    }
  }
  std::printf("\ntop boundary edges eliminated by flattening (modular -> flat):\n");
  int shown = 0;
  long long eliminated_calls = 0;
  for (const BoundaryEdge& edge : modular.edges) {  // already calls-descending
    if (edge.caller == edge.callee) {
      continue;
    }
    if (flat_edges.count({StripTop(edge.caller), StripTop(edge.callee)})) {
      continue;  // still crossed after flattening
    }
    eliminated_calls += edge.calls;
    if (shown < 5) {
      std::printf("  %-30s -> %-30s %10lld calls\n", edge.caller.c_str(),
                  edge.callee.c_str(), edge.calls);
      ++shown;
    }
  }
  std::printf("boundary calls: %lld modular -> %lld flattened (%lld eliminated across all "
              "edges)\n",
              modular.boundary_calls, flat.boundary_calls, eliminated_calls);

  // The -O2 image passes attack the same boundary calls without touching the
  // sources: report how much of the modular-vs-flattened gap they close.
  const ComponentProfile& lto = measured[4].profile;
  long long gap = modular.boundary_calls - flat.boundary_calls;
  long long closed = modular.boundary_calls - lto.boundary_calls;
  std::printf("boundary calls: %lld modular -> %lld modular -O2 (closes %.1f%% of the "
              "modular-vs-flattened gap)\n",
              modular.boundary_calls, lto.boundary_calls,
              gap > 0 ? 100.0 * static_cast<double>(closed) / static_cast<double>(gap) : 0.0);

  // All four timelines in one trace document, one process track per row.
  TraceEventLog log;
  for (size_t i = 0; i < measured.size(); ++i) {
    int pid = static_cast<int>(i) + 1;
    log.NameProcess(pid, std::string(rows[i].label) + " [" + rows[i].top + "]");
    AppendComponentProfileTrace(measured[i].profile, rows[i].top, log, pid, 1);
  }
  std::ofstream out(profile_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", profile_path.c_str());
    return 1;
  }
  out << log.ToJson();
  std::printf("\nprofile trace written to %s (open in Perfetto or chrome://tracing)\n",
              profile_path.c_str());
  return 0;
}

}  // namespace
}  // namespace knit

int main(int argc, char** argv) { return knit::Run(argc, argv); }
