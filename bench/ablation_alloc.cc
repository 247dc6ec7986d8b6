// Allocator ablation: the ClackAllocRouter (classifier -> counter -> strip ->
// payload scratch -> IP check, with the scratch element's malloc/free served by
// a swappable Alloc unit) measured over the full allocator family x opt level
// matrix: {bump, arena, freelist, buddy} x {-O0, -O1, -O2, -O2+PGO}.
//
// Two claims are on trial:
//   * swapping the allocator is behavior-neutral — every cell of the matrix
//     must transmit byte-identical packets (one tx hash for all 16 builds);
//   * the component boundary around the heap is free at -O2 — cross-unit
//     inlining devirtualizes the malloc/free calls into the scratch element,
//     so the allocator choice shows up as algorithmic cost only (the
//     "cross-inline win" column is the -O1 -> -O2 drop per allocator).
//
// Writes the matrix to BENCH_alloc.json.
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/oskit/alloc_corpus.h"

namespace knit {
namespace {

const char* kTop = "ClackAllocRouter";

struct AllocRow {
  std::string name;       // CLI short name
  std::string unit;       // Alloc-family unit name
  RouterStats o0, o1, o2, pgo;
};

int Run() {
  std::vector<TracePacket> trace = RouterTrace();
  auto cache = std::make_shared<BuildCache>();

  std::printf("=== Allocator ablation: %s x {-O0, -O1, -O2, -O2+PGO} ===\n",
              AllocShortNameList().c_str());
  std::printf("  %-9s %10s %10s %10s %10s %12s %10s\n", "allocator", "-O0", "-O1", "-O2",
              "-O2+PGO", "inline win", "bytes/pkt");

  std::vector<AllocRow> rows;
  uint64_t tx_hash = 0;
  bool tx_hash_set = false;
  bool tx_hash_equal = true;
  for (const char* name : {"bump", "arena", "freelist", "buddy"}) {
    AllocRow row;
    row.name = name;
    row.unit = AllocUnitForShortName(name);
    std::string knit_text = ClackKnit();
    if (RewriteAllocProvider(knit_text, row.unit) != 1) {
      std::fprintf(stderr, "expected exactly one Alloc provider site in ClackKnit\n");
      return 1;
    }
    // Each cell keeps only its stats; the program it ran on is dropped here.
    auto measure = [&](const char* suffix, int opt_level,
                       std::shared_ptr<const LoadedProfile> profile, RouterStats& cell) {
      KnitcOptions options;
      options.opt_level = opt_level;
      options.profile = std::move(profile);
      options.cache = cache;
      std::optional<MeasuredRouter> run = MeasureRouter(row.name + suffix, kTop, options, trace,
                                                        RouterCostModel(), knit_text);
      if (run) {
        cell = std::move(run->stats);
      }
      return run.has_value();
    };
    if (!measure(" -O0", 0, nullptr, row.o0) || !measure(" -O1", 1, nullptr, row.o1) ||
        !measure(" -O2", 2, nullptr, row.o2)) {
      return 1;
    }
    std::shared_ptr<const LoadedProfile> profile =
        RoundTripProfile(kTop, row.o2.profile, knit_text);
    if (profile == nullptr || !measure(" PGO", 2, profile, row.pgo)) {
      return 1;
    }
    // One behaviour across the whole matrix: the scratch element forwards the
    // original packet whatever the heap does, so all 16 builds share a hash.
    for (const RouterStats* cell : {&row.o0, &row.o1, &row.o2, &row.pgo}) {
      if (!tx_hash_set) {
        tx_hash = cell->tx_hash;
        tx_hash_set = true;
      } else if (cell->tx_hash != tx_hash) {
        tx_hash_equal = false;
      }
    }
    std::printf("  %-9s %10.0f %10.0f %10.0f %10.0f %12.0f %10.1f\n", name,
                row.o0.CyclesPerPacket(), row.o1.CyclesPerPacket(),
                row.o2.CyclesPerPacket(), row.pgo.CyclesPerPacket(),
                row.o1.CyclesPerPacket() - row.o2.CyclesPerPacket(),
                row.o2.packets > 0 ? static_cast<double>(row.o2.profile.total_bytes_alloc) /
                                         row.o2.packets
                                   : 0.0);
    rows.push_back(std::move(row));
  }

  if (!tx_hash_equal) {
    std::fprintf(stderr,
                 "allocator or opt level changed the tx stream — the swap must be "
                 "behavior-neutral\n");
    return 1;
  }
  std::printf("  (tx hash %016llx identical across all %zu builds)\n",
              static_cast<unsigned long long>(tx_hash), rows.size() * 4);
  std::printf("  boundary calls at -O1 -> -O2: ");
  for (const AllocRow& row : rows) {
    std::printf("%s %lld->%lld  ", row.name.c_str(), row.o1.profile.boundary_calls,
                row.o2.profile.boundary_calls);
  }
  std::printf("\n");

  std::ofstream out("BENCH_alloc.json", std::ios::trunc);
  if (out) {
    char buffer[2048];
    std::snprintf(buffer, sizeof(buffer),
                  "{\n"
                  "  \"target\": \"%s\",\n"
                  "  \"packets\": %d,\n"
                  "  \"tx_hash\": \"%016llx\",\n"
                  "  \"tx_hash_equal\": true,\n"
                  "  \"allocators\": [\n",
                  kTop, rows[0].o2.packets, static_cast<unsigned long long>(tx_hash));
    out << buffer;
    for (size_t i = 0; i < rows.size(); ++i) {
      const AllocRow& row = rows[i];
      std::snprintf(
          buffer, sizeof(buffer),
          "    {\"name\": \"%s\", \"unit\": \"%s\",\n"
          "     \"o0_cycles_per_packet\": %.1f, \"o1_cycles_per_packet\": %.1f,\n"
          "     \"o2_cycles_per_packet\": %.1f, \"pgo_cycles_per_packet\": %.1f,\n"
          "     \"cross_inline_win_cycles_per_packet\": %.1f,\n"
          "     \"o1_boundary_calls\": %lld, \"o2_boundary_calls\": %lld,\n"
          "     \"o2_text_bytes\": %d, \"bytes_alloc_per_packet\": %.1f}%s\n",
          row.name.c_str(), row.unit.c_str(), row.o0.CyclesPerPacket(),
          row.o1.CyclesPerPacket(), row.o2.CyclesPerPacket(), row.pgo.CyclesPerPacket(),
          row.o1.CyclesPerPacket() - row.o2.CyclesPerPacket(),
          row.o1.profile.boundary_calls, row.o2.profile.boundary_calls, row.o2.text_bytes,
          row.o2.packets > 0
              ? static_cast<double>(row.o2.profile.total_bytes_alloc) / row.o2.packets
              : 0.0,
          i + 1 < rows.size() ? "," : "");
      out << buffer;
    }
    out << "  ]\n}\n";
    std::printf("  allocator matrix written to BENCH_alloc.json\n");
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace knit

int main() { return knit::Run(); }
