// Regenerates the paper's section-6 build-time observation: "Our prototype
// implementation is acceptably fast — more than 95% of build time is spent in the
// C compiler and linker — although constraint-checking more than doubles the time
// taken to run Knit."
//
// One cold build of ClackRouter, split by pipeline stage into Knit proper and
// the "C compiler and linker". The shares are host time and vary from run to
// run; the cold-corpus and warm-rebuild timings, scaled for host speed, are
// knitbench's `build` workload. The report is also written to BENCH_build.json.
#include <cstdio>
#include <fstream>

#include "src/clack/corpus.h"
#include "src/driver/knitc.h"

namespace knit {
namespace {

int Run() {
  Diagnostics diags;
  KnitPipeline pipeline{KnitcOptions{}};
  if (!pipeline.Build(ClackKnit(), ClackSources(), "ClackRouter", diags).ok()) {
    std::fprintf(stderr, "build failed for ClackRouter:\n%s", diags.ToString().c_str());
    return 1;
  }
  const PipelineMetrics& cold = pipeline.metrics();
  double knit_proper = cold.StageSeconds("parse") + cold.StageSeconds("elaborate") +
                       cold.StageSeconds("schedule") + cold.StageSeconds("check") +
                       cold.StageSeconds("objcopy") + cold.StageSeconds("init-object");
  double compiler = cold.StageSeconds("compile") + cold.StageSeconds("link");
  double total = knit_proper + compiler;
  std::printf("=== Build-time phase breakdown (ClackRouter; paper: >95%% in the C "
              "compiler/linker) ===\n");
  std::printf("  knit front end + schedule + constraints + objcopy: %7.3f ms (%4.1f%%)\n",
              knit_proper * 1e3, 100.0 * knit_proper / total);
  std::printf("  'C compiler' (MiniC+codegen+optimizer) and linker:  %7.3f ms (%4.1f%%)\n",
              compiler * 1e3, 100.0 * compiler / total);
  std::printf("  constraint checking alone:                          %7.3f ms\n",
              cold.StageSeconds("check") * 1e3);

  std::ofstream out("BENCH_build.json", std::ios::trunc);
  if (out) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "{\n"
                  "  \"target\": \"ClackRouter\",\n"
                  "  \"knit_proper_seconds\": %.6f,\n"
                  "  \"compiler_linker_seconds\": %.6f,\n"
                  "  \"check_seconds\": %.6f\n"
                  "}\n",
                  knit_proper, compiler, cold.StageSeconds("check"));
    out << buffer;
    std::printf("\nwrote BENCH_build.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace knit

int main() { return knit::Run(); }
