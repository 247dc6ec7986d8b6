// Architectural constraint checking (paper section 4): "we have used Knit to check
// that code executing without a process context will never call code that requires
// a process context."
//
// Builds two kernels: one where an interrupt handler prints through an
// interrupt-safe console (passes), and one where the console takes pthread locks
// (the checker rejects the configuration before anything is compiled or run).
//
// Run: ./build/examples/kernel_constraints
#include <cstdio>

#include "src/driver/knitc.h"
#include "src/oskit/corpus.h"
#include "src/support/mangle.h"
#include "src/vm/machine.h"

using namespace knit;

int main() {
  std::printf("property context { ProcessContext < NoContext }\n");
  std::printf("  pthread_lock is annotated context = ProcessContext\n");
  std::printf("  the interrupt handler requires NoContext from everything it calls\n");
  std::printf("  wrapper units declare context(exports) <= context(imports)\n\n");

  // Good configuration: IntrHandler -> VgaConsole (NoContext).
  {
    Diagnostics diags;
    KnitcOptions options;
    Result<KnitBuildResult> build =
        KnitBuild(OskitKnit(), OskitSources(), "IntrKernelGood", options, diags);
    if (!build.ok()) {
      std::fprintf(stderr, "unexpected failure:\n%s", diags.ToString().c_str());
      return 1;
    }
    std::printf("IntrKernelGood (handler -> VgaConsole): builds cleanly\n");
    Machine machine(build.value().image);
    machine.BindNative(EnvSymbol("raw", "raw_putc"),
                       [](Machine&, std::span<const uint32_t> args) {
                         if (!args.empty()) {
                           std::fputc(static_cast<char>(args[0] & 0xFF), stdout);
                         }
                         return 0u;
                       });
    machine.Call(build.value().init_function);
    std::printf("  simulated interrupt: ");
    machine.Call(build.value().ExportedSymbol("intr", "intr_tick"));
  }

  // Buggy configuration: IntrHandler -> LockedConsole -> PThreadLock. Driving the
  // staged pipeline makes the claim in the header comment literal: the checker
  // rejects the configuration at the Check stage, before Compile ever runs.
  {
    Diagnostics diags;
    KnitPipeline pipeline;
    Result<ParsedProgram> parsed = pipeline.Parse(OskitKnit(), diags);
    Result<ElaboratedConfig> elaborated =
        pipeline.Elaborate(parsed.value(), "IntrKernelBad", diags);
    Result<ScheduledConfig> scheduled = pipeline.Schedule(elaborated.value(), diags);
    Result<CheckedConfig> checked = pipeline.Check(scheduled.value(), diags);
    std::printf("\nIntrKernelBad (handler -> LockedConsole -> pthread locks):\n");
    if (checked.ok()) {
      std::fprintf(stderr, "  UNEXPECTED: buggy configuration accepted!\n");
      return 1;
    }
    std::printf("  rejected by the constraint checker (no unit was compiled):\n");
    for (const Diagnostic& diagnostic : diags.entries()) {
      std::printf("    %s\n", diagnostic.ToString().c_str());
    }
  }

  // The same bug ships if checking is turned off — the paper's motivation.
  {
    Diagnostics diags;
    KnitcOptions options;
    options.check_constraints = false;
    Result<KnitBuildResult> build =
        KnitBuild(OskitKnit(), OskitSources(), "IntrKernelBad", options, diags);
    std::printf("\nwith --no-check the same configuration builds: %s\n",
                build.ok() ? "yes (and would deadlock in the field)" : "no");
  }
  return 0;
}
