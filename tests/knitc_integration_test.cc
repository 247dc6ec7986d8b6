// Whole-pipeline integration tests: the mini-OSKit corpus built by knitc and run
// on the VM. These exercise the paper's headline scenarios end to end: the Figure
// 5/6 web-server example, interposition, component swapping, multiple
// instantiation, initializer scheduling (including cycles), constraint checking,
// and flattening equivalence.
#include <gtest/gtest.h>

#include <algorithm>

#include "tests/knit_testutil.h"

namespace knit {
namespace {

// Convenience: call the exported kprintf with a format + args.
uint32_t Kprintf(KernelProgram& program, const std::string& fmt,
                 std::vector<uint32_t> args = {}) {
  uint32_t fmt_addr = WriteString(*program.machine, fmt);
  std::vector<uint32_t> all{fmt_addr};
  for (uint32_t a : args) {
    all.push_back(a);
  }
  return program.CallExport("printf", "kprintf", all);
}

TEST(KnitcIntegration, HelloKernelPrints) {
  KernelProgram program = BuildKernel("HelloKernel");
  ASSERT_TRUE(program.ok()) << program.error;
  program.Init();
  Kprintf(program, "hello %s %d 0x%x\n",
          {WriteString(*program.machine, "knit"), static_cast<uint32_t>(-5), 0xbeefu});
  EXPECT_EQ(program.machine->console(), "hello knit -5 0xbeef\n");
  program.Fini();
}

TEST(KnitcIntegration, InterpositionPrefixesOutput) {
  KernelProgram program = BuildKernel("PrefixedHelloKernel");
  ASSERT_TRUE(program.ok()) << program.error;
  program.Init();
  Kprintf(program, "boot\nok\n");
  EXPECT_EQ(program.machine->console(), "[k] boot\n[k] ok\n");
}

TEST(KnitcIntegration, ComponentSwapSerialConsole) {
  // Same kernel shape, different console supplier (the unit renames
  // serial_putchar to the generic console interface — the paper's example).
  KernelProgram program = BuildKernel("SerialHelloKernel");
  ASSERT_TRUE(program.ok()) << program.error;
  program.Init();
  Kprintf(program, "via serial\n");
  EXPECT_EQ(program.machine->console(), "via serial\n");
}

// Drives the Figure 5/6 web server: create a file, serve it, serve a CGI path,
// and check the log written through the interposed Log unit.
void RunWebScenario(KernelProgram& program, long long* cycles_out = nullptr) {
  program.Init();

  // Create "/index.html" through the exported file system.
  uint32_t path = WriteString(*program.machine, "/index.html");
  uint32_t fd = program.CallExport("fs", "fs_open", {path, 1});
  std::string content = "<html>knit</html>";
  uint32_t buf = WriteString(*program.machine, content);
  program.CallExport("fs", "fs_write", {fd, 0, buf, static_cast<uint32_t>(content.size())});

  program.machine->ClearConsole();
  program.machine->ResetCounters();

  uint32_t served = program.CallExport("serve", "serve_web", {7, path});
  EXPECT_EQ(served, content.size());

  uint32_t cgi_path = WriteString(*program.machine, "/cgi-bin/stats");
  program.CallExport("serve", "serve_web", {7, cgi_path});

  uint32_t missing = WriteString(*program.machine, "/no-such-file");
  uint32_t miss = program.CallExport("serve", "serve_web", {7, missing});
  EXPECT_EQ(miss, static_cast<uint32_t>(-1));

  if (cycles_out != nullptr) {
    *cycles_out = program.machine->cycles();
  }

  EXPECT_NE(program.machine->console().find("200 /index.html (17 bytes)"), std::string::npos)
      << program.machine->console();
  EXPECT_NE(program.machine->console().find("cgi stats ->"), std::string::npos)
      << program.machine->console();
  EXPECT_NE(program.machine->console().find("404 /no-such-file"), std::string::npos)
      << program.machine->console();

  program.Fini();

  // The Log unit wrote "ServerLog" through stdio -> memfs; read it back.
  uint32_t log_path = WriteString(*program.machine, "ServerLog");
  uint32_t log_fd = program.CallExport("fs", "fs_open", {log_path, 0});
  ASSERT_NE(log_fd, static_cast<uint32_t>(-1));
  uint32_t size = program.CallExport("fs", "fs_size", {log_fd});
  ASSERT_GT(size, 0u);
  uint32_t read_buf = program.machine->Sbrk(size + 1);
  program.CallExport("fs", "fs_read", {log_fd, 0, read_buf, size});
  std::string log = program.machine->ReadCString(read_buf, size);
  EXPECT_NE(log.find("/index.html -> 17"), std::string::npos) << log;
  EXPECT_NE(log.find("/cgi-bin/stats ->"), std::string::npos) << log;
  EXPECT_NE(log.find("/no-such-file -> -1"), std::string::npos) << log;
}

TEST(KnitcIntegration, WebKernelEndToEnd) {
  KernelProgram program = BuildKernel("WebKernel");
  ASSERT_TRUE(program.ok()) << program.error;
  RunWebScenario(program);
}

TEST(KnitcIntegration, FlattenedWebKernelBehavesIdentically) {
  KernelProgram modular = BuildKernel("WebKernel");
  KernelProgram flattened = BuildKernel("WebKernelFlat");
  ASSERT_TRUE(modular.ok()) << modular.error;
  ASSERT_TRUE(flattened.ok()) << flattened.error;

  long long modular_cycles = 0;
  long long flattened_cycles = 0;
  RunWebScenario(modular, &modular_cycles);
  RunWebScenario(flattened, &flattened_cycles);

  EXPECT_EQ(modular.machine->console(), flattened.machine->console());
  // Cross-component inlining must help on this call-chain-heavy path.
  EXPECT_LT(flattened_cycles, modular_cycles);
  // And the flattened image collapses into fewer objects.
  EXPECT_EQ(flattened.build->stats.flatten_group_count, 1);
}

TEST(KnitcIntegration, InitializerOrderRespectsNeeds) {
  KernelProgram program = BuildKernel("WebKernel");
  ASSERT_TRUE(program.ok()) << program.error;
  const Schedule& schedule = program.build->schedule;

  auto position = [&](const std::string& function) {
    for (size_t i = 0; i < schedule.initializers.size(); ++i) {
      if (schedule.initializers[i].function == function) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  int malloc_init = position("malloc_init");
  int fs_init = position("fs_init");
  int stdio_init = position("stdio_init");
  int open_log = position("open_log");
  ASSERT_GE(malloc_init, 0);
  ASSERT_GE(fs_init, 0);
  ASSERT_GE(stdio_init, 0);
  ASSERT_GE(open_log, 0);
  // open_log needs stdio; stdio usability needs stdio_init, fs_init, malloc_init.
  EXPECT_GT(open_log, stdio_init);
  EXPECT_GT(open_log, fs_init);
  EXPECT_GT(open_log, malloc_init);

  // Finalizers: close_log must run while stdio is still usable, i.e. first.
  ASSERT_FALSE(schedule.finalizers.empty());
  EXPECT_EQ(schedule.finalizers[0].function, "close_log");
}

TEST(KnitcIntegration, MultipleInstantiationIsolatesState) {
  KernelProgram program = BuildKernel("TwoPoolsKernel");
  ASSERT_TRUE(program.ok()) << program.error;
  program.Init();

  uint32_t path = WriteString(*program.machine, "only-in-a");
  uint32_t fd_a = program.CallExport("fsA", "fs_open", {path, 1});
  EXPECT_NE(fd_a, static_cast<uint32_t>(-1));

  // The second MemFs instance has its own file table: the file must not exist.
  uint32_t fd_b = program.CallExport("fsB", "fs_open", {path, 0});
  EXPECT_EQ(fd_b, static_cast<uint32_t>(-1));
}

TEST(KnitcIntegration, CyclicImportsScheduleWithFineGrainedDeps) {
  KernelProgram program = BuildKernel("CyclicGoodKernel");
  ASSERT_TRUE(program.ok()) << program.error;
  program.Init();
  EXPECT_EQ(program.CallExport("ping", "ping_step", {5}), 5u);
}

TEST(KnitcIntegration, CyclicInitializersAreRejectedWithoutFineGrainedDeps) {
  KernelProgram program = BuildKernel("CyclicBadKernel");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.error.find("cycle"), std::string::npos) << program.error;
}

TEST(KnitcIntegration, ConstraintCheckerAcceptsInterruptSafeConsole) {
  KernelProgram program = BuildKernel("IntrKernelGood");
  ASSERT_TRUE(program.ok()) << program.error;
  program.Init();
  program.CallExport("intr", "intr_tick");
  EXPECT_EQ(program.machine->console(), "tick\n");
}

TEST(KnitcIntegration, ConstraintCheckerCatchesProcessContextInInterrupt) {
  // The paper's section-4 scenario: interrupt-context code reaching code that
  // takes process-context locks is a configuration error caught statically.
  KernelProgram program = BuildKernel("IntrKernelBad");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.error.find("context"), std::string::npos) << program.error;
}

TEST(KnitcIntegration, ConstraintCheckingCanBeDisabled) {
  KnitcOptions options;
  options.check_constraints = false;
  KernelProgram program = BuildKernel("IntrKernelBad", options);
  // Without the checker the (buggy) configuration builds — exactly the failure
  // mode the paper's checker exists to prevent.
  EXPECT_TRUE(program.ok()) << program.error;
}

TEST(KnitcIntegration, FlattenEverythingOption) {
  KnitcOptions options;
  options.flatten_everything = true;
  KernelProgram program = BuildKernel("WebKernel", options);
  ASSERT_TRUE(program.ok()) << program.error;
  EXPECT_EQ(program.build->stats.flatten_group_count, 1);
  RunWebScenario(program);
}

TEST(KnitcIntegration, UnoptimizedBuildStillWorks) {
  KnitcOptions options;
  options.opt_level = 0;
  KernelProgram program = BuildKernel("WebKernel", options);
  ASSERT_TRUE(program.ok()) << program.error;
  RunWebScenario(program);
}

TEST(KnitcIntegration, StatsAreFilled) {
  KernelProgram program = BuildKernel("WebKernel");
  ASSERT_TRUE(program.ok()) << program.error;
  const PipelineMetrics& stats = program.build->stats;
  EXPECT_EQ(stats.instance_count, 9);  // 8 kernel link lines, LogServe expands to 2
  EXPECT_GT(stats.object_count, 0);
  EXPECT_GT(program.build->image.text_bytes, 0);
}

}  // namespace
}  // namespace knit
