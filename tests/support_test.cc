// Tests for the support utilities: strings, mangling, diagnostics, results,
// and the executor (including the serving layer's dynamic task sets).
#include <gtest/gtest.h>

#include <atomic>

#include "src/support/diagnostics.h"
#include "src/support/executor.h"
#include "src/support/mangle.h"
#include "src/support/result.h"
#include "src/support/strings.h"

namespace knit {
namespace {

TEST(Strings, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), std::vector<std::string>{});
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("knitc", "knit"));
  EXPECT_FALSE(StartsWith("kni", "knit"));
  EXPECT_TRUE(EndsWith("file.c", ".c"));
  EXPECT_FALSE(EndsWith(".c", "file.c"));
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(IsIdentifier("serve_web"));
  EXPECT_TRUE(IsIdentifier("_x9"));
  EXPECT_FALSE(IsIdentifier("9x"));
  EXPECT_FALSE(IsIdentifier(""));
  EXPECT_FALSE(IsIdentifier("a-b"));
}

TEST(Strings, ParseIntTakesWholeInRangeIntegersOnly) {
  long long value = 7;
  EXPECT_TRUE(ParseInt("42", 0, 100, value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt("-5", -10, 10, value));
  EXPECT_EQ(value, -5);
  for (const char* bad : {"", "abc", "2x", " 2", "+2", "1.5", "101", "-11",
                          "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    value = 7;
    EXPECT_FALSE(ParseInt(bad, -10, 100, value));
    EXPECT_EQ(value, 7) << "a rejected value leaves the output untouched";
  }
}

TEST(Strings, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(109464), "109,464");
  EXPECT_EQ(WithThousands(-1234567), "-1,234,567");
}

TEST(Mangle, Sanitization) {
  EXPECT_EQ(SanitizeForSymbol("Top/Log#2"), "Top_Log_2");
  EXPECT_EQ(MangleExport("A/B", "serveLog", "serve_web"), "A_B__serveLog_serve_web");
  EXPECT_EQ(MangleInitFini("A/B", "open_log"), "A_B__open_log");
  EXPECT_EQ(EnvSymbol("raw", "raw_putc"), "env__raw__raw_putc");
}

TEST(Mangle, DistinctInstancesDistinctNames) {
  EXPECT_NE(MangleExport("K/MemFs", "fs", "fs_open"), MangleExport("K/MemFs#2", "fs", "fs_open"));
}

TEST(Diagnostics, CountsAndRendering) {
  Diagnostics diags;
  EXPECT_FALSE(diags.has_errors());
  diags.Warning(SourceLoc{"f.knit", 3, 7}, "odd");
  diags.Error(SourceLoc{"f.knit", 4, 1}, "bad");
  diags.Note(SourceLoc::Unknown(), "context");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.warning_count(), 1u);
  EXPECT_EQ(diags.FirstError(), "bad");
  std::string text = diags.ToString();
  EXPECT_NE(text.find("f.knit:3:7: warning: odd"), std::string::npos);
  EXPECT_NE(text.find("f.knit:4:1: error: bad"), std::string::npos);
  diags.Clear();
  EXPECT_FALSE(diags.has_errors());
  EXPECT_EQ(diags.ToString(), "");
}

TEST(Diagnostics, AppendKeepsOrderSeveritiesAndCounts) {
  Diagnostics task;
  task.Note(SourceLoc{"a.c", 1, 2}, "first");
  task.Error(SourceLoc{"a.c", 3, 0}, "broken");
  task.Warning(SourceLoc::Unknown(), "odd");
  task.Error(SourceLoc{"b.c", 0, 0}, "also broken");

  Diagnostics into;
  into.Warning(SourceLoc{"top.knit", 9, 1}, "earlier");
  into.Append(task);
  into.Append(Diagnostics());  // appending nothing changes nothing

  EXPECT_EQ(into.error_count(), 2u);
  EXPECT_EQ(into.warning_count(), 2u);
  EXPECT_EQ(into.FirstError(), "broken");
  ASSERT_EQ(into.entries().size(), 5u);
  const Severity expected[] = {Severity::kWarning, Severity::kNote, Severity::kError,
                               Severity::kWarning, Severity::kError};
  for (size_t i = 0; i < into.entries().size(); ++i) {
    EXPECT_EQ(into.entries()[i].severity, expected[i]) << i;
  }
  EXPECT_EQ(into.entries()[1].loc.ToString(), "a.c:1:2");
  EXPECT_EQ(into.entries()[4].message, "also broken");
  // The source sink is left as it was.
  EXPECT_EQ(task.entries().size(), 4u);
  EXPECT_EQ(task.error_count(), 2u);
}

TEST(ResultType, ValueAndFailure) {
  Result<int> ok = 7;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(ok.value_or(9), 7);
  Result<int> fail = Result<int>::Failure();
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.value_or(9), 9);
  EXPECT_TRUE(Result<void>::Success().ok());
  EXPECT_FALSE(Result<void>::Failure().ok());
}

TEST(Executor, ZeroTasksReturnsImmediately) {
  Executor executor(4);
  EXPECT_EQ(executor.Run(std::vector<std::function<void()>>{}), 1);
}

TEST(Executor, MoreTasksThanThreadsAllRun) {
  // The compile stage's shape, many units on few threads: far more tasks than
  // jobs; every task must still run exactly once.
  const int kTasks = 64;
  Executor executor(2);
  std::vector<std::atomic<int>> ran(kTasks);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&ran, i] { ran[static_cast<size_t>(i)]++; });
  }
  EXPECT_EQ(executor.Run(tasks), 2);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[static_cast<size_t>(i)].load(), 1) << "task " << i;
  }
}

}  // namespace
}  // namespace knit
