// A small fixed-size thread pool for batch-parallel pipeline stages (the paper's
// ">95% of build time goes to the C compiler" is exactly the stage worth spreading
// across cores). Tasks are pulled from a shared atomic counter — cheap work
// stealing at whole-task granularity — and results are written into caller-owned,
// per-task slots, so the *merge order* is decided by the caller and stays
// deterministic regardless of how many threads ran or which thread ran what.
//
// Tasks must be independent: a thread runs its tasks one after another, so a
// task that waits on another task's progress can deadlock. Work whose parts
// block on each other, like the serving fleet's feeder and shard workers
// (src/serve/serve.h), gets one thread per part instead.
#ifndef SRC_SUPPORT_EXECUTOR_H_
#define SRC_SUPPORT_EXECUTOR_H_

#include <functional>
#include <vector>

namespace knit {

class Executor {
 public:
  // `jobs` < 1 is clamped to 1 (callers validate user input; this is a safety net).
  explicit Executor(int jobs);

  int jobs() const { return jobs_; }

  // Runs every task to completion. With jobs() == 1 (or a single task) the tasks
  // run inline on the calling thread, bit-for-bit the serial pipeline. Tasks must
  // not throw; they communicate failure through their own result slots.
  // Returns the number of threads actually used (including the caller's).
  int Run(const std::vector<std::function<void()>>& tasks);

 private:
  int jobs_;
};

}  // namespace knit

#endif  // SRC_SUPPORT_EXECUTOR_H_
