#include "src/support/executor.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace knit {

Executor::Executor(int jobs) : jobs_(std::max(1, jobs)) {}

int Executor::Run(const std::vector<std::function<void()>>& tasks) {
  int threads = std::min<int>(jobs_, static_cast<int>(tasks.size()));
  if (threads <= 1) {
    for (const auto& task : tasks) {
      task();
    }
    return 1;
  }

  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (;;) {
      size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= tasks.size()) {
        return;
      }
      tasks[index]();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads) - 1);
  for (int i = 1; i < threads; ++i) {
    pool.emplace_back(worker);
  }
  worker();  // the calling thread participates
  for (std::thread& thread : pool) {
    thread.join();
  }
  return threads;
}

}  // namespace knit
