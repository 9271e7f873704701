// BAD exemplar for rt_check C4 (concurrency): a study fans its probes out
// on a pool, a thread and an async task of its own and hands the results
// back through futures -- a second fan-out beside
// runtime::run_deterministic_batches instead of tasks run by it.
#pragma once

#include <future>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"

namespace rt::mac {

inline std::vector<int> probe_all(int n) {
  runtime::ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < n; ++i) futures.push_back(pool.submit([i] { return i * i; }));
  std::promise<int> done;
  std::thread watchdog([&done] { done.set_value(0); });
  watchdog.join();
  auto late = std::async(std::launch::async, [] { return 0; });
  std::vector<int> out;
  for (auto& f : futures) out.push_back(f.get());
  out.push_back(late.get() + done.get_future().get());
  return out;
}

}  // namespace rt::mac
