// CLEAN exemplar for rt_check C4 (concurrency): a study fans its probes
// out as tasks of runtime::run_deterministic_batches, each writing its
// own pre-sized slot, instead of owning threads or futures. Naming the
// calling thread (std::this_thread) is not a fan-out and passes.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/batch.h"

namespace rt::mac {

inline std::vector<int> probe_all(int n, unsigned threads) {
  std::vector<int> slots(static_cast<std::size_t>(n));
  std::vector<std::function<obs::Snapshot()>> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back([&slots, i] {
      return runtime::record_batch([&] { slots[static_cast<std::size_t>(i)] = i * i; });
    });
  }
  static_cast<void>(runtime::run_deterministic_batches(std::move(tasks), threads));
  return slots;
}

/// Backs off while a reader front-end refills its buffer.
inline void back_off() { std::this_thread::yield(); }

}  // namespace rt::mac
