// CLEAN exemplar for rt_check C4 (concurrency): stage code stays
// single-threaded pure; the one process-wide atomic carries a justified
// suppression annotation.
#pragma once

#include <atomic>
#include <cstdint>

namespace rt::phy {

inline std::uint64_t next_frame_id() {
  // rt-check: sync-ok (process-wide id counter; frames are built from any thread)
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace rt::phy
