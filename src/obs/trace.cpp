#include "obs/trace.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <system_error>

// rt-lint: no-preconditions (no caller input, except parse_capacity: malformed text -> 0)

namespace rt::obs {

std::int64_t now_ns() noexcept {
  // The epoch is latched on first use; after that a call is one clock
  // read and a subtraction (no allocation, no locks -- safe for the
  // zero-allocation hot path).
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch)
      .count();
}

std::uint32_t thread_ordinal() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::size_t TraceBuffer::default_capacity() {
  const char* v = std::getenv("RT_OBS_SPAN_CAPACITY");
  return v == nullptr ? 0 : parse_capacity(v);
}

std::size_t TraceBuffer::parse_capacity(std::string_view text) noexcept {
  std::size_t n = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), n);
  if (ec != std::errc{} || end != text.data() + text.size()) return 0;
  // reserve() throws beyond max_size(); such a value would otherwise
  // escape from every recorder constructor, thread_local ones included.
  return n <= std::vector<SpanRecord>().max_size() ? n : 0;
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity_);
}

bool TraceBuffer::push(const SpanRecord& rec) noexcept {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  spans_.push_back(rec);  // within reserved capacity: cannot allocate or throw
  return true;
}

}  // namespace rt::obs
