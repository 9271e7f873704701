// Scoped stage tracing: RT_TRACE_SPAN + the per-recorder TraceBuffer.
//
// This is the timing half of the observability layer. Usage in a stage:
//
//   void Demodulator::demodulate_into(...) {
//     RT_TRACE_SPAN("demodulate");
//     ...
//   }
//
// Stages never choose the destination: they record into whatever
// recorder the calling thread has bound. In src/ only
// runtime::record_batch binds one, per batch of work; a bench or test
// that drives stages directly binds its own:
//
//   obs::Recorder rec;
//   { const obs::ScopedBind bind(rec); (void)sim.run_packet(0, 16, ws); }
//   report.add_obs(rec.snapshot());
//
// Cost model (every build records; there is no compile-time switch):
//   - Counters and histograms (RT_OBS_COUNT / RT_OBS_OBSERVE) always
//     record into the bound recorder: a thread-local load, a null check
//     and a fixed-array add.
//   - A span records only into a recorder whose TraceBuffer has capacity.
//     The default capacity is 0 unless RT_OBS_SPAN_CAPACITY is set, so a
//     span that is off costs one pointer-and-capacity check and no
//     memory. A span that is on is two steady_clock reads plus one push
//     into a buffer reserved at construction -- zero steady-state heap
//     allocations (tests/test_alloc.cpp runs with spans off and on).
//     Span names must be string literals (the buffer stores the pointer,
//     not a copy).
//
// Span names are part of the documented telemetry schema: every name used
// in src/ or bench/ must appear in docs/TELEMETRY.md (enforced by
// tools/rt_lint.py rule R5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace rt::obs {

/// One closed span. Records are emitted at scope *exit*, so a buffer
/// holds spans in closing order (children before their parent).
struct SpanRecord {
  const char* name = nullptr;  ///< string literal; never owned
  std::int64_t start_ns = 0;   ///< process-epoch monotonic start
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;       ///< dense per-thread ordinal (not the OS id)
  std::uint16_t depth = 0;     ///< nesting depth within the recorder
  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// Fixed-capacity span sink. All storage is reserved at construction, so
/// push() never allocates; once full, further spans are counted as
/// dropped instead of grown into. A zero-capacity buffer switches the
/// spans of its recorder off (SpanScope skips it entirely).
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = default_capacity());

  /// parse_capacity() of the RT_OBS_SPAN_CAPACITY environment variable,
  /// 0 (spans off) when it is unset. Read once per buffer construction
  /// and once per runtime::record_batch call (cold: per batch, not per
  /// span).
  [[nodiscard]] static std::size_t default_capacity();

  /// `text` as a whole-string decimal span count. Anything else (empty,
  /// signed, suffixed or exponent forms, or more spans than a buffer can
  /// reserve) yields 0, i.e. spans off.
  [[nodiscard]] static std::size_t parse_capacity(std::string_view text) noexcept;

  /// Appends a record; returns false (and counts a drop) when full.
  bool push(const SpanRecord& rec) noexcept;

  void clear() noexcept {
    spans_.clear();
    dropped_ = 0;
  }

  [[nodiscard]] std::span<const SpanRecord> spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<SpanRecord> spans_;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Nanoseconds since a process-local monotonic epoch (first call).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Dense ordinal of the calling thread (0, 1, 2, ... in first-use order).
[[nodiscard]] std::uint32_t thread_ordinal() noexcept;

/// A recorder's contents, copied out: what a batch, a study or a bench
/// run reports. Merging is associative (integer sums + append), so
/// merging snapshots in submission order yields the same registry and
/// trace regardless of which worker ran which batch.
struct Snapshot {
  MetricsRegistry metrics;
  std::vector<SpanRecord> spans;  ///< empty unless the recorder had span storage

  Snapshot& merge(const Snapshot& o) {
    metrics.merge(o.metrics);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    return *this;
  }
};

/// The recording context: spans + metrics owned by exactly one thread at
/// a time, and bound to it with ScopedBind.
struct Recorder {
  TraceBuffer trace;
  MetricsRegistry metrics;
  std::uint16_t open_depth = 0;  ///< live nesting depth (SpanScope internal)

  void clear() noexcept {
    trace.clear();
    metrics.reset();
    open_depth = 0;
  }

  [[nodiscard]] Snapshot snapshot() const {
    const auto spans = trace.spans();
    return {metrics, {spans.begin(), spans.end()}};
  }
};

namespace detail {
inline Recorder*& current_slot() noexcept {
  thread_local Recorder* cur = nullptr;
  return cur;
}
}  // namespace detail

/// The recorder the calling thread is currently bound to (may be null).
[[nodiscard]] inline Recorder* current_recorder() noexcept { return detail::current_slot(); }

/// RAII thread-local binding of the current recorder. Nests: the previous
/// binding is restored on destruction.
class ScopedBind {
 public:
  explicit ScopedBind(Recorder& r) noexcept : prev_(detail::current_slot()) {
    detail::current_slot() = &r;
  }
  ~ScopedBind() { detail::current_slot() = prev_; }
  ScopedBind(const ScopedBind&) = delete;
  ScopedBind& operator=(const ScopedBind&) = delete;

 private:
  Recorder* prev_;
};

/// RAII stage timer; emits one SpanRecord into the bound recorder on
/// destruction. No-op (and cheap) when no recorder is bound or the bound
/// recorder has no span storage.
class SpanScope {
 public:
  explicit SpanScope(const char* name) noexcept : rec_(detail::current_slot()) {
    if (rec_ == nullptr || rec_->trace.capacity() == 0) {
      rec_ = nullptr;  // spans off: the destructor does nothing
      return;
    }
    name_ = name;
    depth_ = rec_->open_depth++;
    start_ns_ = now_ns();
  }
  ~SpanScope() {
    if (rec_ == nullptr) return;
    --rec_->open_depth;
    const std::int64_t end = now_ns();
    if (!rec_->trace.push({name_, start_ns_, end - start_ns_, thread_ordinal(), depth_}))
      rec_->metrics.add(Counter::kTraceSpansDropped, 1);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Recorder* rec_;
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::uint16_t depth_ = 0;
};

inline void add_count(Counter c, std::uint64_t n) noexcept {
  if (Recorder* r = detail::current_slot()) r->metrics.add(c, n);
}
inline void observe(Histogram h, double v) noexcept {
  if (Recorder* r = detail::current_slot()) r->metrics.observe(h, v);
}

}  // namespace rt::obs

// --- Instrumentation macros -------------------------------------------------

#define RT_OBS_CONCAT_IMPL(a, b) a##b
#define RT_OBS_CONCAT(a, b) RT_OBS_CONCAT_IMPL(a, b)

/// Times the enclosing scope as stage `name` (a string literal; must be
/// documented in docs/TELEMETRY.md).
#define RT_TRACE_SPAN(name) \
  const ::rt::obs::SpanScope RT_OBS_CONCAT(rt_obs_span_, __LINE__)(name)

/// Adds `n` to counter `c` (an ::rt::obs::Counter enumerator).
#define RT_OBS_COUNT(c, n) ::rt::obs::add_count(::rt::obs::Counter::c, (n))

/// Records sample `v` into histogram `h` (an ::rt::obs::Histogram
/// enumerator).
#define RT_OBS_OBSERVE(h, v) ::rt::obs::observe(::rt::obs::Histogram::h, (v))
