// Shared plumbing of the benchmark driver: run configuration, metric
// records, the in-memory span tracer, memory probes and result printing.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;   ///< where the traced run writes its spans
  std::string commit;      ///< provenance, passed in by run.py
  std::string build_type;  ///< provenance, passed in by run.py
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::size_t samples = 0;  ///< measurements behind the value
  std::string note;         ///< e.g. the tail percentile, or how it was derived
};

struct WorkloadResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;  ///< operations (frames, packets, campaigns) run
  std::uint64_t failed = 0;     ///< operations whose output failed a correctness check
  std::vector<std::string> mismatches;
  unsigned threads = 1;         ///< worker threads the timed work used

  /// Records a correctness check; a false `ok` counts one failed operation.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, std::size_t samples, std::string note = {}) {
    end_to_end.push_back({name, value, samples, std::move(note)});
  }
  void layer(const std::string& name, double value, std::size_t samples, std::string note = {}) {
    per_layer.push_back({name, value, samples, std::move(note)});
  }
};

/// The src/ modules a span can be charged to.
enum class Layer : std::uint8_t { kSim, kPhy, kStream, kCoding, kRuntime, kFleet };
inline constexpr std::size_t kLayerCount = 6;
[[nodiscard]] const char* layer_name(Layer layer);

/// In-memory span recorder. Each span carries its layer, the frame (or
/// packet, chunk, campaign) it worked on and its parent span; spans are
/// written out once, when the run ends. Not thread-safe: every thread
/// records into its own Tracer and the owner absorbs them afterwards.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    Layer layer = Layer::kSim;
    std::int64_t frame = -1;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
    std::uint32_t thread = 0;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
  };

  /// Times one call. With a null tracer it is a plain stopwatch, so the
  /// untraced run pays two clock reads and records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer, const char* name, std::int64_t frame);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span (idempotent) and returns its duration in ms.
    double stop();

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
    Clock::time_point t0_;
    double ms_ = -1.0;
  };

  /// Appends `other`'s spans as recorded on worker `thread`, re-parented
  /// under this tracer's currently open span.
  void absorb(const Tracer& other, std::uint32_t thread);

  /// Self time per layer in ms: each span's duration minus the part its
  /// child spans cover, summed by layer.
  [[nodiscard]] std::array<double, kLayerCount> self_ms() const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes the spans as a Chrome trace-event JSON file.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Resident memory of this process now / at its peak, in MB (10^6 bytes)
/// (/proc/self/status VmRSS / VmHWM; 0 when unavailable).
[[nodiscard]] double rss_mb();
[[nodiscard]] double peak_rss_mb();

/// Times `reps` constructions, in seconds. `build` runs the whole set-up
/// once and leaves its result in caller state (the last one is kept).
template <typename Build>
[[nodiscard]] std::vector<double> time_setups(int reps, Build&& build) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    build();
    s.push_back(seconds_since(t0));
  }
  return s;
}

/// Prints the human-readable table, the provenance and detail JSON lines,
/// and, last, the one-line result the driver parses. Returns the process
/// exit code: 0 when every correctness check passed.
[[nodiscard]] int print_result(const RunConfig& cfg, const WorkloadResult& result);

}  // namespace perfbench
