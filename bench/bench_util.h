// Shared helpers for the experiment benches.
//
// Every bench regenerates one table or figure from the paper's evaluation
// and prints the same rows/series the paper reports. Runtime knobs:
//   RT_BENCH_PACKETS  packets per BER point (default 10; paper used 30)
//   RT_BENCH_PAYLOAD  payload bytes per packet (default 32; paper used 128)
//   RT_BENCH_THREADS  sweep worker threads (default: hardware concurrency)
// Raise the first two for full-fidelity runs. BER points run through the
// deterministic parallel sweep engine (src/runtime), so the numbers are
// bit-identical at any thread count. Each bench also writes a
// machine-readable BENCH_<name>.json next to the working directory so the
// perf/accuracy trajectory stays trackable across PRs (see DESIGN.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "sim/link_sim.h"

namespace rt::bench {

[[nodiscard]] inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

[[nodiscard]] inline int packets_per_point() { return env_int("RT_BENCH_PACKETS", 10); }
[[nodiscard]] inline std::size_t payload_bytes() {
  return static_cast<std::size_t>(env_int("RT_BENCH_PAYLOAD", 32));
}
/// Worker threads for sweeps and campaigns: RT_BENCH_THREADS when set
/// (clamped to >= 1), else runtime::hardware_threads().
[[nodiscard]] inline unsigned bench_threads() {
  const char* v = std::getenv("RT_BENCH_THREADS");
  if (v == nullptr || *v == '\0') return runtime::hardware_threads();
  const int n = std::atoi(v);
  return n < 1 ? 1U : static_cast<unsigned>(n);
}

inline void print_header(const char* experiment, const char* paper_ref,
                         const char* expectation) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_ref);
  std::printf("expected shape: %s\n", expectation);
  std::printf("packets/point=%d payload=%zuB threads=%u\n", packets_per_point(), payload_bytes(),
              bench_threads());
  std::printf("================================================================\n");
}

/// Formats a BER as the paper plots it (percent, "<floor" when no error
/// was observed in the sample budget, or "n/a" when every preamble was
/// lost and no payload bit was ever counted).
[[nodiscard]] inline std::string ber_str(const sim::LinkStats& stats) {
  char buf[64];
  if (stats.total_bits == 0) return "n/a";
  if (stats.bit_errors == 0) {
    std::snprintf(buf, sizeof(buf), "<%.4f%%", 100.0 / static_cast<double>(stats.total_bits));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4f%%", 100.0 * stats.ber());
  }
  return buf;
}

/// Formats an aggregate BER from merged error/bit counts (multi-seed
/// points) with the same floor/empty conventions as ber_str.
[[nodiscard]] inline std::string ber_str_counts(std::size_t errors, std::size_t bits) {
  sim::LinkStats s;
  s.bit_errors = errors;
  s.total_bits = bits;
  return ber_str(s);
}

/// Builds one sweep point with a shared offline model (the offline step
/// does not depend on distance/SNR, so sweeps share it across points).
[[nodiscard]] inline runtime::SweepPoint make_point(const phy::PhyParams& params,
                                                    const lcm::TagConfig& tag,
                                                    const sim::ChannelConfig& channel,
                                                    const phy::OfflineModel& offline,
                                                    std::uint64_t seed = 1) {
  runtime::SweepPoint p;
  p.params = params;
  p.tag = tag;
  p.channel = channel;
  p.sim.shared_offline_model = offline;
  p.sim.seed = seed;
  return p;
}

/// Runs all points through the parallel sweep engine with the bench knobs
/// (RT_BENCH_PACKETS / RT_BENCH_PAYLOAD / RT_BENCH_THREADS).
[[nodiscard]] inline runtime::SweepResult run_points(
    std::span<const runtime::SweepPoint> points) {
  runtime::SweepOptions so;
  so.packets = packets_per_point();
  so.payload_bytes = payload_bytes();
  so.threads = bench_threads();
  return runtime::parallel_sweep(points, so);
}

/// Runs one BER point (single-point sweep: packets still fan out across
/// the worker threads, and the result is identical to a serial run).
[[nodiscard]] inline sim::LinkStats run_point(const phy::PhyParams& params,
                                              const lcm::TagConfig& tag,
                                              const sim::ChannelConfig& channel,
                                              const phy::OfflineModel& offline,
                                              std::uint64_t seed = 1) {
  const runtime::SweepPoint point = make_point(params, tag, channel, offline, seed);
  return run_points({&point, 1}).stats[0];
}

/// Default tag hardware realism used by the experiment benches. The
/// pixel-gain spread scales inversely with the constellation density:
/// 256-PQAM leaves only 1/15 of the swing between amplitude levels, so it
/// presumes the paper's footnote-6 assumption that the binary-weighted
/// pixels are "manufactured identical enough" -- 3% gain spread is fine
/// for 16-PQAM but would swamp the 256-PQAM grid (see
/// bench_ext_pixel_calibration for the extension that lifts this).
/// Configurations with T < tau_1 (the 32 Kbps emulation point) follow the
/// paper's trace-driven methodology -- recorded waveforms of the actual
/// hardware -- which our simulator matches with zero model spread.
[[nodiscard]] inline lcm::TagConfig realistic_tag(const phy::PhyParams& params,
                                                  std::uint64_t seed = 11) {
  auto tag = params.tag_config();
  double gain = 0.03 * std::min(1.0, 3.0 / static_cast<double>(params.levels_per_axis() - 1));
  if (params.slot_s < params.charge_s) gain = 0.0;  // trace-emulation regime
  tag.heterogeneity = {gain, gain * 0.7, rt::deg_to_rad(gain * 33.0)};
  tag.seed = seed;
  return tag;
}

/// Machine-readable record of one bench run, written as BENCH_<name>.json.
/// Schema (all numbers; optional fields omitted when absent):
///   { "bench": str, "threads": u, "packets_per_point": n,
///     "payload_bytes": n, "wall_s": s, "sweep_wall_s": s?,
///     "points": [ { "series": str, "x": f, "ber": f, "packet_loss": f,
///                   "packets": n, "total_bits": n, "bit_errors": n,
///                   "preamble_failures": n } |
///                 { "series": str, "x": f, "value": f } ... ],
///     "scalars": { str: f, ... } }
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  /// Records one BER point of a series (x = the swept coordinate).
  void add_point(const std::string& series, double x, const sim::LinkStats& s) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"series\": \"%s\", \"x\": %.10g, \"ber\": %.10g, \"packet_loss\": %.10g, "
                  "\"packets\": %d, \"total_bits\": %zu, \"bit_errors\": %zu, "
                  "\"preamble_failures\": %d}",
                  escape(series).c_str(), x, s.ber(), s.packet_loss(), s.packets, s.total_bits,
                  s.bit_errors, s.preamble_failures);
    points_.emplace_back(buf);
  }

  /// Records one generic (series, x, value) point for non-BER benches.
  void add_value(const std::string& series, double x, double value) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "{\"series\": \"%s\", \"x\": %.10g, \"value\": %.10g}",
                  escape(series).c_str(), x, value);
    points_.emplace_back(buf);
  }

  /// Records a named summary number (working range, gain, threshold...).
  void add_scalar(const std::string& key, double value) { scalars_.emplace_back(key, value); }

  /// Accumulates engine wall time (summed across multiple sweeps) and the
  /// sweep's metrics + stage spans.
  void add_sweep(const runtime::SweepResult& r) {
    sweep_wall_s_ += r.wall_s;
    add_obs(r.obs);
  }

  /// Folds a snapshot into the report: a study result's, a
  /// runtime::record_batch's, or a bench-bound recorder's (snapshot()).
  void add_obs(const obs::Snapshot& s) { obs_.merge(s); }

  /// Writes BENCH_<name>.json into the working directory.
  void write() const {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\n  \"bench\": \"%s\",\n  \"threads\": %u,\n  \"packets_per_point\": %d,\n"
                  "  \"payload_bytes\": %zu,\n  \"wall_s\": %.6g,\n",
                  escape(name_).c_str(), bench_threads(), packets_per_point(), payload_bytes(),
                  wall_s);
    f << head;
    if (sweep_wall_s_ > 0.0) {
      char sw[64];
      std::snprintf(sw, sizeof(sw), "  \"sweep_wall_s\": %.6g,\n", sweep_wall_s_);
      f << sw;
    }
    f << "  \"points\": [";
    for (std::size_t i = 0; i < points_.size(); ++i)
      f << (i == 0 ? "\n    " : ",\n    ") << points_[i];
    f << (points_.empty() ? "],\n" : "\n  ],\n");
    f << "  \"scalars\": {";
    for (std::size_t i = 0; i < scalars_.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %.10g", i == 0 ? "" : ",",
                    escape(scalars_[i].first).c_str(), scalars_[i].second);
      f << buf;
    }
    f << (scalars_.empty() ? "}\n" : "\n  }\n");
    f << "}\n";
    std::printf("wrote %s (wall %.2fs, %u threads)\n", path.c_str(), wall_s, bench_threads());
    write_obs_artifacts();
  }

 private:
  /// Prints the per-stage summary and writes the
  /// BENCH_<name>.trace.json / BENCH_<name>.metrics.json /
  /// BENCH_<name>.folded.txt artifacts (schemas in docs/TELEMETRY.md).
  /// No-op when nothing was recorded.
  void write_obs_artifacts() const {
    if (obs_.metrics.empty() && obs_.spans.empty()) return;
    obs::print_stage_summary(stdout, obs_.metrics, obs_.spans);
    const std::string trace_path = "BENCH_" + name_ + ".trace.json";
    const std::string metrics_path = "BENCH_" + name_ + ".metrics.json";
    const std::string folded_path = "BENCH_" + name_ + ".folded.txt";
    obs::write_chrome_trace(trace_path, obs_.spans);
    obs::write_metrics_json(metrics_path, obs_.metrics, obs_.spans);
    obs::write_folded_stacks(folded_path, obs_.spans);
    std::printf("wrote %s + %s + %s (open the trace at chrome://tracing)\n", trace_path.c_str(),
                metrics_path.c_str(), folded_path.c_str());
  }

  [[nodiscard]] static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  double sweep_wall_s_ = 0.0;
  std::vector<std::string> points_;
  std::vector<std::pair<std::string, double>> scalars_;
  obs::Snapshot obs_;  // spans stay empty unless spans are on
};

}  // namespace rt::bench
