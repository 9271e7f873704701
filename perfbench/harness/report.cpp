#include "harness/report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "kernels/kernels.h"
#include "runtime/thread_pool.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every untraced run. Must match
// BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"pkt_per_s", "1/s"},
    {"decode_ms_p50", "ms"},
    {"decode_ms_tail", "ms"},
    {"realtime_factor", "x"},
    {"sweep_scaling_eff", "ratio"},
    {"fleet_slots_per_s", "1/s"},
    {"frame_error_rate", "ratio"},
    {"ber", "ratio"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, printed by every traced run. A layer that is
// not on the workload's path did no work there and reads 0. Must match
// BENCHMARK.json.
constexpr MetricSpec kPerLayer[] = {
    {"sim.render_ms", "ms"},
    {"phy.demod_ms", "ms"},
    {"phy.preamble_ms", "ms"},
    {"phy.train_ms", "ms"},
    {"phy.dfe_ms", "ms"},
    {"phy.demap_ms", "ms"},
    {"phy.dfe_candidates_per_frame", "count"},
    {"phy.preamble_found_ratio", "ratio"},
    {"stream.scan_ns_per_sample", "ns"},
    {"stream.push_ms_p50", "ms"},
    {"stream.push_ms_max", "ms"},
    {"stream.sof_rejects", "count"},
    {"stream.decode_rejects", "count"},
    {"stream.false_frames", "count"},
    {"stream.missed_frames", "count"},
    {"stream.sync_accept_ratio", "ratio"},
    {"coding.encode_ms", "ms"},
    {"coding.link_ms", "ms"},
    {"coding.decode_ms", "ms"},
    {"coding.raw_ber", "ratio"},
    {"coding.crc_failures", "count"},
    {"runtime.busy_ratio", "ratio"},
    {"runtime.queue_wait_ms_p50", "ms"},
    {"runtime.task_ms_max", "ms"},
    {"runtime.tasks", "count"},
    {"fleet.schedule_ms", "ms"},
    {"fleet.campaign_ms", "ms"},
    {"fleet.discovery_rounds_mean", "rounds"},
    {"fleet.cross_collisions", "count"},
    {"mac.rate_switches", "count"},
    {"setup.link_ctor_s", "s"},
    {"setup.stream_rx_ctor_ms", "ms"},
    {"setup.fleet_place_ms", "ms"},
    {"self.sim_ms", "ms"},
    {"self.phy_ms", "ms"},
    {"self.stream_ms", "ms"},
    {"self.coding_ms", "ms"},
    {"self.runtime_ms", "ms"},
    {"self.fleet_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

const Clock::time_point& epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch()).count();
}

/// Reads one "Key:   <n> kB" line of /proc/self/status, in MB.
double status_mb(std::string_view key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, key.size(), key) != 0 || line.size() <= key.size() ||
        line[key.size()] != ':')
      continue;
    std::istringstream in(line.substr(key.size() + 1));
    double kb = 0.0;
    in >> kb;
    return kb * 1024.0 / 1e6;
  }
  return 0.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kPhy: return "phy";
    case Layer::kStream: return "stream";
    case Layer::kCoding: return "coding";
    case Layer::kRuntime: return "runtime";
    case Layer::kFleet: return "fleet";
  }
  return "?";
}

void WorkloadResult::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  mismatches.push_back(what);
}

Tracer::Scope::Scope(Tracer* tracer, Layer layer, const char* name, std::int64_t frame)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.frame = frame;
    s.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
    s.t0_ns = now_ns();
    index_ = static_cast<std::int32_t>(tracer_->spans_.size());
    tracer_->spans_.push_back(s);
    tracer_->open_.push_back(index_);
  }
  t0_ = Clock::now();
}

double Tracer::Scope::stop() {
  if (ms_ >= 0.0) return ms_;
  const auto t1 = Clock::now();
  ms_ = ms_between(t0_, t1);
  if (tracer_ != nullptr) {
    tracer_->spans_[static_cast<std::size_t>(index_)].t1_ns = now_ns();
    tracer_->open_.pop_back();
  }
  return ms_;
}

void Tracer::absorb(const Tracer& other, std::uint32_t thread) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  const std::int32_t root_parent = open_.empty() ? -1 : open_.back();
  for (Span s : other.spans_) {
    s.parent = s.parent < 0 ? root_parent : s.parent + base;
    s.thread = thread;
    spans_.push_back(s);
  }
}

std::array<double, kLayerCount> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(spans_[i].t1_ns - spans_[i].t0_ns) / 1e6;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.t1_ns - s.t0_ns) / 1e6;
  std::array<double, kLayerCount> out{};
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[static_cast<std::size_t>(spans_[i].layer)] += self[i];
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"frame\": %lld}}",
                  i == 0 ? "" : ",", s.name, layer_name(s.layer), s.thread,
                  static_cast<double>(s.t0_ns) / 1e3, static_cast<double>(s.t1_ns - s.t0_ns) / 1e3,
                  i, s.parent, static_cast<long long>(s.frame));
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

double rss_mb() { return status_mb("VmRSS"); }
double peak_rss_mb() { return status_mb("VmHWM"); }

int print_result(const RunConfig& cfg, const WorkloadResult& result) {
  WorkloadResult r = result;
  const auto find = [](const std::vector<Metric>& ms, const char* name) -> const Metric* {
    for (const Metric& m : ms)
      if (m.name == name) return &m;
    return nullptr;
  };

  std::vector<std::pair<MetricSpec, Metric>> rows;
  if (cfg.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const Metric* m = find(r.per_layer, spec.name);
      rows.emplace_back(spec, m != nullptr ? *m : Metric{spec.name, 0.0, 0, "not measured on this workload"});
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* m = find(r.end_to_end, spec.name);
      r.check(m != nullptr, std::string("end-to-end metric not measured: ") + spec.name);
      rows.emplace_back(spec, m != nullptr ? *m : Metric{spec.name, 0.0, 0, "missing"});
    }
  }
  for (auto& [spec, m] : rows) {
    r.check(std::isfinite(m.value), std::string("metric is not finite: ") + spec.name);
    if (!std::isfinite(m.value)) m.value = 0.0;
  }

  std::printf("\n%-30s %16s %-6s %8s  %s\n", "metric", "value", "unit", "samples", "note");
  for (const auto& [spec, m] : rows)
    std::printf("%-30s %16.6g %-6s %8zu  %s\n", spec.name, m.value, spec.unit, m.samples,
                m.note.c_str());
  for (const std::string& what : r.mismatches) std::printf("MISMATCH: %s\n", what.c_str());

  std::printf(
      "{\"provenance\": {\"commit\": %s, \"build_type\": %s, \"kernel_backend\": \"%s\", "
      "\"nproc\": %u, \"threads\": %u, \"workload\": %s, \"seed\": %llu, \"run_seconds\": %s, "
      "\"trace\": %s}}\n",
      json_string(cfg.commit).c_str(), json_string(cfg.build_type).c_str(),
      rt::kernels::backend_name(), rt::runtime::hardware_threads(), r.threads,
      json_string(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
      json_number(cfg.seconds).c_str(), cfg.trace ? "true" : "false");

  std::string detail = "{\"detail\": {";
  std::string metrics = "{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [spec, m] = rows[i];
    const char* sep = i == 0 ? "" : ", ";
    detail += sep + json_string(spec.name) + ": {\"value\": " + json_number(m.value) +
              ", \"unit\": " + json_string(spec.unit) +
              ", \"samples\": " + std::to_string(m.samples) +
              ", \"note\": " + json_string(m.note) + "}";
    metrics += sep + json_string(spec.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(spec.unit) + "}";
  }
  detail += "}}";
  metrics += "}";
  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
