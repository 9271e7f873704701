// Tests for the observability layer (src/obs): histogram bucketing, the
// associative/commutative metrics merge, the fixed-capacity TraceBuffer
// and its RT_OBS_SPAN_CAPACITY switch, span nesting, the exporters, and
// that the instrumented pipeline records identical metrics at any thread
// count while leaving the simulated stats untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/sweep.h"
#include "sim/link_sim.h"

namespace rt::obs {
namespace {

/// Sets RT_OBS_SPAN_CAPACITY (or unsets it, for nullopt) for one scope
/// and restores the caller's value on exit, so a developer's environment
/// cannot leak into these tests.
class ScopedSpanCapacityEnv {
 public:
  explicit ScopedSpanCapacityEnv(std::optional<std::string> value) {
    if (const char* old = std::getenv(kVar)) saved_ = old;
    apply(value);
  }
  ~ScopedSpanCapacityEnv() { apply(saved_); }
  ScopedSpanCapacityEnv(const ScopedSpanCapacityEnv&) = delete;
  ScopedSpanCapacityEnv& operator=(const ScopedSpanCapacityEnv&) = delete;

 private:
  static constexpr const char* kVar = "RT_OBS_SPAN_CAPACITY";
  static void apply(const std::optional<std::string>& v) {
    if (v) {
      ::setenv(kVar, v->c_str(), 1);
    } else {
      ::unsetenv(kVar);
    }
  }
  std::optional<std::string> saved_;
};

/// A recorder with room for `spans` span records (spans on).
Recorder recorder_with_spans(std::size_t spans) {
  Recorder rec;
  rec.trace = TraceBuffer(spans);
  return rec;
}

// ---------------------------------------------------------------------------
// HistogramData

TEST(HistogramTest, BucketIndexMapsOctaves) {
  // Bucket 0 collects non-positive and non-finite samples.
  EXPECT_EQ(HistogramData::bucket_index(0.0), 0);
  EXPECT_EQ(HistogramData::bucket_index(-3.5), 0);
  EXPECT_EQ(HistogramData::bucket_index(std::numeric_limits<double>::infinity()), 0);
  EXPECT_EQ(HistogramData::bucket_index(std::numeric_limits<double>::quiet_NaN()), 0);
  // 1.0 = 0.5 * 2^1 -> bucket 33, whose inclusive lower bound is 1.0.
  EXPECT_EQ(HistogramData::bucket_index(1.0), 33);
  EXPECT_EQ(HistogramData::bucket_lower_bound(33), 1.0);
  EXPECT_EQ(HistogramData::bucket_index(2.0), 34);
  EXPECT_EQ(HistogramData::bucket_index(0.75), 32);
  EXPECT_EQ(HistogramData::bucket_lower_bound(32), 0.5);
  // Extremes clamp into the first / last real bucket.
  EXPECT_EQ(HistogramData::bucket_index(std::numeric_limits<double>::denorm_min()), 1);
  EXPECT_EQ(HistogramData::bucket_index(1e300), HistogramData::kBuckets - 1);
  // Within the unclamped range the bucket's lower bound never exceeds
  // the sample (values below ~2^-32 clamp up into bucket 1).
  for (const double v : {1e-9, 0.1, 0.5, 1.0, 3.0, 64.0, 1e9}) {
    const int i = HistogramData::bucket_index(v);
    EXPECT_LE(HistogramData::bucket_lower_bound(i), v) << "v=" << v;
  }
}

TEST(HistogramTest, ObserveTracksCountMinMax) {
  HistogramData h;
  for (const double v : {2.0, 0.25, 8.0, 0.25}) h.observe(v);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.min, 0.25);
  EXPECT_EQ(h.max, 8.0);
  std::uint64_t total = 0;
  for (const auto b : h.buckets) total += b;
  EXPECT_EQ(total, h.count);
}

TEST(HistogramTest, MergeMatchesAnyPartition) {
  // 32 varied samples accumulated whole vs merged from partitions.
  std::vector<double> samples;
  for (int i = 0; i < 32; ++i) samples.push_back(0.01 * (i + 1) * (i % 7 + 1));
  HistogramData whole;
  for (const double v : samples) whole.observe(v);
  for (const int buckets : {1, 2, 3, 5, 32}) {
    std::vector<HistogramData> parts(static_cast<std::size_t>(buckets));
    for (std::size_t i = 0; i < samples.size(); ++i)
      parts[i % static_cast<std::size_t>(buckets)].observe(samples[i]);
    HistogramData merged;
    // Reverse merge order to also exercise commutativity.
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) merged.merge(*it);
    EXPECT_EQ(merged, whole) << "partitions=" << buckets;
  }
}

TEST(HistogramTest, DefaultIsTheMergeIdentity) {
  HistogramData h;
  h.observe(3.0);
  h.observe(0.5);
  const HistogramData copy = h;
  h.merge(HistogramData{});
  EXPECT_EQ(h, copy);
  HistogramData other;
  other.merge(copy);
  EXPECT_EQ(other, copy);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, AddAndObserveAccumulate) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add(Counter::kPacketsSimulated, 2);
  m.add(Counter::kPacketsSimulated, 3);
  m.observe(Histogram::kEqualizerResidual, 1.5);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.count(Counter::kPacketsSimulated), 5u);
  EXPECT_EQ(m.count(Counter::kBitErrors), 0u);
  EXPECT_EQ(m.histogram(Histogram::kEqualizerResidual).count, 1u);
  m.reset();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m, MetricsRegistry{});
}

TEST(MetricsRegistryTest, AnyPartitionMergesToTheWhole) {
  // Synthetic per-packet registries with varied contents, accumulated
  // whole vs merged from several partitions in reverse order -- the same
  // discipline LinkStats::merge is tested under.
  std::vector<MetricsRegistry> parts;
  MetricsRegistry whole;
  for (int i = 0; i < 16; ++i) {
    MetricsRegistry m;
    m.add(Counter::kPacketsSimulated, 1);
    m.add(Counter::kDfeBranchesExpanded, static_cast<std::uint64_t>(3 * i + 1));
    if (i % 5 == 0) m.add(Counter::kPreambleDetectFail, 1);
    m.observe(Histogram::kEqualizerResidual, 0.1 * (i + 1));
    m.observe(Histogram::kPreambleResidual, 1.0 / (i + 1));
    whole.merge(m);
    parts.push_back(m);
  }
  for (const int buckets : {1, 2, 3, 5, 16}) {
    std::vector<MetricsRegistry> acc(static_cast<std::size_t>(buckets));
    for (std::size_t i = 0; i < parts.size(); ++i)
      acc[i % static_cast<std::size_t>(buckets)].merge(parts[i]);
    MetricsRegistry merged;
    for (auto it = acc.rbegin(); it != acc.rend(); ++it) merged.merge(*it);
    EXPECT_EQ(merged, whole) << "partitions=" << buckets;
  }
}

TEST(MetricsRegistryTest, InfoTablesCoverEveryEnumerator) {
  // The export tables are indexed by enumerator; a new Counter/Histogram
  // without a table entry would export a null name.
  for (const auto& info : kCounterInfo) {
    EXPECT_NE(info.name, nullptr);
    EXPECT_NE(info.unit, nullptr);
  }
  for (const auto& info : kHistogramInfo) {
    EXPECT_NE(info.name, nullptr);
    EXPECT_NE(info.unit, nullptr);
  }
  EXPECT_FALSE(kHistogramInfo[static_cast<std::size_t>(Histogram::kQueueWaitUs)].deterministic);
}

// ---------------------------------------------------------------------------
// TraceBuffer

TEST(TraceBufferTest, DropsBeyondCapacityAndCounts) {
  TraceBuffer buf(4);
  EXPECT_EQ(buf.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    const bool ok = buf.push({"span_test", i, 1, 0, 0});
    EXPECT_EQ(ok, i < 4);
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 2u);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_TRUE(buf.push({"span_test", 9, 1, 0, 0}));
}

TEST(TraceBufferTest, DefaultCapacityIsHonored) {
  {
    // Unset: spans are off and a buffer reserves nothing.
    const ScopedSpanCapacityEnv env(std::nullopt);
    EXPECT_EQ(TraceBuffer::default_capacity(), 0u);
    EXPECT_EQ(TraceBuffer().capacity(), 0u);
  }
  {
    const ScopedSpanCapacityEnv env("64");
    EXPECT_EQ(TraceBuffer().capacity(), 64u);
  }
  // A malformed value reads as unset.
  const ScopedSpanCapacityEnv env("64k");
  EXPECT_EQ(TraceBuffer().capacity(), 0u);
}

TEST(TraceBufferTest, ParseCapacityAcceptsOnlyWholeDecimalCounts) {
  EXPECT_EQ(TraceBuffer::parse_capacity(""), 0u);
  EXPECT_EQ(TraceBuffer::parse_capacity("0"), 0u);
  EXPECT_EQ(TraceBuffer::parse_capacity("64"), 64u);
  EXPECT_EQ(TraceBuffer::parse_capacity("64k"), 0u);
  EXPECT_EQ(TraceBuffer::parse_capacity("-1"), 0u);
  EXPECT_EQ(TraceBuffer::parse_capacity("1e6"), 0u);
  EXPECT_EQ(TraceBuffer::parse_capacity("123456789012345678901234567890"), 0u);
  // Fits in size_t, but no span buffer can reserve that many records.
  const std::size_t too_many = std::vector<SpanRecord>().max_size() + 1;
  EXPECT_EQ(TraceBuffer::parse_capacity(std::to_string(too_many)), 0u);
}

// ---------------------------------------------------------------------------
// Instrumentation macros: harmless with or without a bound recorder.

TEST(MacroTest, MacrosAreSafeWithNoRecorderBound) {
  RT_TRACE_SPAN("unbound_test");
  RT_OBS_COUNT(kPacketsSimulated, 1);
  RT_OBS_OBSERVE(kEqualizerResidual, 1.0);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Exporters.

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ExportTest, ChromeTraceAndMetricsJsonAreWellFormed) {
  std::vector<SpanRecord> spans;
  spans.push_back({"inner_test", 1500, 400, 0, 1});
  spans.push_back({"outer_test", 1000, 2000, 0, 0});
  MetricsRegistry m;
  m.add(Counter::kPacketsSimulated, 7);
  m.observe(Histogram::kEqualizerResidual, 0.5);
  m.observe(Histogram::kEqualizerResidual, 3.0);

  const auto dir = std::filesystem::temp_directory_path();
  const auto trace_path = dir / "rt_test_obs_trace.json";
  const auto metrics_path = dir / "rt_test_obs_metrics.json";
  write_chrome_trace(trace_path.string(), spans);
  write_metrics_json(metrics_path.string(), m, spans);

  const std::string trace = slurp(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"inner_test\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"depth\":1}"), std::string::npos);

  const std::string metrics = slurp(metrics_path);
  EXPECT_NE(metrics.find("\"schema\": \"rt-metrics-v2\""), std::string::npos);
  EXPECT_NE(metrics.find("\"packets_simulated\": 7"), std::string::npos);
  EXPECT_NE(metrics.find("\"equalizer_residual\""), std::string::npos);
  EXPECT_NE(metrics.find("\"count\": 2"), std::string::npos);
  // Per-stage aggregates from the span list (one entry per span name).
  EXPECT_NE(metrics.find("\"stages\""), std::string::npos);
  EXPECT_NE(metrics.find("\"inner_test\": {\"calls\": 1, \"total_us\": 0.4"), std::string::npos);
  EXPECT_NE(metrics.find("\"outer_test\": {\"calls\": 1, \"total_us\": 2"), std::string::npos);
  // Every counter exports, even zero-valued ones (fixed schema).
  EXPECT_NE(metrics.find("\"trace_spans_dropped\": 0"), std::string::npos);
  std::filesystem::remove(trace_path);
  std::filesystem::remove(metrics_path);
}

TEST(ExportTest, FoldedStacksRebuildChainsAndAggregate) {
  // Two decode passes on thread 0, one with a nested sync span (records
  // close children-first, so the child precedes its parent here), plus a
  // root-level scan on thread 1 that must not inherit thread 0's stack.
  std::vector<SpanRecord> spans;
  spans.push_back({"sync_test", 1200, 300, 0, 1});
  spans.push_back({"decode_test", 1000, 2000, 0, 0});
  spans.push_back({"decode_test", 4000, 1000, 0, 0});
  spans.push_back({"scan_test", 500, 4000, 1, 0});

  const auto path = std::filesystem::temp_directory_path() / "rt_test_obs_folded.txt";
  write_folded_stacks(path.string(), spans);
  const std::string folded = slurp(path);
  // Inclusive aggregation: both decode spans merge into one line; the
  // nested span keeps its full chain; values are rounded microseconds.
  EXPECT_NE(folded.find("decode_test 3\n"), std::string::npos);
  EXPECT_NE(folded.find("decode_test;sync_test 0\n"), std::string::npos);
  EXPECT_NE(folded.find("scan_test 4\n"), std::string::npos);
  // No cross-thread chain leaked.
  EXPECT_EQ(folded.find("decode_test;scan_test"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ExportTest, StageSummaryPrintsAggregatedStages) {
  std::vector<SpanRecord> spans;
  spans.push_back({"dfe_test", 0, 2000, 0, 0});
  spans.push_back({"dfe_test", 3000, 4000, 0, 0});
  MetricsRegistry m;
  m.add(Counter::kLsSolves, 3);
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  print_stage_summary(tmp, m, spans);
  std::rewind(tmp);
  std::string text;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), tmp) != nullptr) text += buf;
  std::fclose(tmp);
  EXPECT_NE(text.find("dfe_test"), std::string::npos);
  EXPECT_NE(text.find("ls_solves"), std::string::npos);
  // Zero-valued counters are suppressed in the human-readable summary.
  EXPECT_EQ(text.find("pixel_cal_solves"), std::string::npos);
}

TEST(ExportTest, StageSummaryIsSilentWhenEmpty) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  print_stage_summary(tmp, MetricsRegistry{}, {});
  std::rewind(tmp);
  char buf[8];
  EXPECT_EQ(std::fgets(buf, sizeof(buf), tmp), nullptr);
  std::fclose(tmp);
}

// ---------------------------------------------------------------------------
// Pipeline-level coverage. A small-but-real link configuration (the same
// shape test_runtime's determinism tests use) keeps these fast.

phy::PhyParams fast_params() {
  phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  return p;
}

std::vector<runtime::SweepPoint> fast_points() {
  const auto params = fast_params();
  const auto tag = params.tag_config();
  const auto offline = sim::train_offline_model(params, tag);
  std::vector<runtime::SweepPoint> points;
  for (const double snr : {14.0, 30.0}) {
    runtime::SweepPoint pt;
    pt.params = params;
    pt.tag = tag;
    pt.channel.snr_override_db = snr;
    pt.channel.noise_seed = static_cast<std::uint64_t>(snr);
    pt.sim.seed = 7;
    pt.sim.offline_yaws_deg = {0.0};
    pt.sim.shared_offline_model = offline;
    points.push_back(pt);
  }
  return points;
}

/// Zeroes the metrics a thread-count comparison may not rely on: the
/// queue-wait histogram is wall-clock (flagged non-deterministic in
/// kHistogramInfo) and span drops depend on batch timing only through the
/// buffer, never on the data.
void zero_nondeterministic(MetricsRegistry& m) {
  m.histogram(Histogram::kQueueWaitUs).reset();
  m.counters[static_cast<std::size_t>(Counter::kTraceSpansDropped)] = 0;
}

TEST(ObsSweepTest, StatsAndMetricsMatchAcrossThreadCounts) {
  // The sweep's simulated stats and data-derived metrics must not depend
  // on the thread count. Spans are switched on for the worker recorders,
  // which each private pool creates on fresh threads.
  const ScopedSpanCapacityEnv env("4096");
  const auto points = fast_points();
  runtime::SweepOptions so;
  so.packets = 4;
  so.payload_bytes = 16;
  so.threads = 1;
  const auto serial = runtime::parallel_sweep(points, so);
  so.threads = 4;
  const auto parallel = runtime::parallel_sweep(points, so);
  ASSERT_EQ(serial.stats.size(), parallel.stats.size());
  for (std::size_t i = 0; i < serial.stats.size(); ++i) {
    EXPECT_EQ(serial.stats[i].packets, parallel.stats[i].packets);
    EXPECT_EQ(serial.stats[i].preamble_failures, parallel.stats[i].preamble_failures);
    EXPECT_EQ(serial.stats[i].bit_errors, parallel.stats[i].bit_errors);
    EXPECT_EQ(serial.stats[i].total_bits, parallel.stats[i].total_bits);
  }

  // Data-derived metrics are bit-identical at any thread count once the
  // wall-clock-fed pieces are zeroed out.
  MetricsRegistry a = serial.metrics;
  MetricsRegistry b = parallel.metrics;
  EXPECT_FALSE(a.empty());
  zero_nondeterministic(a);
  zero_nondeterministic(b);
  EXPECT_EQ(a, b);
  const std::uint64_t expected_packets =
      static_cast<std::uint64_t>(points.size()) * static_cast<std::uint64_t>(so.packets);
  EXPECT_EQ(a.count(Counter::kPacketsSimulated), expected_packets);
  EXPECT_GT(a.count(Counter::kPayloadBits), 0u);
  EXPECT_GT(a.count(Counter::kDfeBranchesExpanded), 0u);
  EXPECT_GT(a.count(Counter::kTrainingSolves), 0u);
  EXPECT_FALSE(serial.trace.empty());
  EXPECT_FALSE(parallel.trace.empty());
  EXPECT_EQ(serial.metrics.count(Counter::kTraceSpansDropped), 0u);
  EXPECT_EQ(parallel.metrics.count(Counter::kTraceSpansDropped), 0u);
}

TEST(SpanScopeTest, RecordsNestedSpansInClosingOrder) {
  Recorder rec = recorder_with_spans(16);
  {
    const ScopedBind bind(rec);
    RT_TRACE_SPAN("outer_test");
    { RT_TRACE_SPAN("inner_test"); }
  }
  ASSERT_EQ(rec.trace.size(), 2u);
  const auto spans = rec.trace.spans();
  // Spans land at scope exit: children close (and record) before parents.
  EXPECT_STREQ(spans[0].name, "inner_test");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_STREQ(spans[1].name, "outer_test");
  EXPECT_EQ(spans[1].depth, 0);
  // The child interval nests inside the parent interval.
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].start_ns + spans[0].dur_ns, spans[1].start_ns + spans[1].dur_ns);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_EQ(rec.open_depth, 0);
}

TEST(SpanScopeTest, UnboundSpansRecordNothing) {
  const Recorder rec = recorder_with_spans(16);
  { RT_TRACE_SPAN("never_bound_test"); }
  EXPECT_EQ(rec.trace.size(), 0u);
  EXPECT_EQ(current_recorder(), nullptr);
}

TEST(SpanScopeTest, BindingNestsAndRestores) {
  Recorder a = recorder_with_spans(16);
  Recorder b = recorder_with_spans(16);
  {
    const ScopedBind bind_a(a);
    EXPECT_EQ(current_recorder(), &a);
    {
      const ScopedBind bind_b(b);
      EXPECT_EQ(current_recorder(), &b);
      RT_TRACE_SPAN("goes_to_b_test");
    }
    EXPECT_EQ(current_recorder(), &a);
  }
  EXPECT_EQ(current_recorder(), nullptr);
  EXPECT_EQ(a.trace.size(), 0u);
  EXPECT_EQ(b.trace.size(), 1u);
}

TEST(SpanScopeTest, FullBufferCountsDropsInTheRegistry) {
  Recorder rec = recorder_with_spans(8);
  const ScopedBind bind(rec);
  const std::size_t cap = rec.trace.capacity();
  for (std::size_t i = 0; i < cap + 5; ++i) {
    RT_TRACE_SPAN("fill_test");
  }
  EXPECT_EQ(rec.trace.size(), cap);
  EXPECT_EQ(rec.trace.dropped(), 5u);
  EXPECT_EQ(rec.metrics.count(Counter::kTraceSpansDropped), 5u);
  rec.clear();
  EXPECT_EQ(rec.trace.size(), 0u);
  EXPECT_TRUE(rec.metrics.empty());
}

TEST(ObsPipelineTest, StageSpansCoverThePipelineAndNestWellFormed) {
  const auto points = fast_points();
  const auto& pt = points[1];  // high SNR: preamble always found
  const sim::LinkSimulator link(pt.params, pt.tag, pt.channel, pt.sim);
  sim::PacketWorkspace ws;
  ws.obs = recorder_with_spans(1024);
  (void)link.run_packet(0, 16, ws);  // warm-up
  ws.obs.clear();
  const auto out = link.run_packet(1, 16, ws);
  EXPECT_TRUE(out.preamble_found);

  const auto spans = ws.obs.trace.spans();
  ASSERT_FALSE(spans.empty());
  // Every receive stage shows up, and the root "packet" span closes last.
  for (const char* stage : {"packet", "modulate", "channel", "lc_synthesize",
                            "preamble_detect", "preamble_correct", "train", "dfe",
                            "unmap", "demodulate"}) {
    bool found = false;
    for (const auto& s : spans) found = found || std::string_view(s.name) == stage;
    EXPECT_TRUE(found) << "missing span: " << stage;
  }
  EXPECT_STREQ(spans.back().name, "packet");
  EXPECT_EQ(spans.back().depth, 0);

  // Well-formed nesting: every depth-d>0 span is contained in a span of
  // depth d-1 that closes after it (records are in closing order).
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].depth == 0) continue;
    bool contained = false;
    for (std::size_t j = i + 1; j < spans.size() && !contained; ++j) {
      contained = spans[j].depth == spans[i].depth - 1 && spans[j].tid == spans[i].tid &&
                  spans[j].start_ns <= spans[i].start_ns &&
                  spans[j].start_ns + spans[j].dur_ns >= spans[i].start_ns + spans[i].dur_ns;
    }
    EXPECT_TRUE(contained) << "orphan span " << spans[i].name << " at index " << i;
  }

  // The per-packet counters landed in the same recorder.
  EXPECT_EQ(ws.obs.metrics.count(Counter::kPacketsSimulated), 1u);
  EXPECT_GT(ws.obs.metrics.count(Counter::kDfeBranchesExpanded), 0u);
  EXPECT_EQ(ws.obs.metrics.histogram(Histogram::kEqualizerResidual).count, 1u);
}

TEST(ObsPipelineTest, RecorderWithoutSpanStorageCountsOnly) {
  // The default: a bound recorder with no span storage still records
  // every counter and histogram, but no span and no span drop.
  const auto points = fast_points();
  const auto& pt = points[1];
  const sim::LinkSimulator link(pt.params, pt.tag, pt.channel, pt.sim);
  sim::PacketWorkspace ws;
  ws.obs = recorder_with_spans(0);
  const auto out = link.run_packet(0, 16, ws);
  EXPECT_TRUE(out.preamble_found);
  EXPECT_EQ(ws.obs.metrics.count(Counter::kPacketsSimulated), 1u);
  EXPECT_GT(ws.obs.metrics.count(Counter::kDfeBranchesExpanded), 0u);
  EXPECT_EQ(ws.obs.metrics.histogram(Histogram::kEqualizerResidual).count, 1u);
  EXPECT_EQ(ws.obs.trace.size(), 0u);
  EXPECT_EQ(ws.obs.trace.dropped(), 0u);
  EXPECT_EQ(ws.obs.metrics.count(Counter::kTraceSpansDropped), 0u);
  EXPECT_EQ(ws.obs.open_depth, 0);
}

TEST(ObsPipelineTest, SerialWorkspaceLoopMatchesSweepMetrics) {
  // The sweep's merged registry must equal a plain serial run_packet loop
  // over the same indices -- observability obeys the same partition
  // discipline as LinkStats.
  const auto points = fast_points();
  runtime::SweepOptions so;
  so.packets = 4;
  so.payload_bytes = 16;
  so.threads = 3;
  so.batch_packets = 2;
  const auto sweep = runtime::parallel_sweep(points, so);

  MetricsRegistry serial;
  for (const auto& pt : points) {
    const sim::LinkSimulator link(pt.params, pt.tag, pt.channel, pt.sim);
    sim::PacketWorkspace ws;
    for (int i = 0; i < so.packets; ++i) {
      ws.obs.clear();
      (void)link.run_packet(static_cast<std::uint64_t>(i), so.payload_bytes, ws);
      serial.merge(ws.obs.metrics);
    }
  }

  MetricsRegistry merged = sweep.metrics;
  zero_nondeterministic(merged);
  // The serial loop never executes sweep batches or waits on a queue.
  merged.counters[static_cast<std::size_t>(Counter::kSweepBatches)] = 0;
  zero_nondeterministic(serial);
  EXPECT_EQ(merged, serial);
}

// ---------------------------------------------------------------------------
// Golden lockdown: the simulated outcome of a fixed-seed run. Recording
// counters and spans must never perturb the data path.

TEST(ObsGoldenTest, FixedSeedStatsMatchTheRecordedBaseline) {
  const auto points = fast_points();
  auto pt = points[0];
  pt.channel.snr_override_db = 4.0;  // low enough for nonzero error counts
  const sim::LinkSimulator link(pt.params, pt.tag, pt.channel, pt.sim);
  const auto stats = link.run(6, 16);
  EXPECT_EQ(stats.packets, 6);
  // Golden values; every build must reproduce them bit-for-bit.
  EXPECT_EQ(stats.preamble_failures, 0);
  EXPECT_EQ(stats.bit_errors, 83u);
  EXPECT_EQ(stats.total_bits, 768u);
}

}  // namespace
}  // namespace rt::obs
