// Microbenchmark: streaming receiver throughput + detection quality.
//
// Runs the sample-level streaming receiver (src/stream) over three
// synthetic streams built from the same channel the packet benches use:
//   frames+noise    N rendered packets separated by idle-channel gaps --
//                   decode throughput (samples/sec, x-realtime) and
//                   payload fidelity against the scenario ground truth;
//   frames+garbage  the same packets separated by random tag-like firing
//                   bursts -- the soft SOF matcher must reject every
//                   burst (false alarms) without losing real frames;
//   pure noise      an idle channel of the same length -- the continuous
//                   preamble scan must stay quiet (scan throughput).
// Exits non-zero if any real frame is missed or any false frame is
// emitted. Emits BENCH_streaming_rx.json plus the stream_* counters and,
// with spans on, the stream_scan/stream_sync/stream_decode stage spans
// (BENCH_streaming_rx.metrics.json, compared against the committed
// baseline in CI).
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "lcm/tag_array.h"
#include "stream/sim_source.h"
#include "stream/streaming_receiver.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kChunk = 4096;  // samples per push (a typical SDR buffer)

/// Counts frames and payload bit errors against the scenario truth.
struct TruthSink final : rt::stream::FrameSink {
  const rt::stream::StreamTruth* truth = nullptr;
  std::size_t frames = 0;
  std::size_t bit_errors = 0;
  void on_frame(const rt::stream::StreamFrame& f) override {
    if (truth != nullptr && frames < truth->frames.size()) {
      const auto& t = truth->frames[frames];
      for (std::size_t i = 0; i < t.payload_bits && i < f.bits.size(); ++i)
        bit_errors += f.bits[i] != truth->payload_bits[t.first_payload_bit + i] ? 1 : 0;
    }
    ++frames;
  }
};

/// Pushes the whole waveform through `rx` in kChunk-sized pieces.
void run_stream(rt::stream::StreamingReceiver& rx, const rt::sig::IqWaveform& wave,
                TruthSink& sink) {
  const std::span<const rt::sig::Complex> all(wave.samples);
  for (std::size_t off = 0; off < all.size(); off += kChunk)
    rx.push_samples(all.subspan(off, std::min(kChunk, all.size() - off)), sink);
  rx.flush(sink);
}

}  // namespace

int main() {
  using namespace rt;
  bench::BenchReport report("streaming_rx");
  bench::print_header("Microbenchmark: streaming receiver (scan/sync/decode)",
                      "engineering (no paper figure); streaming front-end tracking",
                      "all real frames decoded, zero false alarms in noise/garbage");

  phy::PhyParams p = phy::PhyParams::rate_8kbps();
  lcm::TagConfig tag = bench::realistic_tag(p);
  sim::ChannelConfig ch;
  ch.snr_override_db = 14.0;
  ch.noise_seed = 7;
  sim::SimOptions so;
  so.seed = 42;
  const sim::LinkSimulator sim(p, tag, ch, so);

  const std::size_t payload = bench::payload_bytes();
  const int packets = std::max(4, bench::packets_per_point());

  // --- frames + noise gaps: throughput and fidelity --------------------
  stream::StreamScenario noise_sc;
  noise_sc.packets = packets;
  noise_sc.payload_bytes = payload;
  noise_sc.gap = stream::StreamScenario::Gap::kNoise;
  noise_sc.gap_slots = 48;
  const auto noise_truth = stream::build_stream(sim, noise_sc);

  stream::StreamOptions opts;
  opts.payload_slots = noise_truth.payload_slots;
  stream::StreamingReceiver rx(sim.demodulator(), opts);

  TruthSink warm;
  warm.truth = &noise_truth;
  run_stream(rx, noise_truth.waveform, warm);  // warm-up: buffers reach capacity

  TruthSink timed;
  timed.truth = &noise_truth;
  const auto t0 = Clock::now();
  run_stream(rx, noise_truth.waveform, timed);
  const double stream_s = seconds_since(t0);
  report.add_recorder(rx.recorder());

  const double samples = static_cast<double>(noise_truth.waveform.size());
  const double samples_per_s = samples / stream_s;
  const double realtime = samples_per_s / p.sample_rate_hz;
  const std::size_t missed = static_cast<std::size_t>(packets) - timed.frames;

  // --- frames + garbage gaps: SOF rejection under structured energy ----
  stream::StreamScenario garbage_sc = noise_sc;
  garbage_sc.gap = stream::StreamScenario::Gap::kGarbage;
  garbage_sc.gap_slots = 96;
  const auto garbage_truth = stream::build_stream(sim, garbage_sc);
  stream::StreamingReceiver garbage_rx(sim.demodulator(), opts);
  TruthSink garbage_sink;
  garbage_sink.truth = &garbage_truth;
  run_stream(garbage_rx, garbage_truth.waveform, garbage_sink);
  report.add_recorder(garbage_rx.recorder());
  const std::size_t garbage_false =
      garbage_sink.frames > static_cast<std::size_t>(packets)
          ? garbage_sink.frames - static_cast<std::size_t>(packets)
          : 0;
  const std::size_t garbage_missed =
      garbage_sink.frames < static_cast<std::size_t>(packets)
          ? static_cast<std::size_t>(packets) - garbage_sink.frames
          : 0;

  // --- pure noise, same length: scan throughput and false alarms -------
  Rng noise_rng(split_seed(ch.noise_seed, 0, 99));
  lcm::SynthScratch scratch;
  sig::IqWaveform idle;
  const double idle_duration = samples / p.sample_rate_hz;
  sim.channel().synthesize_into({}, idle_duration, &noise_rng, scratch, idle);
  stream::StreamingReceiver idle_rx(sim.demodulator(), opts);
  TruthSink idle_sink;
  const auto t1 = Clock::now();
  run_stream(idle_rx, idle, idle_sink);
  const double idle_s = seconds_since(t1);
  report.add_recorder(idle_rx.recorder());
  const double idle_samples_per_s = static_cast<double>(idle.size()) / idle_s;

  std::printf("frames+noise  : %8.0f samples/sec (%.1fx realtime), %zu/%d frames, "
              "%zu payload bit errors\n",
              samples_per_s, realtime, timed.frames, packets, timed.bit_errors);
  std::printf("frames+garbage: %zu/%d frames, %zu false alarms, %llu SOF rejects\n",
              garbage_sink.frames - garbage_false, packets, garbage_false,
              static_cast<unsigned long long>(garbage_rx.stats().sof_rejects));
  std::printf("pure noise    : %8.0f samples/sec scan, %zu false alarms\n", idle_samples_per_s,
              idle_sink.frames);

  report.add_scalar("samples_per_s_stream", samples_per_s);
  report.add_scalar("realtime_factor", realtime);
  report.add_scalar("samples_per_s_scan_noise", idle_samples_per_s);
  report.add_scalar("frames_decoded", static_cast<double>(timed.frames));
  report.add_scalar("frames_missed", static_cast<double>(missed));
  report.add_scalar("payload_bit_errors", static_cast<double>(timed.bit_errors));
  report.add_scalar("garbage_false_alarms", static_cast<double>(garbage_false));
  report.add_scalar("garbage_frames_missed", static_cast<double>(garbage_missed));
  report.add_scalar("noise_false_alarms", static_cast<double>(idle_sink.frames));
  report.add_scalar("sof_rejects_garbage",
                    static_cast<double>(garbage_rx.stats().sof_rejects));
  report.write();

  bool ok = true;
  if (missed != 0 || garbage_missed != 0) {
    std::fprintf(stderr, "FAIL: streaming receiver missed real frames (noise gaps: %zu, "
                 "garbage gaps: %zu)\n", missed, garbage_missed);
    ok = false;
  }
  if (garbage_false != 0 || idle_sink.frames != 0) {
    std::fprintf(stderr, "FAIL: streaming receiver emitted false frames (garbage: %zu, "
                 "noise: %zu)\n", garbage_false, idle_sink.frames);
    ok = false;
  }
  return ok ? 0 : 1;
}
