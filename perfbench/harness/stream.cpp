// stream_8k: one caller pushes 4096-sample chunks of a prebuilt 8 kbps
// stream into a StreamingReceiver. The stream alternates segments whose
// inter-frame gaps (about one frame long) are idle-channel noise or
// garbage (random tag-like firings). Emitted frames are matched to the
// ground truth by start sample.
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <optional>

#include "harness/replay.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "phy/frame.h"
#include "runtime/thread_pool.h"
#include "sim/link_sim.h"
#include "stream/sim_source.h"
#include "stream/streaming_receiver.h"

namespace perfbench {

namespace {

using rt::stream::StreamingReceiver;

constexpr std::size_t kChunk = 4096;  // samples per push (a typical SDR buffer)
constexpr int kSegments = 4;          // noise, garbage, noise, garbage
/// 120 frames: over 100 of them decode, which makes the latency tail p90.
constexpr int kFramesPerSegment = 30;
/// Untraced passes that always run whole (latency = fastest of these).
constexpr std::uint64_t kFullPasses = 3;
constexpr int kReplayFrames = 8;
constexpr std::uint64_t kGarbageSeed = 7;  // traced run: frames re-rendered and replayed stage by stage

struct Stream {
  rt::stream::StreamTruth truth;
  std::vector<std::unique_ptr<rt::sim::LinkSimulator>> sims;  // one per segment
  std::vector<std::size_t> first_frame;                       // per segment
  std::vector<char> gap_only;  ///< per chunk: overlaps no true frame window
};

/// Delivered frames, with the wall time and the chunk each arrived in.
class RecordingSink final : public rt::stream::FrameSink {
 public:
  explicit RecordingSink(std::size_t payload_bits) : payload_bits_(payload_bits) {}
  void on_frame(const rt::stream::StreamFrame& f) override {
    at.push_back(Clock::now());
    starts.push_back(f.start_sample);
    in_chunk.push_back(chunk);
    const std::size_t n = std::min(payload_bits_, f.bits.size());
    bits.insert(bits.end(), f.bits.begin(), f.bits.begin() + static_cast<std::ptrdiff_t>(n));
    bits.resize(starts.size() * payload_bits_, 2);  // short frames: pad with non-bits
  }
  std::size_t chunk = 0;  ///< global index of the chunk being pushed
  std::vector<Clock::time_point> at;
  std::vector<std::uint64_t> starts;
  std::vector<std::size_t> in_chunk;
  std::vector<std::uint8_t> bits;

 private:
  std::size_t payload_bits_;
};

/// Per-chunk record of a push run.
struct ChunkLog {
  std::vector<Clock::time_point> start;
  std::vector<double> seconds;
  std::vector<double> samples;
  std::vector<char> idle;  ///< gap-only chunk, receiver SEARCHING before and after
};

/// Pushes one pass of `s` into a fresh receiver in kChunk pieces. Stops
/// early once `stop_at` passes; a full pass ends with flush(). Returns
/// whether the pass completed.
bool push_pass(StreamingReceiver& rx, const Stream& s, RecordingSink& sink, ChunkLog& log,
               Tracer* tracer, Clock::time_point stop_at) {
  const std::span<const rt::sig::Complex> all(s.truth.waveform.samples);
  for (std::size_t off = 0, c = 0; off < all.size(); off += kChunk, ++c) {
    if (Clock::now() >= stop_at) return false;
    const auto chunk = all.subspan(off, std::min(kChunk, all.size() - off));
    const bool searching = rx.state() == StreamingReceiver::State::kSearching;
    sink.chunk = log.start.size();
    log.start.push_back(Clock::now());
    Tracer::Scope span(tracer, Layer::kStream, "push_samples", static_cast<std::int64_t>(sink.chunk));
    rx.push_samples(chunk, sink);
    log.seconds.push_back(span.stop() / 1e3);
    log.samples.push_back(static_cast<double>(chunk.size()));
    log.idle.push_back(searching && s.gap_only[c] != 0 &&
                       rx.state() == StreamingReceiver::State::kSearching);
  }
  Tracer::Scope span(tracer, Layer::kStream, "flush", -1);
  rx.flush(sink);
  return true;
}

/// Emitted frames of one pass matched against the truth, with the
/// payload bit errors of the true frames it delivered.
struct PassQuality {
  FrameMatch match;
  std::uint64_t bit_errors = 0;
  std::uint64_t bits = 0;
};

PassQuality judge_pass(const Stream& s, const RecordingSink& sink, std::size_t first_emitted,
                       std::size_t last_emitted, std::size_t payload_bits,
                       std::uint64_t tolerance) {
  const std::vector<std::uint64_t> emitted(
      sink.starts.begin() + static_cast<std::ptrdiff_t>(first_emitted),
      sink.starts.begin() + static_cast<std::ptrdiff_t>(last_emitted));
  std::vector<std::uint64_t> truth;
  for (const auto& f : s.truth.frames) truth.push_back(f.start_sample);
  PassQuality q;
  q.match = match_frames(emitted, truth, tolerance);
  for (std::size_t e = 0; e < emitted.size(); ++e) {
    const auto t = q.match.truth_of[e];
    if (t < 0) continue;
    q.bits += payload_bits;
    const auto& f = s.truth.frames[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < payload_bits; ++i)
      q.bit_errors += sink.bits[(first_emitted + e) * payload_bits + i] !=
                      s.truth.payload_bits[f.first_payload_bit + i];
  }
  return q;
}

/// Builds the stream: kSegments segments rendered in parallel, each from
/// its own simulator (same PHY, tag and offline model; seeds from the run
/// seed), concatenated with the truth re-based.
Stream build(const RunConfig& cfg, const rt::sim::LinkSimulator& main_sim, int gap_slots) {
  const auto& p = main_sim.params();
  Stream s;
  rt::runtime::ThreadPool pool(std::min<unsigned>(rt::runtime::hardware_threads(), kSegments));
  std::vector<std::future<rt::stream::StreamTruth>> parts;
  for (int j = 0; j < kSegments; ++j) {
    rt::sim::ChannelConfig ch;
    ch.snr_override_db = kLink8kSnrDb;
    ch.noise_seed = input_seed(cfg, 20 + static_cast<std::uint64_t>(j));
    rt::sim::SimOptions so;
    so.seed = input_seed(cfg, 10 + static_cast<std::uint64_t>(j));
    so.shared_offline_model = main_sim.demodulator().offline_model();
    s.sims.push_back(std::make_unique<rt::sim::LinkSimulator>(p, realistic_tag(p), ch, so));
    rt::stream::StreamScenario sc;
    sc.packets = kFramesPerSegment;
    sc.payload_bytes = kPayloadBytes;
    sc.gap = j % 2 == 0 ? rt::stream::StreamScenario::Gap::kNoise
                        : rt::stream::StreamScenario::Gap::kGarbage;
    sc.gap_slots = gap_slots;
    sc.lead_in_slots = gap_slots / 2;
    sc.tail_slots = gap_slots / 2;
    // Garbage gaps replay one fixed interference recording per segment, so
    // the false-frame count is not at the mercy of the seed; the frames
    // (payloads, padding, noise) and the noise gaps come from the seed.
    sc.gap_seed = sc.gap == rt::stream::StreamScenario::Gap::kGarbage
                      ? kGarbageSeed + static_cast<std::uint64_t>(j)
                      : input_seed(cfg, 30 + static_cast<std::uint64_t>(j));
    const rt::sim::LinkSimulator* sim = s.sims.back().get();
    parts.push_back(pool.submit([sim, sc] { return rt::stream::build_stream(*sim, sc); }));
  }
  std::vector<rt::stream::StreamTruth> truths;
  std::size_t total = 0;
  for (auto& part : parts) {
    truths.push_back(part.get());
    total += truths.back().waveform.size();
  }
  s.truth.waveform.sample_rate_hz = p.sample_rate_hz;
  s.truth.waveform.samples.reserve(total);
  for (const auto& t : truths) {
    const std::uint64_t offset = s.truth.waveform.size();
    const std::size_t bit_offset = s.truth.payload_bits.size();
    s.first_frame.push_back(s.truth.frames.size());
    for (auto f : t.frames) {
      f.start_sample += offset;
      f.packet_offset += offset;
      f.first_payload_bit += bit_offset;
      s.truth.frames.push_back(f);
    }
    s.truth.waveform.samples.insert(s.truth.waveform.samples.end(), t.waveform.samples.begin(),
                                    t.waveform.samples.end());
    s.truth.payload_bits.insert(s.truth.payload_bits.end(), t.payload_bits.begin(),
                                t.payload_bits.end());
    s.truth.payload_slots = t.payload_slots;
  }
  return s;
}

}  // namespace

WorkloadResult run_stream_8k(const RunConfig& cfg, Tracer* tracer) {
  WorkloadResult r;
  const double rss0 = rss_mb();
  const auto p = rt::phy::PhyParams::rate_8kbps();
  const std::size_t payload_bits = kPayloadBytes * 8;
  const int payload_slots =
      static_cast<int>((payload_bits + static_cast<std::size_t>(p.bits_per_slot()) - 1) /
                       static_cast<std::size_t>(p.bits_per_slot()));
  const auto layout = rt::phy::FrameLayout::for_params(p, payload_slots);
  const std::size_t spslot = p.samples_per_slot();
  const std::size_t frame_samples = static_cast<std::size_t>(layout.total_slots()) * spslot;
  const std::size_t window_tail = frame_samples + p.samples_per_symbol();

  rt::sim::ChannelConfig ch;
  ch.snr_override_db = kLink8kSnrDb;
  ch.noise_seed = input_seed(cfg, 1);
  rt::sim::SimOptions so;
  so.seed = input_seed(cfg, 2);
  rt::stream::StreamOptions opts;
  opts.payload_slots = payload_slots;

  std::optional<rt::sim::LinkSimulator> sim;
  std::optional<StreamingReceiver> rx;
  std::vector<double> sim_s, rx_ms;
  const auto setups = time_setups(kSetupReps, [&] {
    const auto t0 = Clock::now();
    sim.emplace(p, realistic_tag(p), ch, so);
    const auto t1 = Clock::now();
    rx.emplace(sim->demodulator(), opts);
    sim_s.push_back(ms_between(t0, t1) / 1e3);
    rx_ms.push_back(ms_between(t1, Clock::now()));
  });

  // Inputs (not set-up): the stream and its truth.
  const auto t_inputs = Clock::now();
  Stream s = build(cfg, *sim, layout.total_slots());
  std::printf("stream inputs: %zu frames, %zu samples, built in %.2f s\n", s.truth.frames.size(),
              s.truth.waveform.size(), seconds_since(t_inputs));
  r.check(s.truth.payload_slots == payload_slots, "stream frame geometry != receiver geometry");
  const std::size_t chunks = (s.truth.waveform.size() + kChunk - 1) / kChunk;
  s.gap_only.assign(chunks, 1);
  for (const auto& f : s.truth.frames)
    for (std::size_t c = f.packet_offset / kChunk;
         c < chunks && c * kChunk < f.start_sample + window_tail; ++c)
      s.gap_only[c] = 0;
  const double stream_air_s =
      static_cast<double>(s.truth.waveform.size()) / p.sample_rate_hz;
  const std::uint64_t tolerance = spslot / 2;

  // Untraced run: passes, each into a fresh receiver, until the run
  // length is spent; the first kFullPasses always run whole. Pass 0 sets
  // the quality metrics; later passes must decode exactly as pass 0 did.
  // A true frame's decode latency is its fastest over the passes, which
  // filters out the seconds-long slowdowns a shared host imposes.
  RecordingSink sink(payload_bits);
  ChunkLog log;
  std::vector<double> best_ms(s.truth.frames.size(), -1.0);
  std::vector<double> best_chunk_s(chunks, -1.0);  // fastest push of each chunk
  PassQuality q0;
  std::size_t pass0_frames = 0;
  bool pass0_full = false;
  const double untraced_s = tracer != nullptr ? 0.3 * cfg.seconds : cfg.seconds;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(untraced_s));
  for (std::uint64_t pass = 0;; ++pass) {
    const std::size_t first_chunk = log.start.size();
    const std::size_t first_emitted = sink.starts.size();
    if (pass > 0) rx.emplace(sim->demodulator(), opts);
    const bool full = push_pass(*rx, s, sink, log, nullptr,
                                pass < kFullPasses && tracer == nullptr
                                    ? Clock::time_point::max()
                                    : deadline);
    const std::size_t last_emitted = sink.starts.size();
    for (std::size_t c = first_chunk; c < log.seconds.size(); ++c) {
      double& best = best_chunk_s[c - first_chunk];
      best = best < 0.0 ? log.seconds[c] : std::min(best, log.seconds[c]);
    }
    const PassQuality q =
        judge_pass(s, sink, first_emitted, last_emitted, payload_bits, tolerance);
    for (std::size_t e = 0; e < q.match.truth_of.size(); ++e) {
      const auto t = q.match.truth_of[e];
      if (t < 0) continue;
      // The receiver delivers a frame inside the push that completes its
      // window, so that chunk's hand-over starts the clock.
      const std::size_t c = sink.in_chunk[first_emitted + e];
      const double ms = ms_between(log.start[c], sink.at[first_emitted + e]);
      double& best = best_ms[static_cast<std::size_t>(t)];
      best = best < 0.0 ? ms : std::min(best, ms);
    }
    if (pass == 0) {
      q0 = q;
      pass0_frames = last_emitted;
      pass0_full = full;
    } else {
      // Every frame of a later pass repeats pass 0's frame bit for bit.
      bool same = true;
      for (std::size_t e = first_emitted; e < last_emitted && same; ++e) {
        const std::size_t e0 = e - first_emitted;
        same = e0 < pass0_frames && sink.starts[e] == sink.starts[e0] &&
               std::equal(sink.bits.begin() + static_cast<std::ptrdiff_t>(e * payload_bits),
                          sink.bits.begin() + static_cast<std::ptrdiff_t>((e + 1) * payload_bits),
                          sink.bits.begin() + static_cast<std::ptrdiff_t>(e0 * payload_bits));
      }
      r.check(same, "pass " + std::to_string(pass) + " decoded differently from pass 0");
    }
    if (!full || seconds_since(t0) >= untraced_s) break;
  }
  r.attempted = log.start.size();
  std::vector<double> latency_ms;
  for (const double ms : best_ms)
    if (ms >= 0.0) latency_ms.push_back(ms);

  double push_s = 0.0;  // the stream once, each chunk at its fastest
  for (const double t : best_chunk_s) push_s += std::max(t, 0.0);
  const std::size_t true_frames = s.truth.frames.size();
  const double rt_factor = stream_air_s / push_s;
  const double pkt_per_s = static_cast<double>(true_frames) / push_s;
  const Tail tail = tail_percentile(latency_ms);
  r.e2e("setup_s", median(setups), setups.size(), "LinkSimulator + StreamingReceiver");
  r.e2e("pkt_per_s", pkt_per_s, log.seconds.size(), "true frames per second of pushing");
  r.e2e("decode_ms_p50", median(latency_ms), latency_ms.size(),
        "completing chunk handed over -> on_frame, fastest pass per frame");
  r.e2e("decode_ms_tail", tail.value, tail.samples, tail_note(tail));
  r.e2e("realtime_factor", rt_factor, log.seconds.size(),
        "stream air time / push time, each chunk at its fastest pass");
  add_single_caller_metrics(r, pkt_per_s, log.seconds.size());
  r.e2e("frame_error_rate",
        smoothed_rate(q0.match.missed + q0.match.false_frames, true_frames), true_frames,
        std::to_string(q0.match.missed) + " missed, " + std::to_string(q0.match.false_frames) +
            " false");
  r.e2e("ber", smoothed_rate(q0.bit_errors, q0.bits), q0.bits,
        std::to_string(q0.bit_errors) + " bit errors in delivered frames");
  r.e2e("peak_rss_mb", peak_rss_mb() - rss0, 1, "VmHWM over the start-up VmRSS");
  if (tracer == nullptr) return r;

  // Traced pass: a fresh receiver, one span per push, one full pass.
  StreamingReceiver traced_rx(sim->demodulator(), opts);
  RecordingSink tsink(payload_bits);
  ChunkLog tlog;
  push_pass(traced_rx, s, tsink, tlog, tracer, Clock::time_point::max());
  const PassQuality tq = judge_pass(s, tsink, 0, tsink.starts.size(), payload_bits, tolerance);
  r.check(!pass0_full || tq.match.truth_of == q0.match.truth_of,
          "traced pass decoded differently from the untraced one");
  r.attempted += tlog.start.size();
  add_self_metrics(r, *tracer, true_frames);

  double idle_s = 0.0;
  double idle_samples = 0.0;
  std::vector<double> push_ms;
  for (std::size_t c = 0; c < tlog.seconds.size(); ++c) {
    push_ms.push_back(tlog.seconds[c] * 1e3);
    if (tlog.idle[c] == 0) continue;
    idle_s += tlog.seconds[c];
    idle_samples += tlog.samples[c];
  }
  const auto& st = traced_rx.stats();
  const double sync_attempts =
      static_cast<double>(st.frames_decoded + st.sof_rejects + st.decode_rejects);
  r.layer("stream.scan_ns_per_sample", idle_samples > 0 ? idle_s * 1e9 / idle_samples : 0.0,
          static_cast<std::size_t>(idle_samples), "gap-only chunks, SEARCHING before and after");
  r.layer("stream.push_ms_p50", median(push_ms), push_ms.size());
  r.layer("stream.push_ms_max", *std::max_element(push_ms.begin(), push_ms.end()), push_ms.size());
  r.layer("stream.sof_rejects", static_cast<double>(st.sof_rejects), 1);
  r.layer("stream.decode_rejects", static_cast<double>(st.decode_rejects), 1);
  r.layer("stream.false_frames", static_cast<double>(tq.match.false_frames), true_frames);
  r.layer("stream.missed_frames", static_cast<double>(tq.match.missed), true_frames);
  r.layer("stream.sync_accept_ratio",
          sync_attempts > 0 ? static_cast<double>(st.frames_decoded) / sync_attempts : 0.0,
          static_cast<std::size_t>(sync_attempts), "decoded / (decoded + SOF + decode rejects)");
  r.layer("setup.link_ctor_s", median(sim_s), sim_s.size());
  r.layer("setup.stream_rx_ctor_ms", median(rx_ms), rx_ms.size());
  // Paired by chunk: the untraced pass's chunks against the same chunks traced.
  double plain_s = 0.0;
  double spanned_s = 0.0;
  for (std::size_t c = 0; c < log.seconds.size() && c < tlog.seconds.size(); ++c) {
    plain_s += log.seconds[c];
    spanned_s += tlog.seconds[c];
  }
  r.layer("trace.overhead_ratio", plain_s / spanned_s, tlog.seconds.size(),
          "traced / untraced samples per second, same chunks");

  // Stage view of the receiver on the stream's own frames: re-render the
  // first frames of each segment (they must equal the stream's samples)
  // and replay them stage by stage.
  rt::phy::DemodOptions dopts;
  dopts.search_limit = static_cast<std::size_t>(so.max_pad_slots + 2) * spslot;
  FrameReplayer replayer(dopts);
  for (int m = 0; m < kReplayFrames; ++m) {
    const std::size_t seg = static_cast<std::size_t>(m % kSegments);
    const auto idx = static_cast<std::uint64_t>(m / kSegments);
    const std::size_t frame = s.first_frame[seg] + idx;
    const auto& wave = replayer.run(*s.sims[seg], idx, kPayloadBytes, tracer,
                                    static_cast<std::int64_t>(frame), r);
    const auto& f = s.truth.frames[frame];
    r.check(f.packet_offset + wave.size() <= s.truth.waveform.size() &&
                std::memcmp(wave.samples.data(), s.truth.waveform.samples.data() + f.packet_offset,
                            wave.size() * sizeof(rt::sig::Complex)) == 0,
            "frame " + std::to_string(frame) + ": re-rendered packet != stream samples");
  }
  replayer.add_metrics(r, p, "the stream's frames, re-rendered");
  return r;
}

}  // namespace perfbench
