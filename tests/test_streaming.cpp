// Scenario harness for the streaming sample-level receiver.
//
// Locks down the contracts in stream/streaming_receiver.h: back-to-back
// frames, inter-frame garbage, truncated final frames, false-preamble
// rejection in noise, missed-preamble recovery, ring wraparound at
// awkward capacities -- plus the two golden gates: chunk-size invariance
// (bit-identical decodes whether samples arrive one at a time or all at
// once) and packet-path equivalence (streaming over concatenated
// run_packet waveforms reproduces the packet-at-a-time results bit for
// bit, including through a CSV trace round-trip).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/units.h"
#include "phy/frame.h"
#include "sim/link_sim.h"
#include "sim/packet_workspace.h"
#include "sim/trace.h"
#include "stream/ring_buffer.h"
#include "stream/sim_source.h"
#include "stream/source.h"
#include "stream/streaming_receiver.h"

namespace rt::stream {
namespace {

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

sim::ChannelConfig fast_channel(double snr_db) {
  sim::ChannelConfig ch;
  ch.snr_override_db = snr_db;
  ch.noise_seed = 7;
  return ch;
}

sim::SimOptions fast_options() {
  sim::SimOptions o;
  o.seed = 42;
  o.offline_yaws_deg = {0.0};
  return o;
}

constexpr std::size_t kPayloadBytes = 3;

StreamOptions options_for(const StreamTruth& truth) {
  StreamOptions o;
  o.payload_slots = truth.payload_slots;
  return o;
}

struct DecodedFrame {
  std::uint64_t start = 0;
  std::vector<std::uint8_t> bits;
  phy::PreambleDetection det;
};

struct CollectSink final : FrameSink {
  std::vector<DecodedFrame> frames;
  void on_frame(const StreamFrame& f) override {
    DecodedFrame d;
    d.start = f.start_sample;
    d.bits.assign(f.bits.begin(), f.bits.end());
    d.det = f.detection;
    frames.push_back(std::move(d));
  }
};

/// Pushes `wave` through `rx` in `chunk`-sized pieces (0 = all at once),
/// then flushes.
CollectSink run_stream(StreamingReceiver& rx, const sig::IqWaveform& wave, std::size_t chunk) {
  CollectSink sink;
  const std::span<const sig::Complex> all(wave.samples);
  if (chunk == 0) {
    rx.push_samples(all, sink);
  } else {
    for (std::size_t off = 0; off < all.size(); off += chunk)
      rx.push_samples(all.subspan(off, std::min(chunk, all.size() - off)), sink);
  }
  rx.flush(sink);
  return sink;
}

/// Bit errors of `frame` against the scenario ground truth for frame `k`.
std::size_t truth_errors(const StreamTruth& truth, std::size_t k, const DecodedFrame& frame) {
  const auto& t = truth.frames[k];
  EXPECT_GE(frame.bits.size(), t.payload_bits);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < t.payload_bits; ++i)
    errors += frame.bits[i] != truth.payload_bits[t.first_payload_bit + i] ? 1 : 0;
  return errors;
}

TEST(SampleRing, WrapAroundAtAwkwardCapacity) {
  // Capacity 7 against pushes of 3: every offset and split gets exercised.
  SampleRing ring(7);
  std::vector<sig::Complex> chunk(3);
  std::uint64_t next = 0;
  for (int round = 0; round < 20; ++round) {
    for (auto& c : chunk) c = sig::Complex(static_cast<double>(next++), -1.0);
    if (ring.free_space() < chunk.size()) ring.discard_to(ring.abs_end() - (7 - chunk.size()));
    ring.append(chunk);
    // Everything retained must read back as its absolute index.
    std::vector<sig::Complex> out(ring.size());
    ring.copy_out(ring.abs_begin(), out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].real(), static_cast<double>(ring.abs_begin() + i));
      EXPECT_EQ(ring.at(ring.abs_begin() + i), out[i]);
    }
  }
  EXPECT_EQ(ring.abs_end(), 60u);
}

TEST(StreamingReceiver, DecodesBackToBackFrames) {
  const auto p = fast_params();
  const sim::LinkSimulator sim(p, p.tag_config(), fast_channel(26.0), fast_options());
  StreamScenario sc;
  sc.packets = 3;
  sc.payload_bytes = kPayloadBytes;
  sc.gap = StreamScenario::Gap::kNone;  // frames butt up back to back
  auto truth = build_stream(sim, sc);
  // A short all-zero run stands in for the receiver staying powered after
  // the last discharge, so the final window can complete before flush.
  truth.waveform.samples.resize(truth.waveform.samples.size() + 200);

  StreamingReceiver rx(sim.demodulator(), options_for(truth));
  const auto sink = run_stream(rx, truth.waveform, 4096);
  ASSERT_EQ(sink.frames.size(), truth.frames.size());
  for (std::size_t k = 0; k < truth.frames.size(); ++k) {
    EXPECT_EQ(truth_errors(truth, k, sink.frames[k]), 0u) << "frame " << k;
    EXPECT_NEAR(static_cast<double>(sink.frames[k].start),
                static_cast<double>(truth.frames[k].start_sample), 3.0);
  }
  EXPECT_EQ(rx.stats().frames_decoded, truth.frames.size());
  EXPECT_EQ(rx.stats().truncated_frames, 0u);
}

TEST(StreamingReceiver, GoldenEquivalenceWithPacketPathAtAnyChunkSize) {
  const auto p = fast_params();
  const sim::LinkSimulator sim(p, p.tag_config(), fast_channel(24.0), fast_options());
  StreamScenario sc;
  sc.packets = 3;
  sc.payload_bytes = kPayloadBytes;
  sc.gap = StreamScenario::Gap::kNoise;
  const auto truth = build_stream(sim, sc);

  // Packet-at-a-time reference: the exact per-packet results the golden
  // gate demands bit for bit.
  struct Reference {
    std::vector<std::uint8_t> bits;
    phy::PreambleDetection det;
    std::size_t bit_errors = 0;
  };
  std::vector<Reference> ref;
  sim::LinkStats ref_stats;
  sim::PacketWorkspace ws;
  for (int i = 0; i < sc.packets; ++i) {
    const auto outcome = sim.run_packet(static_cast<std::uint64_t>(i), sc.payload_bytes, ws);
    ASSERT_TRUE(outcome.preamble_found);
    Reference r;
    r.bits = ws.result.bits;
    r.det = ws.result.detection;
    r.bit_errors = outcome.bit_errors;
    ref.push_back(std::move(r));
    ++ref_stats.packets;
    ref_stats.bit_errors += outcome.bit_errors;
    ref_stats.total_bits += outcome.bits;
  }

  // One sample at a time, two primes, and the whole stream at once: every
  // chunking must reproduce the reference exactly.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{17}, std::size_t{997},
                                  std::size_t{0}}) {
    StreamingReceiver rx(sim.demodulator(), options_for(truth));
    const auto sink = run_stream(rx, truth.waveform, chunk);
    ASSERT_EQ(sink.frames.size(), ref.size()) << "chunk " << chunk;
    sim::LinkStats stats;
    for (std::size_t k = 0; k < ref.size(); ++k) {
      const auto& got = sink.frames[k];
      const auto& want = ref[k];
      EXPECT_EQ(got.bits, want.bits) << "chunk " << chunk << " frame " << k;
      // The decode window hands demodulate_into the same samples the
      // packet path saw, so timing and regression coefficients are
      // bit-identical, not merely close. (correlation_peak is excluded:
      // the two paths compute it through differently-rooted prefix sums.)
      EXPECT_EQ(got.start,
                truth.frames[k].packet_offset + want.det.start_sample)
          << "chunk " << chunk << " frame " << k;
      EXPECT_EQ(got.det.a, want.det.a);
      EXPECT_EQ(got.det.b, want.det.b);
      EXPECT_EQ(got.det.c, want.det.c);
      EXPECT_EQ(got.det.normalized_residual, want.det.normalized_residual);
      EXPECT_EQ(got.det.snr.snr_db, want.det.snr.snr_db);
      ++stats.packets;
      stats.bit_errors += truth_errors(truth, k, got);
      stats.total_bits += truth.frames[k].payload_bits;
    }
    EXPECT_EQ(stats.packets, ref_stats.packets);
    EXPECT_EQ(stats.bit_errors, ref_stats.bit_errors);
    EXPECT_EQ(stats.total_bits, ref_stats.total_bits);
    EXPECT_EQ(stats.ber(), ref_stats.ber());
  }
}

TEST(StreamingReceiver, RejectsInterFrameGarbage) {
  const auto p = fast_params();
  const sim::LinkSimulator sim(p, p.tag_config(), fast_channel(26.0), fast_options());
  StreamScenario sc;
  sc.packets = 3;
  sc.payload_bytes = kPayloadBytes;
  sc.gap = StreamScenario::Gap::kGarbage;  // signal-level random firings
  sc.gap_slots = 24;
  sc.lead_in_slots = 16;
  sc.tail_slots = 16;
  const auto truth = build_stream(sim, sc);

  StreamingReceiver rx(sim.demodulator(), options_for(truth));
  const auto sink = run_stream(rx, truth.waveform, 4096);
  // Exactly the real frames -- the garbage produced no phantom decodes --
  // and every frame is clean despite the hostile neighbourhood.
  ASSERT_EQ(sink.frames.size(), truth.frames.size());
  for (std::size_t k = 0; k < truth.frames.size(); ++k)
    EXPECT_EQ(truth_errors(truth, k, sink.frames[k]), 0u) << "frame " << k;
}

TEST(StreamingReceiver, RejectsFalsePreamblesInPureNoise) {
  const auto p = fast_params();
  const sim::LinkSimulator sim(p, p.tag_config(), fast_channel(20.0), fast_options());
  // Two seconds of idle channel: baseline plus AWGN, no tag activity.
  lcm::SynthScratch scratch;
  sig::IqWaveform noise;
  Rng noise_rng(123);
  sim.channel().synthesize_into({}, 2.0, &noise_rng, scratch, noise);

  StreamOptions opts;
  opts.payload_slots = 8;
  StreamingReceiver rx(sim.demodulator(), opts);
  const auto sink = run_stream(rx, noise, 1024);
  EXPECT_EQ(sink.frames.size(), 0u);
  EXPECT_EQ(rx.stats().frames_decoded, 0u);
  EXPECT_EQ(rx.stats().samples_pushed, noise.size());
}

TEST(StreamingReceiver, RecoversAfterMissedPreamble) {
  const auto p = fast_params();
  const sim::LinkSimulator sim(p, p.tag_config(), fast_channel(26.0), fast_options());
  StreamScenario sc;
  sc.packets = 2;
  sc.payload_bytes = kPayloadBytes;
  sc.gap = StreamScenario::Gap::kNoise;
  auto truth = build_stream(sim, sc);
  // Blank out frame 0's preamble: the gate never crosses there, so the
  // receiver must sail past the dead frame and still catch frame 1.
  const std::size_t ref_len = sim.demodulator().preamble().reference().size();
  for (std::size_t i = 0; i < ref_len; ++i)
    truth.waveform.samples[truth.frames[0].start_sample + i] = sig::Complex{};

  StreamingReceiver rx(sim.demodulator(), options_for(truth));
  const auto sink = run_stream(rx, truth.waveform, 512);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(truth_errors(truth, 1, sink.frames[0]), 0u);
  EXPECT_NEAR(static_cast<double>(sink.frames[0].start),
              static_cast<double>(truth.frames[1].start_sample), 3.0);
}

TEST(StreamingReceiver, CountsTruncatedFinalFrame) {
  const auto p = fast_params();
  const sim::LinkSimulator sim(p, p.tag_config(), fast_channel(26.0), fast_options());
  StreamScenario sc;
  sc.packets = 2;
  sc.payload_bytes = kPayloadBytes;
  sc.gap = StreamScenario::Gap::kNoise;
  sc.tail_slots = 0;
  auto truth = build_stream(sim, sc);
  // Cut the stream in the middle of the last frame's payload.
  const auto layout = phy::FrameLayout::for_params(p, truth.payload_slots);
  const std::size_t frame_samples =
      static_cast<std::size_t>(layout.total_slots()) * p.samples_per_slot();
  truth.waveform.samples.resize(
      static_cast<std::size_t>(truth.frames.back().start_sample) + frame_samples / 2);

  StreamingReceiver rx(sim.demodulator(), options_for(truth));
  const auto sink = run_stream(rx, truth.waveform, 256);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(truth_errors(truth, 0, sink.frames[0]), 0u);
  EXPECT_EQ(rx.stats().truncated_frames, 1u);
  // The receiver is reusable after a truncation: a fresh copy of the
  // same intact scenario decodes both frames.
  const auto intact = build_stream(sim, sc);
  const auto sink2 = run_stream(rx, intact.waveform, 256);
  EXPECT_EQ(sink2.frames.size(), intact.frames.size());
}

TEST(StreamingReceiver, TightRingCapacityIsBitIdentical) {
  const auto p = fast_params();
  const sim::LinkSimulator sim(p, p.tag_config(), fast_channel(24.0), fast_options());
  StreamScenario sc;
  sc.packets = 2;
  sc.payload_bytes = kPayloadBytes;
  sc.gap = StreamScenario::Gap::kNoise;
  const auto truth = build_stream(sim, sc);

  StreamingReceiver roomy(sim.demodulator(), options_for(truth));
  const auto want = run_stream(roomy, truth.waveform, 0);
  ASSERT_EQ(want.frames.size(), truth.frames.size());

  // Awkward capacity: the minimum plus a prime, so ring wraps land at
  // shifting offsets; pushed 3 samples at a time to force many wraps.
  auto opts = options_for(truth);
  opts.ring_capacity = roomy.min_ring_capacity() + 7;
  StreamingReceiver tight(sim.demodulator(), opts);
  const auto got = run_stream(tight, truth.waveform, 3);
  ASSERT_EQ(got.frames.size(), want.frames.size());
  for (std::size_t k = 0; k < want.frames.size(); ++k) {
    EXPECT_EQ(got.frames[k].start, want.frames[k].start);
    EXPECT_EQ(got.frames[k].bits, want.frames[k].bits);
    EXPECT_EQ(got.frames[k].det.a, want.frames[k].det.a);
    EXPECT_EQ(got.frames[k].det.normalized_residual,
              want.frames[k].det.normalized_residual);
  }
}

TEST(StreamingReceiver, TraceRoundTripDecodesIdentically) {
  const auto p = fast_params();
  const sim::LinkSimulator sim(p, p.tag_config(), fast_channel(24.0), fast_options());
  StreamScenario sc;
  sc.packets = 2;
  sc.payload_bytes = kPayloadBytes;
  sc.gap = StreamScenario::Gap::kNoise;
  const auto truth = build_stream(sim, sc);

  const std::string path = testing::TempDir() + "stream_roundtrip.csv";
  sim::write_trace_csv(path, truth.waveform);
  const auto replay = sim::read_trace_csv(path);
  std::remove(path.c_str());

  // max_digits10 precision makes the CSV round-trip lossless...
  ASSERT_EQ(replay.sample_rate_hz, truth.waveform.sample_rate_hz);
  ASSERT_EQ(replay.samples, truth.waveform.samples);

  // ...so replaying the capture through a BufferSource decodes exactly
  // like the live stream.
  StreamingReceiver live(sim.demodulator(), options_for(truth));
  const auto want = run_stream(live, truth.waveform, 0);
  ASSERT_EQ(want.frames.size(), truth.frames.size());

  BufferSource source(replay);
  StreamingReceiver rx(sim.demodulator(), options_for(truth));
  CollectSink sink;
  std::vector<sig::Complex> chunk(193);
  std::size_t n = 0;
  while ((n = source.read(chunk)) > 0)
    rx.push_samples(std::span(chunk.data(), n), sink);
  rx.flush(sink);
  ASSERT_EQ(sink.frames.size(), want.frames.size());
  for (std::size_t k = 0; k < want.frames.size(); ++k) {
    EXPECT_EQ(sink.frames[k].start, want.frames[k].start);
    EXPECT_EQ(sink.frames[k].bits, want.frames[k].bits);
  }
}

}  // namespace
}  // namespace rt::stream
