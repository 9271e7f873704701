// Allocation-regression test for the packet pipeline.
//
// Replaces the global allocator with a counting shim and proves that after
// one warm-up packet the entire TX -> channel -> RX hot path
// (LinkSimulator::run_packet through a reused PacketWorkspace, also when
// the workspace alternates between simulators) performs ZERO heap
// allocations. This is the contract the workspace refactor exists to
// provide; any new allocation on the steady-state path fails this test.
// Each steady-state case runs twice, with spans off (the default) and with
// a span buffer attached, and checks that the bound recorder's counters
// advanced. Lives in its own binary because the operator new/delete
// replacement is process-global.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/units.h"
#include "obs/trace.h"
#include "sim/coded_link.h"
#include "sim/link_sim.h"
#include "sim/packet_workspace.h"
#include "stream/sim_source.h"
#include "stream/streaming_receiver.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace rt::sim {
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

/// Span storage for each steady-state case: none (spans off, the
/// default), then a buffer large enough that no span of the case drops.
constexpr std::size_t kSpanCapacities[] = {0, 4096};

TEST(AllocationRegression, CounterObservesOrdinaryAllocations) {
  g_allocs.store(0);
  g_counting.store(true);
  {
    std::vector<int> v(100);
    v.push_back(1);
  }
  g_counting.store(false);
  EXPECT_GT(g_allocs.load(), 0u) << "the allocator shim is not active";
}

TEST(AllocationRegression, SteadyStatePacketPipelineIsAllocationFree) {
  // The default receiver shape: Q channel on, per-packet online training,
  // DFE with state merging, scrambled payload, AWGN at moderate SNR.
  const auto p = fast_params();
  ChannelConfig ch;
  ch.snr_override_db = 14.0;
  ch.noise_seed = 7;
  SimOptions so;
  so.seed = 42;
  so.offline_yaws_deg = {0.0};
  const LinkSimulator sim(p, p.tag_config(), ch, so);

  for (const std::size_t spans : kSpanCapacities) {
    SCOPED_TRACE(testing::Message() << "span capacity " << spans);
    PacketWorkspace ws;
    obs::Recorder rec;
    rec.trace = obs::TraceBuffer(spans);
    const obs::ScopedBind bind(rec);
    // Warm-up: one pass over the packet indices the measured phase
    // replays, so every buffer has reached its steady-state capacity.
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto out = sim.run_packet(i, 8, ws);
      ASSERT_TRUE(out.preamble_found) << "packet " << i << " must decode for full-path coverage";
    }
    const std::uint64_t packets_before = rec.metrics.count(obs::Counter::kPacketsSimulated);
    const std::uint64_t dfe_before = rec.metrics.count(obs::Counter::kDfeBranchesExpanded);
    const std::size_t spans_before = rec.trace.size();

    g_allocs.store(0);
    g_counting.store(true);
    std::size_t errors = 0;
    bool all_found = true;
    bool estimates_finite = true;
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto out = sim.run_packet(i, 8, ws);
      all_found = all_found && out.preamble_found;
      // The closed rate-adaptation loop reads this per packet; producing
      // it must cost no allocations and always be finite.
      estimates_finite = estimates_finite && std::isfinite(out.snr_estimate_db);
      errors += out.bit_errors;
    }
    g_counting.store(false);

    EXPECT_TRUE(all_found);
    EXPECT_TRUE(estimates_finite) << "per-packet SNR estimate must be finite";
    EXPECT_EQ(g_allocs.load(), 0u)
        << "the steady-state packet pipeline allocated on the heap (" << g_allocs.load()
        << " allocations across 3 packets; total bit errors " << errors << ")";
    EXPECT_EQ(rec.metrics.count(obs::Counter::kPacketsSimulated) - packets_before, 3u);
    EXPECT_GT(rec.metrics.count(obs::Counter::kDfeBranchesExpanded), dfe_before);
    EXPECT_EQ(rec.trace.size() > spans_before, spans > 0);
    EXPECT_EQ(rec.trace.dropped(), 0u);
  }
}

TEST(AllocationRegression, SteadyStateCodedPacketPipelineIsAllocationFree) {
  // The coded frame path on top of the packet pipeline: whiten -> FEC ->
  // interleave -> TX -> channel -> RX -> deinterleave -> soft/hard decode
  // -> CRC, through the same reused PacketWorkspace. Covers both code
  // kinds and both decode modes so the Viterbi trellis, the RS scratch,
  // and the GMD erasure ladder all run under the counting allocator.
  const auto p = fast_params();
  ChannelConfig ch;
  ch.snr_override_db = 14.0;
  ch.noise_seed = 7;
  SimOptions so;
  so.seed = 42;
  so.offline_yaws_deg = {0.0};
  so.export_soft_bits = true;
  const LinkSimulator sim(p, p.tag_config(), ch, so);

  coding::CodedFrameConfig cc_cfg;
  cc_cfg.code = coding::CodeDescriptor::convolutional(7);
  coding::CodedFrameConfig rs_cfg;
  rs_cfg.code = coding::CodeDescriptor::reed_solomon(63, 47);
  const CodedLink cc(sim, cc_cfg);
  const CodedLink rs(sim, rs_cfg);

  for (const std::size_t spans : kSpanCapacities) {
    SCOPED_TRACE(testing::Message() << "span capacity " << spans);
    // One workspace per frame shape (the bench's usage: each campaign
    // owns its workspace). Alternating coded sizes through a single
    // workspace would legitimately rebuild the layout-keyed caches every
    // packet.
    PacketWorkspace cc_ws;
    PacketWorkspace rs_ws;  // soft and hard share one shape, hence one ws
    obs::Recorder cc_rec;
    obs::Recorder rs_rec;
    cc_rec.trace = obs::TraceBuffer(spans);
    rs_rec.trace = obs::TraceBuffer(spans);
    const auto run_once = [&](std::size_t& errors) {
      for (std::uint64_t i = 0; i < 2; ++i) {
        CodedPacketOutcome a;
        CodedPacketOutcome b;
        CodedPacketOutcome c;
        {
          const obs::ScopedBind bind(cc_rec);
          a = cc.run_packet(i, 8, cc_ws, CodedLink::DecodeMode::kSoft);
        }
        {
          const obs::ScopedBind bind(rs_rec);
          b = rs.run_packet(i, 8, rs_ws, CodedLink::DecodeMode::kSoft);
          c = rs.run_packet(i, 8, rs_ws, CodedLink::DecodeMode::kHard);
        }
        ASSERT_TRUE(a.preamble_found && b.preamble_found && c.preamble_found)
            << "packet " << i << " must decode for full-path coverage";
        errors += a.info_bit_errors + b.info_bit_errors + c.info_bit_errors;
      }
    };

    // Warm-up replays the exact packet indices of the measured phase, so
    // the deterministic decode paths (GMD retries included) are identical.
    std::size_t warm_errors = 0;
    run_once(warm_errors);
    const std::uint64_t cc_before = cc_rec.metrics.count(obs::Counter::kCodedFrames);
    const std::uint64_t rs_before = rs_rec.metrics.count(obs::Counter::kCodedFrames);
    const std::size_t spans_before = cc_rec.trace.size();

    g_allocs.store(0);
    g_counting.store(true);
    std::size_t errors = 0;
    run_once(errors);
    g_counting.store(false);

    EXPECT_EQ(errors, warm_errors) << "replayed packets must be bit-identical";
    EXPECT_EQ(g_allocs.load(), 0u)
        << "the steady-state coded packet pipeline allocated on the heap (" << g_allocs.load()
        << " allocations across 6 coded frames)";
    EXPECT_EQ(cc_rec.metrics.count(obs::Counter::kCodedFrames) - cc_before, 2u);
    EXPECT_EQ(rs_rec.metrics.count(obs::Counter::kCodedFrames) - rs_before, 4u);
    EXPECT_EQ(cc_rec.trace.size() > spans_before, spans > 0);
    EXPECT_EQ(cc_rec.trace.dropped() + rs_rec.trace.dropped(), 0u);
  }
}

TEST(AllocationRegression, WorkspaceSharedAcrossSimulatorsIsAllocationFree) {
  // A PacketWorkspace holds nothing tied to one simulator: alternating
  // packets between two operating points of one PHY through a single warm
  // workspace must not allocate on any switch.
  const auto p = fast_params();
  ChannelConfig near;
  near.snr_override_db = 20.0;
  near.noise_seed = 7;
  ChannelConfig far = near;
  far.snr_override_db = 14.0;
  far.noise_seed = 8;
  SimOptions so;
  so.seed = 42;
  so.offline_yaws_deg = {0.0};
  const LinkSimulator sim_near(p, p.tag_config(), near, so);
  const LinkSimulator sim_far(p, p.tag_config(), far, so);

  for (const std::size_t spans : kSpanCapacities) {
    SCOPED_TRACE(testing::Message() << "span capacity " << spans);
    PacketWorkspace ws;
    obs::Recorder rec;
    rec.trace = obs::TraceBuffer(spans);
    const obs::ScopedBind bind(rec);
    const auto run_once = [&](std::size_t& errors) {
      for (std::uint64_t i = 0; i < 2; ++i) {
        const auto a = sim_near.run_packet(i, 8, ws);
        const auto b = sim_far.run_packet(i, 8, ws);
        ASSERT_TRUE(a.preamble_found && b.preamble_found)
            << "packet " << i << " must decode for full-path coverage";
        errors += a.bit_errors + b.bit_errors;
      }
    };

    // Warm-up on both simulators, replaying the measured packet indices.
    std::size_t warm_errors = 0;
    run_once(warm_errors);
    const std::uint64_t packets_before = rec.metrics.count(obs::Counter::kPacketsSimulated);
    const std::size_t spans_before = rec.trace.size();

    g_allocs.store(0);
    g_counting.store(true);
    std::size_t errors = 0;
    run_once(errors);
    g_counting.store(false);

    EXPECT_EQ(errors, warm_errors) << "replayed packets must be bit-identical";
    EXPECT_EQ(g_allocs.load(), 0u)
        << "a workspace alternating between two simulators allocated on the heap ("
        << g_allocs.load() << " allocations across 4 packets)";
    EXPECT_EQ(rec.metrics.count(obs::Counter::kPacketsSimulated) - packets_before, 4u);
    EXPECT_EQ(rec.trace.size() > spans_before, spans > 0);
    EXPECT_EQ(rec.trace.dropped(), 0u);
  }
}

TEST(AllocationRegression, SteadyStateStreamingReceiverIsAllocationFree) {
  const auto p = fast_params();
  ChannelConfig ch;
  ch.snr_override_db = 20.0;
  ch.noise_seed = 7;
  SimOptions so;
  so.seed = 42;
  so.offline_yaws_deg = {0.0};
  const LinkSimulator sim(p, p.tag_config(), ch, so);

  stream::StreamScenario sc;
  sc.packets = 3;
  sc.payload_bytes = 8;
  sc.gap = stream::StreamScenario::Gap::kNoise;
  const auto truth = stream::build_stream(sim, sc);

  stream::StreamOptions opts;
  opts.payload_slots = truth.payload_slots;
  struct CountSink final : stream::FrameSink {
    std::uint64_t frames = 0;
    void on_frame(const stream::StreamFrame&) override { ++frames; }
  };

  for (const std::size_t spans : kSpanCapacities) {
    SCOPED_TRACE(testing::Message() << "span capacity " << spans);
    stream::StreamingReceiver rx(sim.demodulator(), opts);
    obs::Recorder rec;
    rec.trace = obs::TraceBuffer(spans);
    const obs::ScopedBind bind(rec);
    CountSink sink;
    const auto run_once = [&] {
      const std::span<const sig::Complex> all(truth.waveform.samples);
      for (std::size_t off = 0; off < all.size(); off += 777)
        rx.push_samples(all.subspan(off, std::min<std::size_t>(777, all.size() - off)), sink);
      rx.flush(sink);
    };

    // Warm-up stream: every scratch buffer (scan spans, decode window, the
    // inner packet-pipeline workspace) reaches steady-state capacity.
    run_once();
    ASSERT_EQ(sink.frames, 3u) << "warm-up stream must decode for full-path coverage";
    const std::uint64_t frames_before = rec.metrics.count(obs::Counter::kStreamFramesDecoded);
    const std::uint64_t samples_before = rec.metrics.count(obs::Counter::kStreamSamplesPushed);
    const std::size_t spans_before = rec.trace.size();

    g_allocs.store(0);
    g_counting.store(true);
    run_once();
    g_counting.store(false);

    EXPECT_EQ(sink.frames, 6u);
    EXPECT_EQ(g_allocs.load(), 0u)
        << "the steady-state streaming receiver allocated on the heap (" << g_allocs.load()
        << " allocations across one stream of 3 frames)";
    EXPECT_EQ(rec.metrics.count(obs::Counter::kStreamFramesDecoded) - frames_before, 3u);
    EXPECT_EQ(rec.metrics.count(obs::Counter::kStreamSamplesPushed) - samples_before,
              truth.waveform.samples.size());
    EXPECT_EQ(rec.trace.size() > spans_before, spans > 0);
    EXPECT_EQ(rec.trace.dropped(), 0u);
  }
}

}  // namespace
}  // namespace rt::sim
