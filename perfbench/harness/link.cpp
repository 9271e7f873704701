// link_8k: one caller runs 8 kbps packets back to back. Each packet is
// LinkSimulator::render_packet_rx (TX + channel) followed by the receiver's
// Demodulator::demodulate_into -- the two halves run_packet is made of.
#include <optional>

#include "harness/replay.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "sim/link_sim.h"

namespace perfbench {

namespace {

/// The run cycles over packets 1..kPackets: 100 latency samples make the
/// tail p90, and the quality metrics do not depend on the machine's speed.
constexpr std::uint64_t kPackets = 100;
/// Every packet is rendered and demodulated in at least kMinPasses passes,
/// seconds apart; its times are the fastest, which filters out the
/// seconds-long slowdowns a shared host imposes.
constexpr int kMinPasses = 3;
/// Every kCheckEvery-th packet is re-run through run_packet and compared.
constexpr std::uint64_t kCheckEvery = 32;
constexpr std::uint64_t kMinTracedPackets = 16;

std::size_t payload_errors(const rt::sim::PacketWorkspace& ws, std::size_t payload_bits) {
  if (!ws.result.preamble_found || ws.result.bits.size() < payload_bits) return payload_bits;
  std::size_t errors = 0;
  for (std::size_t i = 0; i < payload_bits; ++i) errors += ws.result.bits[i] != ws.payload[i];
  return errors;
}

}  // namespace

WorkloadResult run_link_8k(const RunConfig& cfg, Tracer* tracer) {
  WorkloadResult r;
  const double rss0 = rss_mb();
  const auto p = rt::phy::PhyParams::rate_8kbps();
  const auto tag = realistic_tag(p);
  rt::sim::ChannelConfig ch;
  ch.snr_override_db = kLink8kSnrDb;
  ch.noise_seed = input_seed(cfg, 1);
  rt::sim::SimOptions so;
  so.seed = input_seed(cfg, 2);

  std::optional<rt::sim::LinkSimulator> sim;
  const auto setups = time_setups(kSetupReps, [&] { sim.emplace(p, tag, ch, so); });

  // Receiver options exactly as run_packet sets them.
  rt::phy::DemodOptions dopts;
  dopts.search_limit = static_cast<std::size_t>(so.max_pad_slots + 2) * p.samples_per_slot();
  rt::sim::PacketWorkspace ws;
  static_cast<void>(sim->run_packet(0, kPayloadBytes, ws));  // warm-up, untimed

  // Passes over the packets, each rendered then demodulated. Pass 0 sets
  // the quality metrics; later passes must decode the same bits.
  std::vector<double> render_ms(kPackets), demod_ms(kPackets), air_s(kPackets);
  std::vector<std::vector<std::uint8_t>> first_bits(kPackets);
  std::uint64_t frame_errors = 0;
  std::uint64_t bit_errors = 0;
  std::uint64_t bits = 0;
  const double untraced_s = tracer != nullptr ? 0.5 * cfg.seconds : cfg.seconds;
  const auto t0 = Clock::now();
  for (int pass = 0; pass < kMinPasses || seconds_since(t0) < untraced_s; ++pass) {
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      if (pass >= kMinPasses && seconds_since(t0) >= untraced_s) break;
      const std::uint64_t idx = i + 1;
      const auto a = Clock::now();
      const auto rp = sim->render_packet_rx(idx, kPayloadBytes, ws);
      const auto b = Clock::now();
      air_s[i] = static_cast<double>(ws.rx.size()) / p.sample_rate_hz;
      sim->demodulator().demodulate_into(ws.rx, rp.payload_slots, dopts, ws.demod, ws.result);
      const auto c = Clock::now();
      ++r.attempted;
      if (pass > 0) {
        render_ms[i] = std::min(render_ms[i], ms_between(a, b));
        demod_ms[i] = std::min(demod_ms[i], ms_between(b, c));
        r.check(ws.result.bits == first_bits[i],
                "packet " + std::to_string(idx) + ": a later pass decoded different bits");
        continue;
      }
      render_ms[i] = ms_between(a, b);
      demod_ms[i] = ms_between(b, c);
      first_bits[i] = ws.result.bits;
      const std::size_t errors = payload_errors(ws, rp.payload_bits);
      frame_errors += errors != 0 ? 1 : 0;
      if (ws.result.preamble_found) {
        bit_errors += errors;
        bits += rp.payload_bits;
      }
      if (idx % kCheckEvery == 1) {
        const auto ref = sim->run_packet(idx, kPayloadBytes);
        const bool same_bits = !ref.preamble_found ||
                               std::equal(ref.received_bits.begin(), ref.received_bits.end(),
                                          ws.result.bits.begin());
        r.check(ref.preamble_found == ws.result.preamble_found && ref.bit_errors == errors &&
                    same_bits,
                "packet " + std::to_string(idx) + ": render + demodulate_into != run_packet");
      }
    }
  }

  std::vector<double> packet_ms(kPackets), realtime(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    packet_ms[i] = render_ms[i] + demod_ms[i];
    realtime[i] = air_s[i] / (demod_ms[i] / 1e3);
  }
  const double pkt_per_s = 1e3 / median(packet_ms);
  const Tail tail = tail_percentile(demod_ms);
  r.e2e("setup_s", median(setups), setups.size(), "LinkSimulator incl. offline training");
  r.e2e("pkt_per_s", pkt_per_s, kPackets,
        "1 / median packet time (render + demodulate, fastest pass per packet)");
  r.e2e("decode_ms_p50", median(demod_ms), kPackets, "demodulate_into, fastest pass per packet");
  r.e2e("decode_ms_tail", tail.value, tail.samples, tail_note(tail));
  r.e2e("realtime_factor", median(realtime), kPackets, "air time / demodulate_into time");
  add_single_caller_metrics(r, pkt_per_s, kPackets);
  r.e2e("frame_error_rate", smoothed_rate(frame_errors, kPackets), kPackets,
        std::to_string(frame_errors) + " failed frames");
  r.e2e("ber", smoothed_rate(bit_errors, bits), bits,
        std::to_string(bit_errors) + " bit errors in delivered frames");
  r.e2e("peak_rss_mb", peak_rss_mb() - rss0, 1, "VmHWM over the start-up VmRSS");
  if (tracer == nullptr) return r;

  // Traced phase: render, then the staged receiver replay, then
  // demodulate_into on the same samples for the equality check.
  FrameReplayer replayer(dopts);
  std::size_t traced = 0;
  const auto t1 = Clock::now();
  for (std::uint64_t idx = 1; traced < kMinTracedPackets || seconds_since(t1) < 0.5 * cfg.seconds;
       ++traced, idx = idx % kPackets + 1)
    static_cast<void>(
        replayer.run(*sim, idx, kPayloadBytes, tracer, static_cast<std::int64_t>(idx), r));
  r.attempted += traced;
  replayer.add_metrics(r, p, "8 kbps packets");
  r.layer("setup.link_ctor_s", median(setups), setups.size());
  add_self_metrics(r, *tracer, traced);
  r.layer("trace.overhead_ratio", median(replayer.plain_ms()) / median(replayer.traced_ms()),
          traced, "render + staged replay vs render + demodulate_into, same packets");
  return r;
}

}  // namespace perfbench
