// Section 7.2.2 microbenchmarks: latency and power.
//
// Paper: preamble 50 ms air time + online training 80 ms; 128 B packet
// transmits in 258 ms (8 Kbps) / 386 ms (4 Kbps); 16-branch DFE
// demodulation takes ~90 ms < the 128 ms payload air time, enabling
// pipelined real-time operation, and demodulation cost grows with DSM
// order but not with PQAM order. Tag power is 0.8 mW at BOTH 4 and 8 Kbps
// because the DSM symbol length (hence drive duty) is rate-independent.
//
// Here google-benchmark times the actual receiver stages on this machine,
// and the analytic air times + the tag drive-energy model reproduce the
// structural claims.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "lcm/tag_array.h"
#include "phy/demodulator.h"
#include "phy/modulator.h"
#include "sim/channel.h"
#include "sim/link_sim.h"

namespace {

struct Fixture {
  rt::phy::PhyParams params;
  rt::phy::Modulator modulator;
  rt::phy::Demodulator demodulator;
  rt::phy::PacketSchedule packet;
  rt::sig::IqWaveform rx;

  explicit Fixture(const rt::phy::PhyParams& p, std::size_t payload_bytes = 128)
      : params(p),
        modulator(p),
        demodulator(p, rt::sim::train_offline_model(p, p.tag_config())),
        packet({}),
        rx(p.sample_rate_hz, 1) {
    rt::Rng rng(3);
    packet = modulator.modulate(rng.bits(payload_bytes * 8));
    rt::sim::ChannelConfig ch;
    ch.snr_override_db = 40.0;
    rt::sim::Channel channel(p, p.tag_config(), ch);
    auto src = channel.source();
    rx = src(packet.firings, packet.duration_s + p.symbol_duration_s());
  }
};

Fixture& fixture_8k() {
  static Fixture f(rt::phy::PhyParams::rate_8kbps());
  return f;
}

Fixture& fixture_4k() {
  static Fixture f(rt::phy::PhyParams::rate_4kbps());
  return f;
}

void BM_PreambleDetect(benchmark::State& state) {
  auto& f = fixture_8k();
  for (auto _ : state) {
    auto det = f.demodulator.preamble().detect(f.rx, 4 * f.params.samples_per_slot());
    benchmark::DoNotOptimize(det);
  }
}
BENCHMARK(BM_PreambleDetect);

void BM_OnlineTraining(benchmark::State& state) {
  auto& f = fixture_8k();
  const auto det = f.demodulator.preamble().detect(f.rx, 4 * f.params.samples_per_slot());
  const auto corrected = f.demodulator.preamble().correct(f.rx, det);
  for (auto _ : state) {
    auto bank = rt::phy::OnlineTrainer::train(f.params, f.demodulator.offline_model(),
                                              f.packet.layout, corrected, det.start_sample);
    benchmark::DoNotOptimize(bank);
  }
}
BENCHMARK(BM_OnlineTraining);

void BM_FullDemodulate(benchmark::State& state) {
  auto& f = state.range(0) == 8 ? fixture_8k() : fixture_4k();
  rt::phy::DemodOptions opts;
  opts.search_limit = 4 * f.params.samples_per_slot();
  for (auto _ : state) {
    auto res = f.demodulator.demodulate(f.rx, f.packet.layout.payload_slots, opts);
    benchmark::DoNotOptimize(res);
  }
  state.counters["payload_air_ms"] =
      f.packet.layout.payload_slots * f.params.slot_s * 1e3;
}
BENCHMARK(BM_FullDemodulate)->Arg(4)->Arg(8);

void BM_EqualizerBranches(benchmark::State& state) {
  // Equalizer-only cost vs branch count K (grows ~linearly with K; the
  // paper quotes "16x more computational cost" for the 16-branch DFE).
  auto params = rt::phy::PhyParams::rate_8kbps();
  params.equalizer_branches = static_cast<int>(state.range(0));
  static Fixture& base = fixture_8k();
  // One-time receiver prep outside the timed loop.
  static const auto prep = [] {
    auto& f = fixture_8k();
    const auto det = f.demodulator.preamble().detect(f.rx, 4 * f.params.samples_per_slot());
    auto corrected = f.demodulator.preamble().correct(f.rx, det);
    auto bank = rt::phy::OnlineTrainer::train(f.params, f.demodulator.offline_model(),
                                              f.packet.layout, corrected, det.start_sample);
    return std::tuple{det.start_sample, std::move(corrected), std::move(bank)};
  }();
  const auto& [start, corrected, bank] = prep;
  const rt::phy::DfeEqualizer eq(params, bank);
  const auto hist =
      rt::phy::Demodulator::initial_payload_histories(params, base.packet.layout);
  const std::size_t payload_begin =
      start + base.packet.layout.payload_begin() * params.samples_per_slot();
  for (auto _ : state) {
    auto res = eq.equalize(corrected, payload_begin, base.packet.layout.payload_slots, hist);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_EqualizerBranches)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== section 7.2.2 microbenchmarks: latency & power ===\n\n");
  rt::bench::BenchReport report("micro_latency_power");

  // One recorder for the whole run: the structural section's modulate
  // calls land in the report artifacts; the google-benchmark loops below
  // keep recording into it for the end-of-run stage summary.
  rt::obs::Recorder obs_rec;
  const rt::obs::ScopedBind obs_bind(obs_rec);

  // Air-time latency budget (structural, from the frame layout).
  for (const auto& [name, p] :
       {std::pair{"8kbps", rt::phy::PhyParams::rate_8kbps()},
        std::pair{"4kbps", rt::phy::PhyParams::rate_4kbps()}}) {
    const rt::phy::Modulator mod(p);
    rt::Rng rng(1);
    const auto pkt = mod.modulate(rng.bits(128 * 8));
    const double slot_ms = p.slot_s * 1e3;
    const double rate_kbps = p.data_rate_bps() / 1000.0;
    report.add_value("preamble_air_ms", rate_kbps, p.preamble_slots * slot_ms);
    report.add_value("training_air_ms", rate_kbps, pkt.layout.training_slots() * slot_ms);
    report.add_value("payload_air_ms", rate_kbps, pkt.layout.payload_slots * slot_ms);
    report.add_value("total_air_ms", rate_kbps, pkt.duration_s * 1e3);
    std::printf("%s 128 B packet: preamble %.0f ms, training %.0f ms, payload %.0f ms, "
                "total %.0f ms (paper: 258 / 386 ms total)\n",
                name, p.preamble_slots * slot_ms,
                pkt.layout.training_slots() * slot_ms,
                pkt.layout.payload_slots * slot_ms, pkt.duration_s * 1e3);
  }

  // Tag power: same DSM symbol length at 4 and 8 Kbps => same drive energy
  // per unit time (paper: 0.8 mW at both rates).
  {
    const auto p8 = rt::phy::PhyParams::rate_8kbps();
    const auto p4 = rt::phy::PhyParams::rate_4kbps();
    const auto energy_rate = [](const rt::phy::PhyParams& p) {
      rt::lcm::TagArray tag(p.tag_config());
      rt::Rng rng(5);  // scrambled payload => uniform levels
      std::vector<rt::lcm::Firing> schedule;
      const int slots = 2000;
      for (int n = 0; n < slots; ++n)
        schedule.push_back({n * p.slot_s, n % p.dsm_order,
                            static_cast<int>(rng.uniform_int(0, p.levels_per_axis() - 1)),
                            static_cast<int>(rng.uniform_int(0, p.levels_per_axis() - 1))});
      return tag.drive_energy(schedule) / (slots * p.slot_s);
    };
    const double e8 = energy_rate(p8);
    const double e4 = energy_rate(p4);
    report.add_scalar("drive_energy_rate_8kbps", e8);
    report.add_scalar("drive_energy_rate_4kbps", e4);
    report.add_scalar("drive_energy_ratio", e8 / e4);
    std::printf("\ntag drive-energy rate: 8kbps %.3f, 4kbps %.3f (ratio %.2f; paper: equal "
                "0.8 mW at both rates)\n\n",
                e8, e4, e8 / e4);
  }
  // Written before the timed loops so the structural results land even if
  // the google-benchmark pass is interrupted.
  report.add_recorder(obs_rec);
  report.write();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\nreceiver-stage telemetry across the google-benchmark pass:\n");
  rt::obs::print_stage_summary(stdout, obs_rec.metrics, obs_rec.trace.spans());
  return 0;
}
