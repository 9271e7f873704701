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
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "kernels/kernels.h"
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
    rt::phy::ModulatorWorkspace mod_ws;
    modulator.modulate_into(rng.bits(payload_bytes * 8), mod_ws, packet);
    rt::sim::ChannelConfig ch;
    ch.snr_override_db = 40.0;
    const rt::sim::Channel channel(p, p.tag_config(), ch);
    rt::Rng noise_rng(ch.noise_seed);
    rt::lcm::SynthScratch scratch;
    channel.synthesize_into(packet.firings, packet.duration_s + p.symbol_duration_s(), &noise_rng,
                            scratch, rx);
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

Fixture& fixture_16k() {
  static Fixture f(rt::phy::PhyParams::rate_16kbps());
  return f;
}

/// Detects the preamble in `f.rx` and returns the detection together with
/// the rotation-corrected copy of the waveform.
std::pair<rt::phy::PreambleDetection, rt::sig::IqWaveform> detect_and_correct(const Fixture& f) {
  rt::phy::PreambleWorkspace ws;
  const auto det = f.demodulator.preamble().detect(f.rx, 4 * f.params.samples_per_slot(), ws);
  rt::sig::IqWaveform corrected = f.rx;
  f.demodulator.preamble().correct_in_place(corrected, det);
  return {det, std::move(corrected)};
}

void BM_PreambleDetect(benchmark::State& state) {
  auto& f = fixture_8k();
  rt::phy::PreambleWorkspace ws;
  for (auto _ : state) {
    auto det = f.demodulator.preamble().detect(f.rx, 4 * f.params.samples_per_slot(), ws);
    benchmark::DoNotOptimize(det);
  }
}
BENCHMARK(BM_PreambleDetect);

void BM_OnlineTraining(benchmark::State& state) {
  auto& f = fixture_8k();
  const auto [det, corrected] = detect_and_correct(f);
  rt::phy::TrainingWorkspace ws;
  rt::phy::PulseBank bank;
  for (auto _ : state) {
    rt::phy::OnlineTrainer::train_into(f.params, f.demodulator.offline_model(), f.packet.layout,
                                       corrected, det.start_sample, bank, ws);
    benchmark::DoNotOptimize(bank);
  }
}
BENCHMARK(BM_OnlineTraining);

void BM_FullDemodulate(benchmark::State& state) {
  auto& f = state.range(0) == 8 ? fixture_8k() : fixture_4k();
  rt::phy::DemodOptions opts;
  opts.search_limit = 4 * f.params.samples_per_slot();
  rt::phy::DemodWorkspace ws;
  rt::phy::DemodResult res;
  rt::sig::IqWaveform rx;
  for (auto _ : state) {
    rx = f.rx;  // demodulate_into corrects its input in place
    f.demodulator.demodulate_into(rx, f.packet.layout.payload_slots, opts, ws, res);
    benchmark::DoNotOptimize(res);
  }
  state.counters["payload_air_ms"] =
      f.packet.layout.payload_slots * f.params.slot_s * 1e3;
}
BENCHMARK(BM_FullDemodulate)->Arg(4)->Arg(8);

/// The equalizer's input for one fixture: the rotation-corrected packet,
/// its online-trained pulse bank, and where the payload starts.
struct EqualizerInput {
  std::size_t payload_begin;
  rt::sig::IqWaveform corrected;
  rt::phy::PulseBank bank;
  std::vector<unsigned> histories;
};

EqualizerInput prepare_equalizer(const Fixture& f) {
  auto [det, corrected] = detect_and_correct(f);
  rt::phy::TrainingWorkspace ws;
  rt::phy::PulseBank bank;
  rt::phy::OnlineTrainer::train_into(f.params, f.demodulator.offline_model(), f.packet.layout,
                                     corrected, det.start_sample, bank, ws);
  return {det.start_sample + f.packet.layout.payload_begin() * f.params.samples_per_slot(),
          std::move(corrected), std::move(bank),
          rt::phy::Demodulator::initial_payload_histories(f.params, f.packet.layout)};
}

void time_equalizer(benchmark::State& state, const rt::phy::PhyParams& params,
                    const EqualizerInput& in, int payload_slots, bool soft_output) {
  const rt::phy::DfeEqualizer eq(params, in.bank);
  rt::phy::EqualizerWorkspace ws;
  rt::phy::EqualizerResult res;
  for (auto _ : state) {
    eq.equalize_into(in.corrected, in.payload_begin, payload_slots, in.histories, ws, res,
                     soft_output);
    benchmark::DoNotOptimize(res);
  }
}

void BM_EqualizerBranches(benchmark::State& state) {
  // Equalizer-only cost vs branch count K (grows ~linearly with K; the
  // paper quotes "16x more computational cost" for the 16-branch DFE).
  auto params = rt::phy::PhyParams::rate_8kbps();
  params.equalizer_branches = static_cast<int>(state.range(0));
  // One-time receiver prep outside the timed loop.
  static const EqualizerInput in = prepare_equalizer(fixture_8k());
  time_equalizer(state, params, in, fixture_8k().packet.layout.payload_slots, false);
}
BENCHMARK(BM_EqualizerBranches)->Arg(1)->Arg(4)->Arg(16);

void BM_Equalizer16kSoft(benchmark::State& state) {
  // The 16 kbps maximum rate: 256-PQAM, K = 16 (K x P = 4096 candidates
  // per slot), soft output for the convolutional decoder, 128 B payload.
  auto& f = fixture_16k();
  static const EqualizerInput in = prepare_equalizer(f);
  time_equalizer(state, f.params, in, f.packet.layout.payload_slots, true);
}
BENCHMARK(BM_Equalizer16kSoft)->Unit(benchmark::kMillisecond);

/// One DFE kernel call's operands: a 20-sample slot window (the 8 and
/// 16 kbps slot at 40 kHz) and `n_terms` weighted templates.
struct DfeKernelInput {
  static constexpr std::size_t kSamples = 20;
  std::vector<rt::kernels::Complex> residual;
  std::vector<rt::kernels::Complex> out;
  std::vector<rt::kernels::Complex> templates;
  std::vector<rt::kernels::CTerm> terms;

  explicit DfeKernelInput(std::size_t n_terms)
      : residual(kSamples), out(kSamples), templates(n_terms * kSamples) {
    rt::Rng rng(11);
    for (auto& v : residual) v = {rng.gaussian(), rng.gaussian()};
    for (auto& v : templates) v = {rng.gaussian(), rng.gaussian()};
    for (std::size_t t = 0; t < n_terms; ++t)
      terms.push_back({templates.data() + t * kSamples, {rng.gaussian(), rng.gaussian()}});
  }
};

// Kernel cost per DFE candidate at 16 kbps: 4 terms is the Q-only score,
// 8 the score over a candidate's I and Q terms together.
void BM_DfeScore(benchmark::State& state, decltype(&rt::kernels::scalar::dfe_score) score) {
  const DfeKernelInput in(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        score(DfeKernelInput::kSamples, in.residual.data(), in.terms.data(), in.terms.size()));
  }
}

void BM_DfeResidual(benchmark::State& state,
                    decltype(&rt::kernels::scalar::dfe_residual) residual) {
  DfeKernelInput in(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    residual(DfeKernelInput::kSamples, in.residual.data(), in.out.data(), in.terms.data(),
             in.terms.size());
    benchmark::DoNotOptimize(in.out.data());
    benchmark::ClobberMemory();
  }
}

void register_dfe_kernel_cases() {
  struct Backend {
    const char* name;
    decltype(&rt::kernels::scalar::dfe_score) score;
    decltype(&rt::kernels::scalar::dfe_residual) residual;
  };
  std::vector<Backend> backends = {
      {"scalar", &rt::kernels::scalar::dfe_score, &rt::kernels::scalar::dfe_residual}};
#if defined(__x86_64__)
  // The AVX2 bodies run only where the dispatcher picked them.
  if (std::strcmp(rt::kernels::backend_name(), "avx2") == 0)
    backends.push_back({"avx2", &rt::kernels::avx2::dfe_score, &rt::kernels::avx2::dfe_residual});
#endif
  for (const auto& b : backends) {
    benchmark::RegisterBenchmark((std::string("BM_DfeScore/") + b.name).c_str(), BM_DfeScore,
                                 b.score)
        ->Arg(4)
        ->Arg(8);
    benchmark::RegisterBenchmark((std::string("BM_DfeResidual/") + b.name).c_str(),
                                 BM_DfeResidual, b.residual)
        ->Arg(4)
        ->Arg(8);
  }
}

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
    rt::phy::ModulatorWorkspace mod_ws;
    rt::phy::PacketSchedule pkt;
    mod.modulate_into(rng.bits(128 * 8), mod_ws, pkt);
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
  report.add_obs(obs_rec.snapshot());
  report.write();

  benchmark::Initialize(&argc, argv);
  register_dfe_kernel_cases();
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\nreceiver-stage telemetry across the google-benchmark pass:\n");
  rt::obs::print_stage_summary(stdout, obs_rec.metrics, obs_rec.trace.spans());
  return 0;
}
