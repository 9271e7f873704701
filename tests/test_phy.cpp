// Tests for the PHY layer: constellation, frame layout, fingerprint
// collection, preamble detection/rotation correction, channel training,
// the K-branch DFE, and the end-to-end modulate -> synthesize -> demodulate
// round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/bitio.h"
#include "common/rng.h"
#include "common/units.h"
#include "lcm/tag_array.h"
#include "optics/polarization.h"
#include "phy/constellation.h"
#include "phy/demodulator.h"
#include "phy/equalizer.h"
#include "phy/frame.h"
#include "phy/modulator.h"
#include "phy/params.h"
#include "phy/preamble.h"
#include "phy/training.h"
#include "signal/awgn.h"
#include "signal/gray.h"
#include "signal/scrambler.h"

namespace rt::phy {
namespace {

/// Small fast configuration for unit tests. Note W = L * T must cover the
/// ~4 ms LC discharge (the paper's design invariant), so L=4 pairs with
/// T=1 ms here.
PhyParams test_params() {
  PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.sample_rate_hz = 40e3;
  p.training_memory = 2;
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  return p;
}

/// Channel model for PHY tests: fresh tag per call (deterministic state),
/// optional roll rotation, complex gain and AWGN.
struct TestChannel {
  lcm::TagConfig tag_cfg;
  double roll_rad = 0.0;
  double gain = 1.0;
  double noise_sigma = 0.0;
  std::uint64_t noise_seed = 99;

  [[nodiscard]] WaveformSource source() const {
    return [*this](std::span<const lcm::Firing> firings, double duration) {
      lcm::TagArray tag(tag_cfg);
      lcm::SynthScratch scratch;
      sig::IqWaveform w;
      tag.synthesize_into(firings, 40e3, duration, scratch, w);
      const auto rot = optics::roll_rotation(roll_rad) * gain;
      for (auto& v : w.samples) v *= rot;
      if (noise_sigma > 0.0) {
        Rng rng(noise_seed);
        sig::add_noise_sigma(w, noise_sigma, rng);
      }
      return w;
    };
  }
};

TEST(Constellation, MapUnmapRoundTrip) {
  const Constellation c(2, true);
  EXPECT_EQ(c.bits_per_symbol(), 4);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto bits = rng.bits(4);
    const auto sym = c.map(bits);
    std::vector<std::uint8_t> unmapped;
    c.unmap_into(sym, unmapped);
    EXPECT_EQ(unmapped, bits);
  }
}

TEST(Constellation, AlphabetSizeAndPoints) {
  const Constellation c(2, true);
  const auto alpha = c.alphabet();
  EXPECT_EQ(alpha.size(), 16u);  // 16-PQAM
  // Corner points of the unit square constellation.
  EXPECT_EQ(c.point({0, 0}), Complex(0.0, 0.0));
  EXPECT_EQ(c.point({3, 3}), Complex(1.0, 1.0));
  EXPECT_EQ(c.point({3, 0}), Complex(1.0, 0.0));
}

TEST(Constellation, GrayAdjacency) {
  // Adjacent levels differ in exactly one payload bit.
  const Constellation c(2, false);
  for (int level = 0; level + 1 < 4; ++level) {
    std::vector<std::uint8_t> a;
    std::vector<std::uint8_t> b;
    c.unmap_into({level, -1}, a);
    c.unmap_into({level + 1, -1}, b);
    EXPECT_EQ(hamming_distance(a, b), 1u);
  }
}

TEST(Constellation, SingleChannelMode) {
  const Constellation c(2, false);
  EXPECT_EQ(c.bits_per_symbol(), 2);
  EXPECT_EQ(c.alphabet().size(), 4u);
  for (const auto& s : c.alphabet()) EXPECT_EQ(s.level_q, -1);
}

TEST(Frame, LayoutArithmetic) {
  const auto p = test_params();
  const auto f = FrameLayout::for_params(p, 40);
  const int guard = p.training_memory * p.dsm_order;  // V idle cycles
  EXPECT_EQ(f.preamble_begin(), 0);
  EXPECT_EQ(f.training_begin(), p.preamble_slots + guard);
  EXPECT_EQ(f.training_slots(), 2 * p.dsm_order * p.dsm_order);
  EXPECT_EQ(f.guard_cycles(), p.training_memory);
  EXPECT_EQ(f.payload_begin(), f.training_begin() + f.training_slots() + guard);
  EXPECT_EQ(f.total_slots(), f.payload_begin() + 40 + p.dsm_order);
}

TEST(Frame, TrainingScheduleIsLowerTriangularWithHistories) {
  const auto p = test_params();
  const auto layout = FrameLayout::for_params(p, 0);
  const auto sched = training_schedule(p, layout);
  const int modules = 2 * p.dsm_order;
  // Module m fires in rounds m..2L-1: total fired cycles = sum (2L - m).
  std::size_t expected_fired = 0;
  for (int m = 0; m < modules; ++m) expected_fired += static_cast<std::size_t>(modules - m);
  std::size_t fired_count = 0;
  for (const auto& tf : sched) {
    const int round = (tf.slot - layout.training_begin()) / p.dsm_order;
    EXPECT_NE(tf.key(), 0u);  // zero-key cycles are never scheduled
    if (tf.fired) {
      ++fired_count;
      EXPECT_GE(round, tf.module_global);
      EXPECT_LT(round, layout.training_rounds);
    } else {
      // Tail-only cycle: something must have fired within memory reach.
      EXPECT_NE(tf.history, 0u);
    }
    // History bit k-1 set iff the module fired k rounds ago.
    for (int k = 1; k <= p.training_memory; ++k) {
      const int rk = round - k;
      const bool fired_k = rk >= 0 && rk < layout.training_rounds && tf.module_global <= rk;
      EXPECT_EQ((tf.history >> (k - 1)) & 1U, fired_k ? 1U : 0U);
    }
  }
  EXPECT_EQ(fired_count, expected_fired);
}

TEST(Frame, TrainingFiringsMergeIAndQ) {
  const auto p = test_params();
  const auto layout = FrameLayout::for_params(p, 0);
  const auto sched = training_schedule(p, layout);
  const auto firings = training_firings(p, sched);
  // In late rounds both the I and Q module of a slot fire simultaneously:
  // at least one firing must carry both levels.
  bool both = false;
  for (const auto& f : firings) both = both || (f.level_i > 0 && f.level_q > 0);
  EXPECT_TRUE(both);
  // Sorted by time.
  for (std::size_t i = 1; i < firings.size(); ++i)
    EXPECT_LE(firings[i - 1].time_s, firings[i].time_s);
}

TEST(Modulator, PacketScheduleShape) {
  const auto p = test_params();
  const Modulator mod(p);
  Rng rng(5);
  const auto bits = rng.bits(80);  // 40 slots at 2 bits/slot
  ModulatorWorkspace ws;
  PacketSchedule pkt;
  mod.modulate_into(bits, ws, pkt);
  EXPECT_EQ(pkt.layout.payload_slots, 40);
  EXPECT_EQ(pkt.payload_symbols.size(), 40u);
  EXPECT_GT(pkt.duration_s, 0.0);
  // All firing times inside the frame.
  for (const auto& f : pkt.firings) {
    EXPECT_GE(f.time_s, 0.0);
    EXPECT_LT(f.time_s, pkt.duration_s);
  }
}

TEST(Modulator, ScramblingIsInvertedByDescramble) {
  const auto p = test_params();
  const Modulator mod(p);
  Rng rng(7);
  const auto bits = rng.bits(64);
  ModulatorWorkspace ws;
  PacketSchedule pkt;
  mod.modulate_into(bits, ws, pkt);
  // Reconstruct the scrambled stream from the symbols and descramble it
  // with the receiver's default-seeded scrambler.
  std::vector<std::uint8_t> recovered;
  for (const auto& s : pkt.payload_symbols) mod.constellation().unmap_into(s, recovered);
  sig::Scrambler{}.apply_in_place(recovered);
  for (std::size_t i = 0; i < bits.size(); ++i) EXPECT_EQ(recovered[i], bits[i]) << i;
}

TEST(PulseBank, IndexValidation) {
  PulseBank bank(4, 4, 10);
  EXPECT_THROW((void)bank.pulse(4, 0), PreconditionError);
  EXPECT_THROW((void)bank.pulse(0, 4), PreconditionError);
  EXPECT_THROW(bank.set_pulse(0, 0, std::vector<Complex>(5)), PreconditionError);
}

TEST(Fingerprints, TemplatesPredictIsolatedPulse) {
  // A module fired once from rest must match its history-0 template.
  const auto p = test_params();
  TestChannel ch{p.tag_config()};
  const auto bank = collect_fingerprints(p, ch.source());
  ASSERT_EQ(bank.modules(), 2 * p.dsm_order);

  // Synthesize an isolated firing of I module 1 and compare.
  const double t0 = p.symbol_duration_s();  // settle one symbol first
  const int max_level = p.levels_per_axis() - 1;
  std::vector<lcm::Firing> fire = {{t0 + 1 * p.slot_s, 1, max_level, -1}};
  const auto response = lcm::modulated_response(p.tag_config(), fire, p.sample_rate_hz,
                                                t0 + 3 * p.symbol_duration_s());

  const auto tmpl = bank.pulse(1, 0b001);  // history 0, fired
  const auto begin = static_cast<std::size_t>((t0 + 1 * p.slot_s) * p.sample_rate_hz + 0.5);
  double err = 0.0;
  double ref = 0.0;
  for (std::size_t k = 0; k < tmpl.size(); ++k) {
    err += std::norm(response[begin + k] - tmpl[k]);
    ref += std::norm(tmpl[k]);
  }
  EXPECT_LT(std::sqrt(err / ref), 0.02);
}

TEST(Fingerprints, HistoryMattersForTailEffect) {
  // The history-all-ones template must differ measurably from history-0:
  // that difference IS the tail effect the fingerprint model exists for.
  const auto p = test_params();
  TestChannel ch{p.tag_config()};
  const auto bank = collect_fingerprints(p, ch.source());
  const auto h0 = bank.pulse(0, 0b001);  // fired, no recent history
  const auto h3 = bank.pulse(0, 0b111);  // fired, fired both previous cycles
  double diff = 0.0;
  double ref = 0.0;
  for (std::size_t k = 0; k < h0.size(); ++k) {
    diff += std::norm(h0[k] - h3[k]);
    ref += std::norm(h0[k]);
  }
  EXPECT_GT(std::sqrt(diff / ref), 0.01);
  // Tail-only template (not fired, fired last cycle): small but non-zero.
  const auto tail = bank.pulse(0, 0b010);
  double tail_energy = 0.0;
  for (const auto& v : tail) tail_energy += std::norm(v);
  EXPECT_GT(tail_energy, 0.0);
  EXPECT_LT(tail_energy, ref);
}

TEST(Preamble, DetectsOffsetRotationAndGain) {
  const auto p = test_params();
  const PreambleProcessor proc(p);

  // Build a received waveform: idle padding, then the preamble section,
  // under roll rotation and scaling.
  const double roll = rt::deg_to_rad(30.0);
  TestChannel ch{p.tag_config(), roll, 0.7, 0.0};
  const auto src = ch.source();
  const int pad_slots = 7;
  auto firings = preamble_firings(p, pad_slots);
  const double duration = (pad_slots + p.preamble_slots + 2 * p.dsm_order) * p.slot_s;
  const auto rx = src(firings, duration);

  PreambleWorkspace ws;
  const auto det = proc.detect(rx, 0, ws);
  ASSERT_TRUE(det.found) << "residual " << det.normalized_residual;
  EXPECT_EQ(det.start_sample, static_cast<std::size_t>(pad_slots) * p.samples_per_slot());
  // a must undo the rotation and scaling: a ~ e^{-j 2 roll} / 0.7.
  EXPECT_NEAR(std::abs(det.a), 1.0 / 0.7, 0.05);
  EXPECT_NEAR(std::remainder(std::arg(det.a) + 2.0 * roll, 2.0 * rt::kPi), 0.0, 0.05);
  EXPECT_LT(det.normalized_residual, 0.05);
}

TEST(Preamble, CorrectionRestoresReferenceFrame) {
  const auto p = test_params();
  const PreambleProcessor proc(p);
  TestChannel ch{p.tag_config(), rt::deg_to_rad(77.0), 1.3, 0.0};
  auto corrected = ch.source()(preamble_firings(p, 0),
                               (p.preamble_slots + p.dsm_order) * p.slot_s);
  PreambleWorkspace ws;
  const auto det = proc.detect(corrected, 0, ws);
  ASSERT_TRUE(det.found);
  proc.correct_in_place(corrected, det);
  const auto& ref = proc.reference();
  double err = 0.0;
  double refe = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err += std::norm(corrected[det.start_sample + i] - ref[i]);
    refe += std::norm(ref[i]);
  }
  EXPECT_LT(std::sqrt(err / refe), 0.02);
}

TEST(Preamble, SurvivesNoise) {
  const auto p = test_params();
  const PreambleProcessor proc(p);
  TestChannel ch{p.tag_config(), rt::deg_to_rad(10.0), 1.0, 0.15};
  const auto rx = ch.source()(preamble_firings(p, 3),
                              (3 + p.preamble_slots + p.dsm_order) * p.slot_s);
  PreambleWorkspace ws;
  const auto det = proc.detect(rx, 0, ws);
  ASSERT_TRUE(det.found);
  EXPECT_NEAR(static_cast<double>(det.start_sample),
              static_cast<double>(3 * p.samples_per_slot()), 1.0);
}

TEST(Preamble, NoFalseDetectionOnNoise) {
  const auto p = test_params();
  const PreambleProcessor proc(p);
  Rng rng(13);
  sig::IqWaveform noise(p.sample_rate_hz, 4000);
  sig::add_noise_sigma(noise, 1.0, rng);
  PreambleWorkspace ws;
  const auto det = proc.detect(noise, 0, ws);
  EXPECT_FALSE(det.found);
}

/// End-to-end helper: modulate random bits, run the channel, demodulate.
struct EndToEnd {
  PhyParams p;
  TestChannel ch;
  std::size_t n_bits = 160;
  DemodOptions opts{};
  std::uint64_t bit_seed = 21;

  struct Outcome {
    bool found;
    double ber;
  };

  [[nodiscard]] Outcome run(const Demodulator& demod) const {
    const Modulator mod(p);
    Rng rng(bit_seed);
    const auto bits = rng.bits(n_bits);
    ModulatorWorkspace mod_ws;
    PacketSchedule pkt;
    mod.modulate_into(bits, mod_ws, pkt);
    auto rx = ch.source()(pkt.firings, pkt.duration_s + p.symbol_duration_s());
    auto o = opts;
    o.search_limit = 4 * p.samples_per_slot();
    DemodWorkspace demod_ws;
    DemodResult res;
    demod.demodulate_into(rx, pkt.layout.payload_slots, o, demod_ws, res);
    if (!res.preamble_found) return {false, 1.0};
    std::size_t errors = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) errors += (res.bits[i] != bits[i]) ? 1 : 0;
    return {true, static_cast<double>(errors) / static_cast<double>(bits.size())};
  }
};

OfflineModel make_offline_model(const PhyParams& p, int rank = 3) {
  // Train bases from two mildly different orientations of an ideal tag.
  std::vector<WaveformSource> sources;
  auto cfg_a = p.tag_config();
  auto cfg_b = p.tag_config();
  cfg_b.yaw_rad = rt::deg_to_rad(15.0);
  sources.push_back(TestChannel{cfg_a}.source());
  sources.push_back(TestChannel{cfg_b}.source());
  return OfflineTrainer::train(p, sources, rank);
}

TEST(EndToEnd, NoiselessIdealChannelIsErrorFree) {
  const auto p = test_params();
  EndToEnd e2e{p, TestChannel{p.tag_config()}};
  const auto oracle = collect_fingerprints(p, e2e.ch.source());
  e2e.opts.oracle = &oracle;
  const Demodulator demod(p, make_offline_model(p));
  const auto out = e2e.run(demod);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.ber, 0.0);
}

TEST(EndToEnd, OnlineTrainingHandlesRotationAndHeterogeneity) {
  auto p = test_params();
  auto tag_cfg = p.tag_config();
  tag_cfg.heterogeneity = {0.08, 0.05, rt::deg_to_rad(2.0)};
  tag_cfg.seed = 1234;
  EndToEnd e2e{p, TestChannel{tag_cfg, rt::deg_to_rad(25.0), 0.8, 0.02}};
  const Demodulator demod(p, make_offline_model(p));
  const auto out = e2e.run(demod);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.ber, 0.0);
}

TEST(EndToEnd, SixteenPqamRoundTrip) {
  auto p = test_params();
  p.bits_per_axis = 2;  // 16-PQAM
  auto tag_cfg = p.tag_config();
  tag_cfg.heterogeneity = {0.03, 0.02, rt::deg_to_rad(1.0)};
  EndToEnd e2e{p, TestChannel{tag_cfg, rt::deg_to_rad(-40.0), 1.0, 0.01}};
  const Demodulator demod(p, make_offline_model(p));
  const auto out = e2e.run(demod);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.ber, 0.0);
}

TEST(EndToEnd, BasicDsmRoundTrip) {
  // Section 4.1.1 basic DSM: fire L slots, then rest tau_0 before the next
  // group. Lower rate, isolated pulses, same receiver machinery.
  auto p = test_params();
  p.basic_rest_slots = 4;  // 4 ms rest after each 4-slot group
  EXPECT_NEAR(p.data_rate_bps(), 2.0 * 4.0 / (8.0 * 1e-3), 1e-9);  // 1 kbps
  EndToEnd e2e{p, TestChannel{p.tag_config(), rt::deg_to_rad(20.0), 1.0, 0.02}};
  const Demodulator demod(p, make_offline_model(p));
  const auto out = e2e.run(demod);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.ber, 0.0);
}

TEST(Params, BasicDsmRateFormulaMatchesPaper) {
  // L-th order basic DSM: L log2(P) bits per (L tau_1 + tau_0). With
  // T = tau_1 = 0.5 ms, rest = tau_0 / T slots.
  auto p = PhyParams::rate_8kbps();
  p.basic_rest_slots = 7;  // 3.5 ms
  EXPECT_NEAR(p.data_rate_bps(), 8.0 * 4.0 / (8.0 * 0.5e-3 + 3.5e-3), 1.0);
  EXPECT_NEAR(p.basic_dsm_rate_bps(3.5e-3), p.data_rate_bps(), 1.0);
}

TEST(EndToEnd, SingleChannelBaselineRoundTrip) {
  auto p = test_params();
  p.use_q_channel = false;  // PAM-style baseline on the I axis only
  EndToEnd e2e{p, TestChannel{p.tag_config()}};
  const Demodulator demod(p, make_offline_model(p));
  const auto out = e2e.run(demod);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.ber, 0.0);
}

TEST(Equalizer, MoreBranchesNeverWorseUnderNoise) {
  // At an SNR chosen to stress the DFE, K=8 must not lose to K=1 on
  // aggregate BER (Fig. 17a behaviour).
  auto p = test_params();
  const auto oracle = collect_fingerprints(p, TestChannel{p.tag_config()}.source());
  const Demodulator demod1([&] {
    auto q = p;
    q.equalizer_branches = 1;
    return q;
  }(), make_offline_model(p));
  const Demodulator demod8(p, make_offline_model(p));

  double ber1 = 0.0;
  double ber8 = 0.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    EndToEnd e2e{p, TestChannel{p.tag_config(), 0.0, 1.0, 0.35, 100 + seed}};
    e2e.bit_seed = 300 + seed;
    e2e.opts.oracle = &oracle;
    ber1 += e2e.run(demod1).ber;
    ber8 += e2e.run(demod8).ber;
  }
  EXPECT_LE(ber8, ber1 + 1e-9);
}

TEST(Equalizer, StateMergingMatchesPlainBeamWhenKLarge) {
  auto p = test_params();
  p.equalizer_branches = 64;
  auto p_merge = p;
  p_merge.merge_equalizer_states = true;
  const auto oracle = collect_fingerprints(p, TestChannel{p.tag_config()}.source());
  EndToEnd e2e{p, TestChannel{p.tag_config(), 0.0, 1.0, 0.3, 55}};
  e2e.opts.oracle = &oracle;
  const Demodulator demod_a(p, make_offline_model(p));
  const Demodulator demod_b(p_merge, make_offline_model(p));
  const auto a = e2e.run(demod_a);
  const auto b = e2e.run(demod_b);
  ASSERT_TRUE(a.found && b.found);
  // Merging only prunes provably-dominated branches, so it cannot be worse.
  EXPECT_LE(b.ber, a.ber + 0.02);
}

/// Test oracle for DfeEqualizer::equalize_into: the candidate loop before
/// the I axis was factored out of scoring. Every candidate is scored by one
/// dfe_score over all of its I and Q terms, all K x P candidates are
/// sorted under (metric, enumeration index), survivors are built from the
/// sorted list, and each LLR group Gray-decodes the alphabet index by index.
EqualizerResult reference_equalize(const PhyParams& p, const PulseBank& bank,
                                   const sig::IqWaveform& rx, std::size_t payload_begin,
                                   int n_slots, std::span<const unsigned> initial_histories,
                                   bool soft_output) {
  struct Branch {
    double metric = 0.0;
    std::vector<SymbolLevels> decisions;
    std::vector<Complex> residual;
    std::vector<unsigned> pixel_hist;
    std::vector<float> llrs;
  };
  struct Candidate {
    std::size_t index;
    std::size_t parent;
    SymbolLevels sym;
    double metric;
  };
  const int l = p.dsm_order;
  const int bits = p.bits_per_axis;
  const int levels = 1 << bits;
  const int q_levels = p.use_q_channel ? levels : 1;
  const auto alphabet_size = static_cast<std::size_t>(levels * q_levels);
  const std::size_t t_samps = p.samples_per_slot();
  const std::size_t w_samps = p.samples_per_symbol();
  const unsigned hist_mask = p.history_mask();
  const double area_denom = static_cast<double>(levels - 1);
  const int hist_shifts = std::max(1, (p.period_slots() + l - 1) / l);
  const auto rx_at = [&](std::size_t idx) { return idx < rx.size() ? rx[idx] : Complex{}; };
  const auto hist_at = [&](const std::vector<unsigned>& hist, int module, int wb) -> unsigned {
    return hist[static_cast<std::size_t>(module * bits + wb)];
  };
  const auto gather = [&](int module, int level, const std::vector<unsigned>& hist,
                          std::vector<kernels::CTerm>& terms) {
    for (int wb = 0; wb < bits; ++wb) {
      const int weight_bit = bits - 1 - wb;
      const unsigned fired = (level > 0 && ((level >> weight_bit) & 1)) ? 1U : 0U;
      const unsigned key = ((hist_at(hist, module, wb) & hist_mask) << 1) | fired;
      if (key == 0) continue;
      const double area = static_cast<double>(1 << weight_bit) / area_denom;
      terms.push_back({bank.pulse(module, key).data(), area * bank.pixel_gain(module, wb)});
    }
  };
  const auto demap = [&](std::span<const double> scores, std::vector<float>& llrs) {
    const int nb = p.use_q_channel ? 2 * bits : bits;
    std::array<double, 8> min0{};
    std::array<double, 8> min1{};
    min0.fill(1e300);
    min1.fill(1e300);
    for (std::size_t idx = 0; idx < scores.size(); ++idx) {
      const auto li = static_cast<std::uint32_t>(idx / static_cast<std::size_t>(q_levels));
      const auto lq = static_cast<std::uint32_t>(idx % static_cast<std::size_t>(q_levels));
      const std::uint32_t label = p.use_q_channel
                                      ? (sig::gray_decode(li) << bits) | sig::gray_decode(lq)
                                      : sig::gray_decode(li);
      for (int j = 0; j < nb; ++j) {
        double& slot = ((label >> (nb - 1 - j)) & 1U) ? min1[static_cast<std::size_t>(j)]
                                                      : min0[static_cast<std::size_t>(j)];
        slot = scores[idx] < slot ? scores[idx] : slot;
      }
    }
    for (int j = 0; j < nb; ++j)
      llrs.push_back(static_cast<float>(min1[static_cast<std::size_t>(j)] -
                                        min0[static_cast<std::size_t>(j)]));
  };
  const auto slide_in = [&](std::vector<Complex>& residual, int n) {
    const std::size_t next_window_begin =
        payload_begin + (static_cast<std::size_t>(n) + 1) * t_samps + (w_samps - t_samps);
    for (std::size_t k = 0; k < t_samps; ++k)
      residual[w_samps - t_samps + k] = rx_at(next_window_begin + k);
  };

  std::vector<Branch> cur(1);
  cur[0].pixel_hist.assign(initial_histories.begin(), initial_histories.end());
  cur[0].residual.resize(w_samps);
  for (std::size_t k = 0; k < w_samps; ++k) cur[0].residual[k] = rx_at(payload_begin + k);
  for (int n = 0; n < n_slots; ++n) {
    if (!p.slot_active(n)) {
      for (auto& b : cur) {
        for (std::size_t k = 0; k < t_samps; ++k) b.metric += std::norm(b.residual[k]);
        for (std::size_t k = t_samps; k < w_samps; ++k) b.residual[k - t_samps] = b.residual[k];
        slide_in(b.residual, n);
      }
      continue;
    }
    const int m = p.slot_module(n);
    std::vector<Candidate> candidates;
    std::vector<double> slot_scores;
    for (std::size_t bi = 0; bi < cur.size(); ++bi) {
      for (int li = 0; li < levels; ++li) {
        for (int qi = 0; qi < q_levels; ++qi) {
          const SymbolLevels sym{li, p.use_q_channel ? qi : -1};
          std::vector<kernels::CTerm> terms;
          gather(m, sym.level_i, cur[bi].pixel_hist, terms);
          if (p.use_q_channel) gather(l + m, sym.level_q, cur[bi].pixel_hist, terms);
          const double score =
              cur[bi].metric + kernels::dfe_score(t_samps, cur[bi].residual.data(),
                                                  terms.data(), terms.size());
          candidates.push_back({candidates.size(), bi, sym, score});
          slot_scores.push_back(score);
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
      return a.metric < b.metric || (a.metric == b.metric && a.index < b.index);
    });
    std::vector<Branch> next;
    std::vector<std::vector<int>> seen;
    for (const auto& c : candidates) {
      if (next.size() >= static_cast<std::size_t>(p.equalizer_branches)) break;
      const Branch& parent = cur[c.parent];
      Branch nb;
      nb.metric = c.metric;
      nb.decisions = parent.decisions;
      nb.decisions.push_back(c.sym);
      nb.pixel_hist = parent.pixel_hist;
      const auto update_hist = [&](int module, int level) {
        for (int wb = 0; wb < bits; ++wb) {
          const unsigned fired = (level > 0 && ((level >> (bits - 1 - wb)) & 1)) ? 1U : 0U;
          auto& h = nb.pixel_hist[static_cast<std::size_t>(module * bits + wb)];
          h = ((h << hist_shifts) | (fired << (hist_shifts - 1))) & hist_mask;
        }
      };
      update_hist(m, c.sym.level_i);
      if (p.use_q_channel) update_hist(l + m, c.sym.level_q);
      if (p.merge_equalizer_states) {
        // State: the last L - 1 decisions plus every pixel history.
        std::vector<int> key;
        const std::size_t tail =
            std::min(nb.decisions.size(), static_cast<std::size_t>(l - 1));
        for (std::size_t i = nb.decisions.size() - tail; i < nb.decisions.size(); ++i) {
          key.push_back(nb.decisions[i].level_i);
          key.push_back(nb.decisions[i].level_q);
        }
        key.insert(key.end(), nb.pixel_hist.begin(), nb.pixel_hist.end());
        if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
        seen.push_back(key);
      }
      if (soft_output) {
        nb.llrs = parent.llrs;
        demap({slot_scores.data() + c.parent * alphabet_size, alphabet_size}, nb.llrs);
      }
      std::vector<kernels::CTerm> terms;
      gather(m, c.sym.level_i, parent.pixel_hist, terms);
      if (p.use_q_channel) gather(l + m, c.sym.level_q, parent.pixel_hist, terms);
      for (auto& t : terms) t.tmpl += t_samps;
      nb.residual.resize(w_samps);
      kernels::dfe_residual(w_samps - t_samps, parent.residual.data() + t_samps,
                            nb.residual.data(), terms.data(), terms.size());
      slide_in(nb.residual, n);
      next.push_back(std::move(nb));
    }
    cur = std::move(next);
  }
  const auto best = std::min_element(cur.begin(), cur.end(), [](const Branch& a, const Branch& b) {
    return a.metric < b.metric;
  });
  EqualizerResult out;
  out.symbols = best->decisions;
  out.final_metric = best->metric;
  if (soft_output) out.soft_bits = best->llrs;
  return out;
}

/// One received payload ready for the DFE: a noisy rendered frame whose
/// pulse bank was trained online from the frame's own training section.
struct RenderedFrame {
  sig::IqWaveform rx;
  PulseBank bank;
  std::size_t payload_begin = 0;
  int payload_slots = 0;
  std::vector<unsigned> histories;
};

RenderedFrame render_trained_frame(const PhyParams& p, std::size_t n_bits, double noise_sigma,
                                   std::uint64_t seed) {
  const Modulator mod(p);
  Rng rng(seed);
  ModulatorWorkspace mod_ws;
  PacketSchedule pkt;
  mod.modulate_into(rng.bits(n_bits), mod_ws, pkt);
  const TestChannel ch{p.tag_config(), rt::deg_to_rad(10.0), 1.0, noise_sigma, seed + 1};
  RenderedFrame f;
  f.rx = ch.source()(pkt.firings, pkt.duration_s + p.symbol_duration_s());
  const Demodulator demod(p, make_offline_model(p));
  PreambleWorkspace preamble_ws;
  const auto det = demod.preamble().detect(f.rx, 4 * p.samples_per_slot(), preamble_ws);
  EXPECT_TRUE(det.found);
  demod.preamble().correct_in_place(f.rx, det);
  TrainingWorkspace training_ws;
  OnlineTrainer::train_into(p, demod.offline_model(), pkt.layout, f.rx, det.start_sample, f.bank,
                            training_ws);
  f.payload_begin = det.start_sample +
                    static_cast<std::size_t>(pkt.layout.payload_begin()) * p.samples_per_slot();
  f.payload_slots = pkt.layout.payload_slots;
  f.histories = Demodulator::initial_payload_histories(p, pkt.layout);
  return f;
}

/// Byte-for-byte equality of two equalizer outputs.
void expect_same_bits(const EqualizerResult& got, const EqualizerResult& want) {
  ASSERT_EQ(got.symbols.size(), want.symbols.size());
  EXPECT_EQ(std::memcmp(got.symbols.data(), want.symbols.data(),
                        got.symbols.size() * sizeof(SymbolLevels)),
            0);
  EXPECT_EQ(std::memcmp(&got.final_metric, &want.final_metric, sizeof(double)), 0)
      << got.final_metric << " vs " << want.final_metric;
  ASSERT_EQ(got.soft_bits.size(), want.soft_bits.size());
  if (!want.soft_bits.empty()) {
    EXPECT_EQ(std::memcmp(got.soft_bits.data(), want.soft_bits.data(),
                          got.soft_bits.size() * sizeof(float)),
              0);
  }
}

TEST(Equalizer, FactoredScoringMatchesReference) {
  // The factored scoring, the heap selection and the label-table demapper
  // must reproduce the reference bit for bit on every shape the receiver
  // runs: 16- and 256-PQAM, no Q channel, basic DSM, K in {1, 16} (and a
  // state-merging K = 64 at 8 kbps), hard and soft output.
  auto no_q = PhyParams::rate_8kbps();
  no_q.use_q_channel = false;
  auto basic = PhyParams::rate_8kbps();
  basic.basic_rest_slots = 3;
  struct Shape {
    const char* name;
    PhyParams p;
    std::size_t n_bits;
    double noise_sigma;
    bool with_merging;
  };
  const Shape shapes[] = {
      {"8kbps 16-PQAM", PhyParams::rate_8kbps(), 160, 0.03, true},
      {"16kbps 256-PQAM", PhyParams::rate_16kbps(), 320, 0.01, false},
      {"8kbps no Q channel", no_q, 80, 0.03, false},
      {"8kbps basic DSM", basic, 160, 0.03, false},
  };
  for (const auto& shape : shapes) {
    const auto frame = render_trained_frame(shape.p, shape.n_bits, shape.noise_sigma, 17);
    std::vector<std::pair<int, bool>> configs = {{1, false}, {16, false}};
    if (shape.with_merging) configs.emplace_back(64, true);
    for (const auto& [k, merge] : configs) {
      for (const bool soft : {false, true}) {
        SCOPED_TRACE(testing::Message() << shape.name << " K=" << k << " merge=" << merge
                                        << " soft=" << soft);
        auto p = shape.p;
        p.equalizer_branches = k;
        p.merge_equalizer_states = merge;
        const DfeEqualizer eq(p, frame.bank);
        EqualizerWorkspace ws;
        EqualizerResult got;
        // Twice through one workspace: the second call runs on warm pools.
        for (int pass = 0; pass < 2; ++pass) {
          eq.equalize_into(frame.rx, frame.payload_begin, frame.payload_slots, frame.histories,
                           ws, got, soft);
        }
        const auto want = reference_equalize(p, frame.bank, frame.rx, frame.payload_begin,
                                             frame.payload_slots, frame.histories, soft);
        expect_same_bits(got, want);
      }
    }
  }
}

TEST(Equalizer, ExactTiesResolveToEnumerationOrder) {
  // A zero-filled pulse bank makes every candidate of every slot score the
  // same, so every survivor choice is an exact tie. Ties resolve to the
  // lower enumeration index (earlier branch, lower I level, lower Q
  // level), so the winner decides (0, 0) in every slot -- (0, -1) without
  // the Q channel.
  auto no_q = PhyParams::rate_8kbps();
  no_q.use_q_channel = false;
  for (const auto& p : {PhyParams::rate_8kbps(), PhyParams::rate_16kbps(), no_q}) {
    SCOPED_TRACE(testing::Message() << p.levels_per_axis() << " levels per axis, Q channel "
                                    << p.use_q_channel);
    PulseBank bank;
    bank.resize(p.use_q_channel ? 2 * p.dsm_order : p.dsm_order, p.fingerprint_entries(),
                p.samples_per_symbol());
    constexpr int kSlots = 40;
    sig::IqWaveform rx(p.sample_rate_hz,
                       static_cast<std::size_t>(kSlots + p.dsm_order) * p.samples_per_slot());
    Rng rng(5);
    sig::add_noise_sigma(rx, 1.0, rng);
    const std::vector<unsigned> histories(
        static_cast<std::size_t>(bank.modules() * p.bits_per_axis), 0U);
    const DfeEqualizer eq(p, bank);
    EqualizerWorkspace ws;
    EqualizerResult out;
    eq.equalize_into(rx, 0, kSlots, histories, ws, out);
    ASSERT_EQ(out.symbols.size(), static_cast<std::size_t>(kSlots));
    const SymbolLevels first{0, p.use_q_channel ? 0 : -1};
    std::size_t off_first = 0;
    for (const auto& s : out.symbols) off_first += (s == first) ? 0 : 1;
    EXPECT_EQ(off_first, 0u) << "first decision (" << out.symbols.front().level_i << ", "
                             << out.symbols.front().level_q << ")";
  }
}

TEST(Training, OnlineReconstructionMatchesOracleTemplates) {
  auto p = test_params();
  auto tag_cfg = p.tag_config();
  tag_cfg.heterogeneity = {0.06, 0.04, rt::deg_to_rad(1.5)};
  tag_cfg.seed = 777;
  TestChannel ch{tag_cfg};

  // Received packet (noiseless) -> detect -> correct -> online train.
  const Modulator mod(p);
  Rng rng(31);
  ModulatorWorkspace mod_ws;
  PacketSchedule pkt;
  mod.modulate_into(rng.bits(40), mod_ws, pkt);
  auto corrected = ch.source()(pkt.firings, pkt.duration_s + p.symbol_duration_s());
  const Demodulator demod(p, make_offline_model(p));
  PreambleWorkspace preamble_ws;
  const auto det = demod.preamble().detect(corrected, 2 * p.samples_per_slot(), preamble_ws);
  ASSERT_TRUE(det.found);
  demod.preamble().correct_in_place(corrected, det);
  TrainingWorkspace training_ws;
  PulseBank trained;
  OnlineTrainer::train_into(p, demod.offline_model(), pkt.layout, corrected, det.start_sample,
                            trained, training_ws);

  const auto oracle = collect_fingerprints(p, ch.source());
  // Compare the dominant (fired, history 0) template of every module.
  for (int m = 0; m < trained.modules(); ++m) {
    const auto a = trained.pulse(m, 0b001);
    const auto b = oracle.pulse(m, 0b001);
    double err = 0.0;
    double ref = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      err += std::norm(a[k] - b[k]);
      ref += std::norm(b[k]);
    }
    EXPECT_LT(std::sqrt(err / ref), 0.15) << "module " << m;
  }
}

TEST(Demodulator, InitialHistoriesFollowFrameStructure) {
  // With V = 2 the guard holds V = 2 idle cycles, so every pixel's history
  // at the first payload firing is all-idle.
  const auto p = test_params();
  const auto layout = FrameLayout::for_params(p, 16);
  const auto hist = Demodulator::initial_payload_histories(p, layout);
  ASSERT_EQ(hist.size(),
            static_cast<std::size_t>(2 * p.dsm_order) * static_cast<std::size_t>(p.bits_per_axis));
  for (const auto h : hist) EXPECT_EQ(h, 0U);

  // The standard frame always allocates V guard cycles, so this holds for
  // every V -- the payload starts from a history-free state by design.
  auto p3 = test_params();
  p3.training_memory = 3;
  const auto layout3 = FrameLayout::for_params(p3, 16);
  EXPECT_EQ(layout3.guard_cycles(), 3);
  const auto hist3 = Demodulator::initial_payload_histories(p3, layout3);
  for (const auto h : hist3) EXPECT_EQ(h, 0U);
}

}  // namespace
}  // namespace rt::phy
