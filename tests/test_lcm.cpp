// Tests for the liquid-crystal modulator simulator: cell dynamics, the
// pixels and binary-weighted modules of the tag array (on the I and Q
// polarizer axes), and the tag array's waveform synthesis.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/units.h"
#include "lcm/lc_cell.h"
#include "lcm/tag_array.h"

namespace rt::lcm {
namespace {

/// Renders `schedule` on `tag` (from its current LC state) into a fresh
/// waveform.
sig::IqWaveform render(TagArray& tag, std::span<const Firing> schedule, double fs,
                       double duration_s) {
  SynthScratch scratch;
  sig::IqWaveform out;
  tag.synthesize_into(schedule, fs, duration_s, scratch, out);
  return out;
}

/// Steps a cell with constant drive, returning time to cross `threshold`.
double time_to_cross(LcCell& cell, bool driven, double threshold, bool rising,
                     double max_t = 20e-3) {
  const double dt = 5e-6;
  for (double t = 0.0; t < max_t; t += dt) {
    const double c = cell.step(driven, dt);
    if (rising ? (c >= threshold) : (c <= threshold)) return t;
  }
  return max_t;
}

TEST(LcCell, ChargesFastRelaxesSlow) {
  // Asymmetric response (Fig. 3): charging finishes in well under 1 ms,
  // discharging takes several milliseconds.
  LcCell cell;
  const double t_charge = time_to_cross(cell, true, 0.95, true);
  EXPECT_LT(t_charge, rt::ms(0.8));
  EXPECT_GT(t_charge, rt::ms(0.2));

  cell.reset(1.0);
  const double t_discharge = time_to_cross(cell, false, 0.05, false);
  EXPECT_GT(t_discharge, rt::ms(2.5));
  EXPECT_LT(t_discharge, rt::ms(5.5));
}

TEST(LcCell, DischargeHasInitialPlateau) {
  // Section 2.2: ~1 ms relatively flat pulse at the start of discharge.
  LcCell cell;
  cell.reset(1.0);
  const double plateau = time_to_cross(cell, false, 0.90, false);
  EXPECT_GT(plateau, rt::ms(0.5));
  EXPECT_LT(plateau, rt::ms(1.8));
}

TEST(LcCell, StepIsSampleRateInvariant) {
  // The same physical interval must give the same state regardless of how
  // it is chopped (substepping correctness).
  LcCell a;
  LcCell b;
  a.reset(1.0);
  b.reset(1.0);
  (void)a.step(false, rt::ms(2.0));
  for (int i = 0; i < 200; ++i) (void)b.step(false, rt::ms(0.01));
  EXPECT_NEAR(a.state(), b.state(), 1e-6);
}

TEST(LcCell, HistoryDependence) {
  // Tail effect (Fig. 11a): a cell that was charged longer discharges
  // differently -- the response depends on previous bits.
  LcCell brief;
  LcCell full;
  (void)brief.step(true, rt::ms(0.3));
  (void)full.step(true, rt::ms(2.0));
  (void)brief.step(false, rt::ms(1.0));
  (void)full.step(false, rt::ms(1.0));
  EXPECT_GT(full.state(), brief.state() + 0.01);
}

TEST(LcCell, StateStaysInUnitInterval) {
  LcCell cell;
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    (void)cell.step(rng.bernoulli(), rt::ms(0.1));
    EXPECT_GE(cell.state(), 0.0);
    EXPECT_LE(cell.state(), 1.0);
  }
}

TEST(LcCell, MemoryStateTracksChargeHistory) {
  // The surface-memory state follows the alignment slowly: long-charged
  // cells hold memory after release, briefly-charged ones barely build it.
  LcCell brief;
  LcCell soaked;
  (void)brief.step(true, rt::ms(0.3));
  (void)soaked.step(true, rt::ms(10.0));
  EXPECT_GT(soaked.memory(), brief.memory() + 0.3);
  // Memory decays after release but persists past the optical discharge.
  (void)soaked.step(false, rt::ms(4.0));
  EXPECT_LT(soaked.state(), 0.1);
  EXPECT_GT(soaked.memory(), 0.2);
}

TEST(LcCell, MemorySpeedsUpRecharge) {
  // The "110" vs "010" mechanism of Fig. 11a: a recently-soaked cell
  // recharges faster than a cold one.
  LcCell cold;
  LcCell warm;
  (void)warm.step(true, rt::ms(8.0));
  (void)warm.step(false, rt::ms(4.0));
  (void)cold.step(false, rt::ms(12.0));
  const double warm_after = warm.step(true, rt::ms(0.3));
  const double cold_after = cold.step(true, rt::ms(0.3));
  EXPECT_GT(warm_after, cold_after + 0.02);
}

TEST(LcCell, RejectsBadInputs) {
  LcCell cell;
  EXPECT_THROW(cell.reset(1.5), PreconditionError);
  EXPECT_THROW((void)cell.step(true, -1.0), PreconditionError);
  EXPECT_THROW(LcCell(LcTimings{-1.0, 1.0, 1.0}), PreconditionError);
}

TEST(Pixel, BipolarContributionOnPolarizerAxis) {
  // A relaxed pixel sits at -weight on its polarizer axis (I: 1, Q: j); a
  // fully charged one settles at +weight. Gain spread only, so the axes
  // stay exact and the weights carry the spread.
  TagConfig cfg;
  cfg.dsm_order = 2;
  cfg.bits_per_axis = 2;
  cfg.slot_s = rt::ms(10.0);
  cfg.charge_s = rt::ms(10.0);
  cfg.heterogeneity.gain_sigma = 0.05;
  TagArray tag(cfg);
  const auto w = tag.pixel_weights();
  const std::size_t half = w.size() / 2;
  double sum_i = 0.0;
  double sum_q = 0.0;
  for (std::size_t p = 0; p < half; ++p) sum_i += w[p];
  for (std::size_t p = half; p < w.size(); ++p) sum_q += w[p];
  const auto y = render(tag, std::vector<Firing>{{rt::ms(1.0), 0, 3, 3}, {rt::ms(1.0), 1, 3, 3}},
                        40e3, rt::ms(12.0));
  EXPECT_NEAR(std::abs(y[0] - sig::Complex(-sum_i, -sum_q)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[y.index_at(rt::ms(10.5))] - sig::Complex(sum_i, sum_q)), 0.0, 1e-3);
}

TEST(Pixel, QuadraturePixelIsOrthogonal) {
  // p_I(t) = j p_Q(t): the same firing on the I and on the Q module swings
  // by the same amount, along orthogonal axes.
  TagConfig cfg;
  cfg.dsm_order = 1;
  cfg.bits_per_axis = 1;
  const auto run = [&](std::vector<Firing> schedule) {
    TagArray tag(cfg);
    return render(tag, schedule, 40e3, rt::ms(6.0));
  };
  const auto idle = run({});
  const auto wi = run({{rt::ms(0.5), 0, 1, -1}});
  const auto wq = run({{rt::ms(0.5), 0, -1, 1}});
  for (std::size_t i = 0; i < wq.size(); ++i)
    EXPECT_NEAR(std::abs((wi[i] - idle[i]) * sig::Complex(0, 1) - (wq[i] - idle[i])), 0.0, 1e-12)
        << i;
}

TEST(Module, BinaryWeightedAreasNormalized) {
  // Areas 8:4:2:1 normalized so a module's full level swings 1.0.
  TagConfig cfg;
  cfg.dsm_order = 3;
  cfg.bits_per_axis = 4;
  const TagArray tag(cfg);
  const auto w = tag.pixel_weights();
  ASSERT_EQ(w.size(), 2u * 3u * 4u);
  for (std::size_t m = 0; m < 6; ++m) {
    const auto px = w.subspan(4 * m, 4);
    EXPECT_NEAR(px[0] + px[1] + px[2] + px[3], 1.0, 1e-12) << m;
    EXPECT_NEAR(px[0] / px[3], 8.0, 1e-12) << m;
    EXPECT_NEAR(px[1] / px[3], 4.0, 1e-12) << m;
    EXPECT_NEAR(px[2] / px[3], 2.0, 1e-12) << m;
  }
}

TEST(Module, SteadyStateSwingProportionalToLevel) {
  // Drive one 16-level module long enough to settle: its real part lands
  // at 2 * level / 15 - 1 (bipolar normalized PAM) while the idle Q module
  // holds -j.
  TagConfig cfg;
  cfg.dsm_order = 1;
  cfg.bits_per_axis = 4;
  cfg.slot_s = rt::ms(25.0);
  cfg.charge_s = rt::ms(20.0);
  for (const int level : {0, 1, 5, 10, 15}) {
    TagArray tag(cfg);
    const auto y = render(tag, std::vector<Firing>{{0.0, 0, level, -1}}, 20e3, rt::ms(20.0));
    const auto last = y[y.size() - 1];
    const double expected = 2.0 * static_cast<double>(level) / 15.0 - 1.0;
    EXPECT_NEAR(last.real(), expected, 0.02) << "level " << level;
    EXPECT_NEAR(last.imag(), -1.0, 1e-9) << "level " << level;
  }
}

TEST(Module, HeterogeneityPerturbsGains) {
  TagConfig cfg;
  cfg.bits_per_axis = 4;
  const TagArray ideal(cfg);
  cfg.seed = 42;
  cfg.heterogeneity.gain_sigma = 0.05;
  cfg.heterogeneity.angle_sigma_rad = rt::deg_to_rad(2.0);
  const TagArray spread(cfg);
  const auto w0 = ideal.pixel_weights();
  const auto w = spread.pixel_weights();
  ASSERT_EQ(w.size(), w0.size());
  int off = 0;
  for (std::size_t p = 0; p < w.size(); ++p)
    if (std::abs(w[p] / w0[p] - 1.0) > 1e-4) ++off;
  EXPECT_GT(off, 0);
}

TEST(Module, LevelValidation) {
  // Drive levels beyond 2^bits_per_axis - 1 rejected on either axis, and a
  // module needs at least one pixel.
  TagConfig cfg;
  cfg.bits_per_axis = 2;
  TagArray tag(cfg);
  EXPECT_THROW((void)render(tag, std::vector<Firing>{{0.0, 0, 4, 1}}, 40e3, rt::ms(1.0)),
               PreconditionError);
  EXPECT_THROW((void)render(tag, std::vector<Firing>{{0.0, 0, 1, 4}}, 40e3, rt::ms(1.0)),
               PreconditionError);
  cfg.bits_per_axis = 0;
  EXPECT_THROW(TagArray{cfg}, PreconditionError);
}

TEST(TagArray, SinglePulseShape) {
  // One firing of one module: the waveform must rise within ~tau_1 of the
  // firing and return near baseline ~4 ms later (the DSM pulse p(t)).
  TagConfig cfg;
  cfg.dsm_order = 2;
  cfg.bits_per_axis = 1;
  TagArray tag(cfg);
  const std::vector<Firing> schedule = {{rt::ms(1.0), 0, 1, -1}};
  const double fs = 40e3;
  auto w = render(tag, schedule, fs, rt::ms(10.0));
  // Baseline: all relaxed pixels. I group: 2 modules * (-1) = -2 real;
  // Q group: 2 modules * (-j) => imag -2.
  EXPECT_NEAR(w[10].real(), -2.0, 0.05);
  EXPECT_NEAR(w[10].imag(), -2.0, 0.05);
  // Peak shortly after firing: fired module swings to +1 => real sum ~0.
  const auto peak_idx = w.index_at(rt::ms(1.0) + cfg.charge_s);
  EXPECT_GT(w[peak_idx].real(), -0.35);
  // Q axis untouched (level_q = -1).
  EXPECT_NEAR(w[peak_idx].imag(), -2.0, 0.05);
  // Recovered by 6 ms after firing.
  const auto tail_idx = w.index_at(rt::ms(7.0));
  EXPECT_NEAR(w[tail_idx].real(), -2.0, 0.1);
}

TEST(TagArray, PulseSuperpositionIsLinear)
{
  // Two modules fired at different times: the waveform equals the sum of
  // the individual responses (minus one extra copy of the static bias) --
  // the superposition property DSM relies on (section 4.1).
  TagConfig cfg;
  cfg.dsm_order = 2;
  cfg.bits_per_axis = 1;
  const double fs = 40e3;
  const double dur = rt::ms(12.0);

  TagArray both(cfg);
  auto w_both =
      render(both, std::vector<Firing>{{rt::ms(1.0), 0, 1, -1}, {rt::ms(2.5), 1, 1, -1}}, fs, dur);

  TagArray first(cfg);
  auto w_first = render(first, std::vector<Firing>{{rt::ms(1.0), 0, 1, -1}}, fs, dur);
  TagArray second(cfg);
  auto w_second = render(second, std::vector<Firing>{{rt::ms(2.5), 1, 1, -1}}, fs, dur);

  TagArray idle(cfg);
  auto w_idle = render(idle, std::vector<Firing>{}, fs, dur);

  for (std::size_t i = 0; i < w_both.size(); ++i) {
    const auto expected = w_first[i] + w_second[i] - w_idle[i];
    EXPECT_NEAR(std::abs(w_both[i] - expected), 0.0, 1e-9) << i;
  }
}

TEST(TagArray, ModulatedResponseIsFiringMinusIdle) {
  // modulated_response renders the firing and the idle baseline on one
  // tag (reset in between); it must equal the difference of two freshly
  // built tags bit for bit, heterogeneity draw included.
  TagConfig cfg;
  cfg.dsm_order = 2;
  cfg.heterogeneity = {0.05, 0.03, rt::deg_to_rad(2.0)};
  cfg.seed = 9;
  const std::vector<Firing> schedule = {{rt::ms(0.5), 0, 3, 1}, {rt::ms(1.0), 1, 2, 0}};
  const double fs = 40e3;
  const double dur = rt::ms(8.0);
  TagArray fired(cfg);
  TagArray idle(cfg);
  const auto w_fired = render(fired, schedule, fs, dur);
  const auto w_idle = render(idle, {}, fs, dur);
  const auto response = modulated_response(cfg, schedule, fs, dur);
  ASSERT_EQ(response.size(), w_fired.size());
  for (std::size_t i = 0; i < response.size(); ++i)
    ASSERT_EQ(response[i], w_fired[i] - w_idle[i]) << i;
  for (const auto& v : modulated_response(cfg, {}, fs, dur)) ASSERT_EQ(v, sig::Complex{});
}

TEST(TagArray, QuadratureFiringLandsOnImaginaryAxis) {
  TagConfig cfg;
  cfg.dsm_order = 1;
  cfg.bits_per_axis = 1;
  TagArray tag(cfg);
  auto w = render(tag, std::vector<Firing>{{rt::ms(0.5), 0, -1, 1}}, 40e3, rt::ms(6.0));
  const auto idx = w.index_at(rt::ms(1.0));
  EXPECT_GT(w[idx].imag(), -0.5);   // Q pixel swung up
  EXPECT_NEAR(w[idx].real(), -1.0, 0.05);  // I pixel untouched
}

TEST(TagArray, EnergyIndependentOfDataRateParameterization) {
  // Section 7.2.2 (power): 4 and 8 Kbps share the same DSM symbol length
  // and thus the same drive energy per unit time. Same schedule of firings
  // with the same levels => same energy regardless of PQAM order mapping.
  TagConfig cfg;
  TagArray tag(cfg);
  std::vector<Firing> schedule;
  for (int n = 0; n < 16; ++n)
    schedule.push_back({static_cast<double>(n) * cfg.slot_s, n % cfg.dsm_order, 3, 3});
  const double e = tag.drive_energy(schedule);
  EXPECT_GT(e, 0.0);
  // Doubling levels-per-axis resolution with the same normalized drive
  // pattern leaves energy unchanged.
  TagConfig cfg2 = cfg;
  cfg2.bits_per_axis = 1;
  TagArray tag2(cfg2);
  std::vector<Firing> schedule2;
  for (int n = 0; n < 16; ++n)
    schedule2.push_back({static_cast<double>(n) * cfg2.slot_s, n % cfg2.dsm_order, 1, 1});
  EXPECT_NEAR(tag2.drive_energy(schedule2), e, 1e-12);
}

TEST(TagArray, ValidatesConfigAndSchedule) {
  TagConfig bad;
  bad.dsm_order = 0;
  EXPECT_THROW(TagArray{bad}, PreconditionError);
  // A spread wide enough to draw a non-positive gain or time constant.
  bad = TagConfig{};
  bad.heterogeneity.gain_sigma = 10.0;
  EXPECT_THROW(TagArray{bad}, PreconditionError);
  bad = TagConfig{};
  bad.heterogeneity.timing_sigma = 10.0;
  EXPECT_THROW(TagArray{bad}, PreconditionError);
  TagConfig cfg;
  TagArray tag(cfg);
  EXPECT_THROW((void)render(tag, std::vector<Firing>{{0.0, 99, 1, 1}}, 40e3, rt::ms(1.0)),
               PreconditionError);
  // Unsorted schedule rejected.
  EXPECT_THROW((void)render(tag,
                            std::vector<Firing>{{rt::ms(2.0), 0, 1, 1}, {rt::ms(1.0), 1, 1, 1}},
                            40e3, rt::ms(5.0)),
               PreconditionError);
}

}  // namespace
}  // namespace rt::lcm
