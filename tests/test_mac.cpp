// Tests for the MAC layer: TDMA + discovery, rate table, goodput model and
// the rate-adaptation network study. The waveform-level send-with-retry
// path is the retroturbo::Link facade (tests/test_core.cpp).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "mac/goodput.h"
#include "mac/network.h"
#include "mac/rate_table.h"
#include "mac/tdma.h"

namespace rt::mac {
namespace {

TEST(Tdma, RoundRobinOwnership) {
  TdmaScheduler s;
  s.register_tag(10);
  s.register_tag(20);
  s.register_tag(30);
  EXPECT_EQ(s.owner(0), 10);
  EXPECT_EQ(s.owner(4), 20);
  EXPECT_NEAR(s.airtime_share(), 1.0 / 3.0, 1e-12);
  EXPECT_THROW(s.register_tag(10), PreconditionError);
}

TEST(Discovery, FindsAllTags) {
  Rng rng(3);
  std::vector<std::uint8_t> ids;
  for (int i = 0; i < 30; ++i) ids.push_back(static_cast<std::uint8_t>(i));
  const auto r = discover_tags(ids, 16, rng);
  EXPECT_EQ(r.discovered.size(), ids.size());
  EXPECT_GE(r.rounds, 2);  // 30 tags cannot fit 16 singleton slots in one round
}

TEST(Discovery, SingleTagOneRound) {
  Rng rng(4);
  const auto r = discover_tags({5}, 8, rng);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_EQ(r.discovered, std::vector<std::uint8_t>{5});
  EXPECT_EQ(r.discovery_round, std::vector<int>{1});
}

TEST(Discovery, RecordsPerTagRound) {
  Rng rng(9);
  std::vector<std::uint8_t> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(static_cast<std::uint8_t>(i));
  const auto r = discover_tags(ids, 4, rng);  // small frame forces collisions
  ASSERT_EQ(r.discovery_round.size(), r.discovered.size());
  // Rounds are recorded in discovery order, so they are non-decreasing,
  // start at >= 1, and end at the total round count.
  for (std::size_t k = 0; k < r.discovery_round.size(); ++k) {
    EXPECT_GE(r.discovery_round[k], 1);
    EXPECT_LE(r.discovery_round[k], r.rounds);
    if (k > 0) {
      EXPECT_GE(r.discovery_round[k], r.discovery_round[k - 1]);
    }
  }
  EXPECT_EQ(r.discovery_round.back(), r.rounds);
}

TEST(RateTableTest, SelectsByThresholdAndRate) {
  const auto table = RateTable::paper_default();
  // Plenty of SNR: the fastest uncoded rate wins.
  EXPECT_NEAR(table.select(70.0).effective_rate_bps(), 32000.0, 1.0);
  // At exactly a coded variant's threshold the higher coded rate wins:
  // 16k+RS(255,223) (threshold 31.5 dB) beats 8k uncoded.
  const auto& at_coded = table.select(31.5);
  EXPECT_NEAR(at_coded.raw_rate_bps, 16000.0, 1.0);
  EXPECT_LT(at_coded.code_rate(), 1.0);  // a coded (RS) variant
  // Just below it, the heavily-coded 16k variant loses to 8k uncoded on
  // effective rate: an 8k-family option is picked.
  const auto& mid = table.select(29.0);
  EXPECT_NEAR(mid.raw_rate_bps, 8000.0, 1.0);
  // Hopeless SNR: the most robust option.
  const auto& floor = table.select(-30.0);
  EXPECT_NEAR(floor.raw_rate_bps, 1000.0, 1.0);
  EXPECT_GT(table.most_robust().code_rate(), 0.0);
}

TEST(RateTableTest, FallbackSelectsMinimumThresholdOption) {
  const auto table = RateTable::paper_default();
  // Regression: below every threshold the fallback must be the
  // minimum-threshold option -- 1kbps+RS(255,127) at -7 dB -- not the
  // first table entry (uncoded 1kbps, 0 dB).
  const auto& floor = table.select(-30.0);
  EXPECT_EQ(floor.name, "1kbps+RS(255,127)");
  EXPECT_NEAR(floor.threshold_db, -7.0, 1e-12);
  EXPECT_EQ(table.select_index(-30.0), table.most_robust_index());
  EXPECT_EQ(&table.most_robust(), &table.option(table.most_robust_index()));
  // A margin high enough to disqualify everything falls back the same way.
  EXPECT_EQ(table.select_index(0.0, 1000.0), table.most_robust_index());
}

TEST(RateTableTest, MarginRaisesEntryThresholds) {
  const auto table = RateTable::paper_default();
  // 31.5 dB clears 16k+RS(255,223) (threshold 31.5) with no margin, but
  // with a 1.5 dB margin the requirement becomes 33 and selection drops
  // to the 8k family.
  EXPECT_NEAR(table.option(table.select_index(31.5)).raw_rate_bps, 16000.0, 1.0);
  EXPECT_NEAR(table.option(table.select_index(31.5, 1.5)).raw_rate_bps, 8000.0, 1.0);
}

TEST(RateTableTest, CodedVariantsExtendRange) {
  const auto table = RateTable::paper_default();
  // Just below the uncoded 16k threshold the coded 16k variant (threshold
  // -1.5 dB) beats dropping all the way to 8k uncoded.
  const auto& opt = table.select(32.0);
  EXPECT_NEAR(opt.raw_rate_bps, 16000.0, 1.0);
  EXPECT_LT(opt.code_rate(), 1.0);  // a coded (RS) variant
  // The convolutional option has its own niche where the rate ladder gaps
  // 4x: at 17.5 dB the soft-decoded 4k+CC(7,1/2) (threshold 17 dB,
  // effective 2 Kbps) beats every eligible alternative, including 1k
  // uncoded and the deep-RS 4k variant.
  const auto& cc = table.select(17.5);
  EXPECT_EQ(cc.name, "4kbps+CC(7,1/2)");
  EXPECT_NEAR(cc.effective_rate_bps(), 2000.0, 1.0);
}

TEST(Goodput, WaterfallCalibratedAtThreshold) {
  EXPECT_NEAR(waterfall_ber(28.0, 28.0), 0.01, 0.002);
  EXPECT_LT(waterfall_ber(34.0, 28.0), 1e-4);
  EXPECT_GT(waterfall_ber(22.0, 28.0), 0.05);
}

TEST(Goodput, CodingExtendsWorkingRange) {
  const GoodputModel model;
  RateOption raw{"16k", phy::PhyParams::rate_16kbps(), 16000.0, 33.0,
                 rt::coding::CodeDescriptor::none()};
  RateOption coded{"16k+rs", phy::PhyParams::rate_16kbps(), 16000.0, 33.0,
                   rt::coding::CodeDescriptor::reed_solomon(255, 223)};
  // Slightly below threshold: coded link delivers, raw collapses.
  EXPECT_GT(model.goodput_bps(coded, 32.0), model.goodput_bps(raw, 32.0));
  // Far above threshold: raw wins by the code-rate overhead.
  EXPECT_GT(model.goodput_bps(raw, 45.0), model.goodput_bps(coded, 45.0));
  EXPECT_NEAR(model.goodput_bps(coded, 45.0) / model.goodput_bps(raw, 45.0), 223.0 / 255.0,
              0.01);
}

TEST(Goodput, MeasuredCurveOverridesAnalytic) {
  GoodputModel model;
  RateOption opt{"8k", phy::PhyParams::rate_8kbps(), 8000.0, 28.0,
                 rt::coding::CodeDescriptor::none()};
  model.add_measurements("8k", {{20.0, 0.2}, {30.0, 1e-5}});
  EXPECT_NEAR(model.ber(opt, 20.0), 0.2, 1e-9);
  EXPECT_NEAR(model.ber(opt, 30.0), 1e-5, 1e-9);
  // Log-interpolated midpoint.
  const double mid = model.ber(opt, 25.0);
  EXPECT_GT(mid, 1e-5);
  EXPECT_LT(mid, 0.2);
}

TEST(Goodput, DuplicateMeasurementPointsStayFinite) {
  GoodputModel model;
  RateOption opt{"8k", phy::PhyParams::rate_8kbps(), 8000.0, 28.0,
                 rt::coding::CodeDescriptor::none()};
  // Regression: repeated measurements at one SNR used to produce a
  // zero-width interpolation segment and a NaN BER. Duplicates collapse
  // to their worst (highest) BER.
  model.add_measurements("8k", {{25.0, 1e-3}, {25.0, 5e-2}, {20.0, 0.2}, {30.0, 1e-5}});
  for (double snr = 18.0; snr <= 32.0; snr += 0.5) {
    const double b = model.ber(opt, snr);
    EXPECT_TRUE(std::isfinite(b)) << "BER not finite at " << snr << " dB";
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
  EXPECT_NEAR(model.ber(opt, 25.0), 5e-2, 1e-9);  // worst duplicate kept
  // All-duplicate curve: a single collapsed point clamps everywhere.
  GoodputModel flat;
  flat.add_measurements("8k", {{25.0, 1e-3}, {25.0, 1e-3}, {25.0, 2e-3}});
  EXPECT_NEAR(flat.ber(opt, 10.0), 2e-3, 1e-12);
  EXPECT_NEAR(flat.ber(opt, 40.0), 2e-3, 1e-12);
}

TEST(Network, PerTagTelemetryCountsAndMerges) {
  const auto table = RateTable::paper_default();
  const GoodputModel model;
  NetworkStudyConfig cfg;
  cfg.trials = 25;
  Rng rng(11);
  const auto r = rate_adaptation_study(6, table, model, cfg, rng);
  ASSERT_EQ(r.per_tag.size(), 6u);
  for (const auto& t : r.per_tag) {
    // Every tag is discovered every trial, and runs the full exchange.
    EXPECT_EQ(t.trials, 25u);
    EXPECT_GE(t.discovery_rounds, t.trials);  // rounds are 1-based
    EXPECT_EQ(t.packets_attempted, 25u * static_cast<std::uint64_t>(cfg.arq_packets_per_tag));
    EXPECT_LE(t.packets_delivered, t.packets_attempted);
    EXPECT_GE(t.mean_discovery_round(), 1.0);
  }
  // Same seeds -> bit-identical telemetry (the ARQ stream splits off
  // telemetry_seed per trial, independent of the placement Rng state).
  Rng rng2(11);
  const auto r2 = rate_adaptation_study(6, table, model, cfg, rng2);
  EXPECT_EQ(r.per_tag, r2.per_tag);
  // Merge is a plain sum: two equal runs merge to doubled counters.
  TagTelemetry merged = r.per_tag[0];
  merged.merge(r2.per_tag[0]);
  EXPECT_EQ(merged.trials, 50u);
  EXPECT_EQ(merged.arq_retries, 2 * r.per_tag[0].arq_retries);
  EXPECT_NEAR(merged.mean_discovery_round(), r.per_tag[0].mean_discovery_round(), 1e-12);
}

TEST(Network, TelemetryStreamDoesNotPerturbGoodput) {
  const auto table = RateTable::paper_default();
  const GoodputModel model;
  NetworkStudyConfig a;
  a.trials = 15;
  NetworkStudyConfig b = a;
  b.arq_packets_per_tag = 9;   // different telemetry load...
  b.telemetry_seed = 12345;    // ...on a different ARQ stream
  Rng ra(21);
  Rng rb(21);
  const auto res_a = rate_adaptation_study(8, table, model, a, ra);
  const auto res_b = rate_adaptation_study(8, table, model, b, rb);
  // The goodput aggregates ride only on the placement/discovery stream.
  EXPECT_EQ(res_a.mean_adaptive_bps, res_b.mean_adaptive_bps);
  EXPECT_EQ(res_a.mean_baseline_bps, res_b.mean_baseline_bps);
  EXPECT_EQ(res_a.mean_discovery_rounds, res_b.mean_discovery_rounds);
}

TEST(Network, RateAdaptationGainGrowsWithTags) {
  const auto table = RateTable::paper_default();
  const GoodputModel model;
  NetworkStudyConfig cfg;
  cfg.trials = 40;
  Rng rng(7);
  const auto r4 = rate_adaptation_study(4, table, model, cfg, rng);
  const auto r32 = rate_adaptation_study(32, table, model, cfg, rng);
  const auto r100 = rate_adaptation_study(100, table, model, cfg, rng);
  EXPECT_GT(r4.gain(), 1.0);
  EXPECT_GT(r32.gain(), r4.gain());
  EXPECT_GE(r100.gain(), r32.gain() * 0.9);
  // Paper's shape: ~1.2x at 4 tags growing to ~3.7x at 100.
  EXPECT_LT(r4.gain(), 3.0);
  EXPECT_GT(r100.gain(), 2.0);
  EXPECT_GT(r100.mean_discovery_rounds, r4.mean_discovery_rounds);
}

}  // namespace
}  // namespace rt::mac
