// Tests for the fleet layer: deployment geometry and shard assignment,
// cross-reader slot scheduling, the sharded inventory campaign's
// determinism contract (serial == N-thread, batch-grain invariance,
// controller-state isolation), cross-cell collision accounting and the
// parallel waveform-level collision study.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "fleet/campaign.h"
#include "fleet/collision.h"
#include "fleet/geometry.h"
#include "fleet/scheduler.h"

namespace rt::fleet {
namespace {

DeploymentConfig small_deployment(int readers, int tags, double spacing_m = 6.0) {
  DeploymentConfig d;
  d.readers = readers;
  d.tags = tags;
  d.reader_spacing_m = spacing_m;
  return d;
}

FleetConfig small_campaign(int readers, int tags) {
  FleetConfig cfg;
  cfg.deployment = small_deployment(readers, tags);
  cfg.epochs = 2;
  cfg.rounds_per_epoch = 8;
  cfg.batch_rounds = 3;
  cfg.seed = 321;
  return cfg;
}

// ---------------------------------------------------------------------------
// geometry

TEST(DeploymentTest, PlacementIsAPureFunctionOfConfigAndSeed) {
  const auto cfg = small_deployment(3, 120);
  const Deployment a = place_fleet(cfg, 7);
  const Deployment b = place_fleet(cfg, 7);
  EXPECT_TRUE(a == b);
  const Deployment c = place_fleet(cfg, 8);
  EXPECT_FALSE(a == c) << "a different seed must move the tags";
}

TEST(DeploymentTest, ShardsPartitionThePopulation) {
  const Deployment d = place_fleet(small_deployment(4, 500), 11);
  std::vector<int> seen(d.tags.size(), 0);
  for (std::size_t r = 0; r < d.shards.size(); ++r) {
    for (const std::uint32_t id : d.shards[r]) {
      ++seen[id];
      EXPECT_EQ(d.tags[id].home_reader, r);
    }
  }
  for (const int s : seen) EXPECT_EQ(s, 1) << "every tag homes to exactly one shard";
  // The diagonal of the audibility table is bounded by the shard size.
  for (std::size_t r = 0; r < d.shards.size(); ++r)
    EXPECT_LE(d.audible[r][r], d.shards[r].size());
}

TEST(DeploymentTest, ExplicitSitesHomeToTheNearestReader) {
  const auto cfg = small_deployment(2, 2, 10.0);
  const Deployment d = place_fleet(cfg, {{0.5, 1.0}, {9.5, -1.0}});
  EXPECT_EQ(d.tags[0].home_reader, 0u);
  EXPECT_EQ(d.tags[1].home_reader, 1u);
  EXPECT_GT(d.tags[0].home_snr_db, d.snr_db_at(d.tags[0], 1));
}

// ---------------------------------------------------------------------------
// scheduler

TEST(SchedulerTest, OverlappingReadersGetDistinctColors) {
  // 2 m pitch: every tag is audible at both readers, so the cells
  // conflict and the coordinated schedule must separate them in time.
  const Deployment d = place_fleet(small_deployment(2, 60, 2.0), 5);
  ASSERT_TRUE(d.conflicts(0, 1));
  const SlotSchedule s = plan_slot_schedule(d, true);
  EXPECT_NE(s.colors[0], s.colors[1]);
  EXPECT_EQ(s.num_colors, 2u);
  EXPECT_DOUBLE_EQ(s.airtime_share(), 0.5);
}

TEST(SchedulerTest, IsolatedReadersShareOneColor) {
  // 200 m pitch: no tag of one cell is audible at the other, so both
  // readers poll concurrently at full airtime.
  const Deployment d = place_fleet(small_deployment(2, 60, 200.0), 5);
  ASSERT_FALSE(d.conflicts(0, 1));
  const SlotSchedule s = plan_slot_schedule(d, true);
  EXPECT_EQ(s.num_colors, 1u);
  EXPECT_DOUBLE_EQ(s.airtime_share(), 1.0);
}

TEST(SchedulerTest, UncoordinatedScheduleIsOneClassAtFullAirtime) {
  const Deployment d = place_fleet(small_deployment(3, 90, 2.0), 5);
  const SlotSchedule s = plan_slot_schedule(d, false);
  EXPECT_FALSE(s.coordinated);
  EXPECT_EQ(s.num_colors, 1u);
  EXPECT_DOUBLE_EQ(s.airtime_share(), 1.0);
}

// ---------------------------------------------------------------------------
// campaign determinism (the PR 2 contract at fleet scale)

TEST(FleetCampaignTest, SerialEqualsParallelBitIdentical) {
  const auto table = mac::RateTable::paper_default();
  const mac::GoodputModel model;
  FleetConfig cfg = small_campaign(3, 200);
  cfg.threads = 1;
  const FleetResult serial = run_fleet_campaign(table, model, cfg);
  for (const unsigned threads : {2u, 4u, 7u}) {
    cfg.threads = threads;
    const FleetResult parallel = run_fleet_campaign(table, model, cfg);
    EXPECT_TRUE(serial.identical(parallel))
        << "fleet campaign diverged at " << threads << " threads";
  }
}

TEST(FleetCampaignTest, BatchGrainDoesNotChangeResults) {
  const auto table = mac::RateTable::paper_default();
  const mac::GoodputModel model;
  FleetConfig cfg = small_campaign(3, 200);
  cfg.threads = 4;
  cfg.batch_rounds = 1;
  const FleetResult fine = run_fleet_campaign(table, model, cfg);
  cfg.batch_rounds = 3;
  const FleetResult medium = run_fleet_campaign(table, model, cfg);
  cfg.batch_rounds = cfg.rounds_per_epoch;
  const FleetResult coarse = run_fleet_campaign(table, model, cfg);
  // Round g of reader r is a pure function of (seed, r, g), so the batch
  // partition cannot show through in the data-derived results. Only the
  // sweep_batch span/counter bookkeeping differs between grains, so this
  // compares the result fields rather than identical().
  EXPECT_EQ(fine.readers, medium.readers);
  EXPECT_EQ(fine.readers, coarse.readers);
  EXPECT_EQ(fine.discovery_round, medium.discovery_round);
  EXPECT_EQ(fine.discovery_round, coarse.discovery_round);
}

TEST(FleetCampaignTest, ExplicitDeploymentMatchesSeedBuiltDeployment) {
  const auto table = mac::RateTable::paper_default();
  const mac::GoodputModel model;
  const FleetConfig cfg = small_campaign(2, 80);
  const FleetResult implicit = run_fleet_campaign(table, model, cfg);
  const FleetResult explicit_dep =
      run_fleet_campaign(table, model, cfg, place_fleet(cfg.deployment, cfg.seed));
  EXPECT_TRUE(implicit.identical(explicit_dep));
}

TEST(FleetCampaignTest, ControllerStateIsIsolatedPerReader) {
  // The same cell embedded in a larger (but non-interfering) fleet must
  // produce the identical per-reader outcome: reader r's streams are
  // keyed by (seed, r, round) and its controller never sees another
  // cell's estimates. Far spacing keeps shard contents identical.
  const auto table = mac::RateTable::paper_default();
  const mac::GoodputModel model;
  const std::vector<std::pair<double, double>> near_sites = {
      {0.2, 1.0}, {-0.8, -1.5}, {0.9, 2.0}, {0.0, -2.5}};

  FleetConfig solo = small_campaign(1, 4);
  const Deployment solo_dep = place_fleet(solo.deployment, near_sites);

  FleetConfig duo = small_campaign(2, 8);
  duo.deployment.reader_spacing_m = 500.0;
  std::vector<std::pair<double, double>> duo_sites = near_sites;
  for (const auto& [x, y] : near_sites) duo_sites.emplace_back(x + 500.0, y);
  const Deployment duo_dep = place_fleet(duo.deployment, duo_sites);
  ASSERT_FALSE(duo_dep.conflicts(0, 1));
  ASSERT_EQ(duo_dep.shards[0], solo_dep.shards[0]);

  const FleetResult solo_run = run_fleet_campaign(table, model, solo, solo_dep);
  const FleetResult duo_run = run_fleet_campaign(table, model, duo, duo_dep);
  ReaderOutcome lhs = solo_run.readers[0];
  ReaderOutcome rhs = duo_run.readers[0];
  EXPECT_EQ(lhs, rhs);
  for (std::size_t id = 0; id < solo_dep.tags.size(); ++id)
    EXPECT_EQ(solo_run.discovery_round[id], duo_run.discovery_round[id]);
}

// ---------------------------------------------------------------------------
// collision accounting

TEST(FleetCampaignTest, CoordinationEliminatesCrossCellCollisions) {
  const auto table = mac::RateTable::paper_default();
  const mac::GoodputModel model;
  FleetConfig cfg = small_campaign(3, 240);
  cfg.deployment.reader_spacing_m = 2.0;  // heavy overlap
  cfg.coordinate_readers = true;
  const FleetResult coordinated = run_fleet_campaign(table, model, cfg);
  EXPECT_EQ(coordinated.cross_collisions, 0u);
  EXPECT_GT(coordinated.num_colors, 1u);

  cfg.coordinate_readers = false;
  const FleetResult contended = run_fleet_campaign(table, model, cfg);
  EXPECT_GT(contended.cross_collisions, 0u)
      << "overlapping uncoordinated cells must collide";
  EXPECT_GT(contended.collision_rate, 0.0);
  // Reader outcomes reconcile: every attempted slot is delivered, lost to
  // the channel, or lost to a cross-cell collision.
  for (const ReaderOutcome& r : contended.readers) {
    EXPECT_LE(r.delivered + r.cross_collisions, r.slots);
    EXPECT_EQ(r.slots, r.shard_tags * 16u);  // epochs * rounds_per_epoch
  }
}

TEST(FleetCampaignTest, IsolatedCellsNeverCollideEvenUncoordinated) {
  const auto table = mac::RateTable::paper_default();
  const mac::GoodputModel model;
  FleetConfig cfg = small_campaign(3, 120);
  cfg.deployment.reader_spacing_m = 200.0;
  cfg.coordinate_readers = false;
  const FleetResult r = run_fleet_campaign(table, model, cfg);
  EXPECT_EQ(r.cross_collisions, 0u);
}

// ---------------------------------------------------------------------------
// scale

TEST(FleetCampaignTest, ThousandTagsFourReadersConverges) {
  const auto table = mac::RateTable::paper_default();
  const mac::GoodputModel model;
  FleetConfig cfg;
  cfg.deployment = small_deployment(4, 1000);
  cfg.epochs = 2;
  cfg.rounds_per_epoch = 10;
  cfg.threads = 4;
  cfg.seed = 2026;
  const FleetResult r = run_fleet_campaign(table, model, cfg);
  EXPECT_EQ(r.slots, 1000u * 20u);
  EXPECT_GT(r.fleet_goodput_bps, 0.0);
  EXPECT_GT(r.delivery_rate, 0.5) << "most slots should deliver under adapted rates";
  for (std::size_t id = 0; id < 1000; ++id)
    EXPECT_GT(r.discovery_round[id], 0u) << "tag " << id << " never discovered";
  EXPECT_GE(r.mean_discovery_rounds, 1.0);
  std::uint64_t shard_sum = 0;
  for (const ReaderOutcome& o : r.readers) shard_sum += o.shard_tags;
  EXPECT_EQ(shard_sum, 1000u);
}

// ---------------------------------------------------------------------------
// waveform-level collision study (the ported sim::multi_tag path)

TEST(CollisionStudyTest, PooledRunIsBitIdenticalAndGainDegradesTheLink) {
  CollisionStudyConfig cfg;
  cfg.interferer_gains = {0.0, 1.0};
  cfg.trials = 2;
  cfg.threads = 1;
  const CollisionStudyResult serial = run_collision_study(cfg);
  cfg.threads = 4;
  const CollisionStudyResult pooled = run_collision_study(cfg);
  EXPECT_TRUE(serial.identical(pooled));

  ASSERT_EQ(serial.points.size(), 2u);
  const double clean = serial.points[0].stats.ber();
  const double collided = serial.points[1].stats.ber();
  EXPECT_LT(clean, 0.01);
  EXPECT_GT(collided, 10.0 * std::max(clean, 0.005))
      << "an equal-power concurrent tag must corrupt the uplink";
}

TEST(CollisionStudyTest, BenchStudyStatsArePinned) {
  // bench_fleet_inventory's study (gains {0, 0.5, 1}, 2 trials each), on
  // two pool workers sharing the study's one modulator and demodulator.
  // The pinned stats are what the study produced when every trial built
  // its own pair, so the shared stage objects change no output bit.
  CollisionStudyConfig cfg;
  cfg.interferer_gains = {0.0, 0.5, 1.0};
  cfg.trials = 2;
  cfg.threads = 2;
  const CollisionStudyResult r = run_collision_study(cfg);
  const std::size_t pinned_errors[] = {0, 18, 38};
  ASSERT_EQ(r.points.size(), std::size(pinned_errors));
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const sim::LinkStats& s = r.points[i].stats;
    EXPECT_EQ(r.points[i].interferer_gain, cfg.interferer_gains[i]);
    EXPECT_EQ(s.packets, 2) << i;
    EXPECT_EQ(s.preamble_failures, 0) << i;
    EXPECT_EQ(s.total_bits, 128u) << i;
    EXPECT_EQ(s.bit_errors, pinned_errors[i]) << i;
  }
}

}  // namespace
}  // namespace rt::fleet
