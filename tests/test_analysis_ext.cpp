// Tests for the multi-tag collision study.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>

#include "common/units.h"
#include "phy/demodulator.h"
#include "phy/modulator.h"
#include "sim/link_sim.h"
#include "sim/multi_tag.h"

namespace rt {
namespace {

class MultiTagTest : public ::testing::Test {
 protected:
  phy::PhyParams params() {
    phy::PhyParams p;
    p.dsm_order = 4;
    p.bits_per_axis = 1;
    p.slot_s = rt::ms(1.0);
    p.charge_s = rt::ms(0.5);
    p.preamble_slots = 32;
    p.equalizer_branches = 8;
    return p;
  }

  /// The packet schedule `mod` builds for `bits`.
  static phy::PacketSchedule packet(const phy::Modulator& mod,
                                    std::span<const std::uint8_t> bits) {
    phy::ModulatorWorkspace ws;
    phy::PacketSchedule pkt;
    mod.modulate_into(bits, ws, pkt);
    return pkt;
  }
};

TEST_F(MultiTagTest, ConcurrentTransmissionBreaksSingleTagDemodulation) {
  // Two tags answering at once (the collision TDMA exists to avoid): the
  // single-tag receiver must degrade badly versus the clean case.
  const auto p = params();
  const phy::Modulator mod(p);
  Rng rng(3);
  const auto bits_a = rng.bits(64);
  const auto bits_b = rng.bits(64);
  const auto pkt_a = packet(mod, bits_a);
  const auto pkt_b = packet(mod, bits_b);

  const auto demod_ber = [&](const std::vector<sim::ConcurrentTag>& tags) {
    auto rx = sim::superimpose_tags(p, tags, pkt_a.duration_s + p.symbol_duration_s(), 35.0,
                                    std::uint64_t{9});
    const phy::Demodulator demod(p, sim::train_offline_model(p, p.tag_config()));
    phy::DemodOptions opts;
    opts.search_limit = 2 * p.samples_per_slot();
    phy::DemodWorkspace ws;
    phy::DemodResult res;
    demod.demodulate_into(rx, pkt_a.layout.payload_slots, opts, ws, res);
    if (!res.preamble_found) return 1.0;
    std::size_t errors = 0;
    for (std::size_t i = 0; i < bits_a.size(); ++i) errors += res.bits[i] != bits_a[i];
    return static_cast<double>(errors) / static_cast<double>(bits_a.size());
  };

  sim::ConcurrentTag wanted{p.tag_config(), sim::Pose{}, 1.0, pkt_a.firings};
  const double clean = demod_ber({wanted});
  EXPECT_LT(clean, 0.01);

  const sim::ConcurrentTag interferer{p.tag_config(), sim::Pose{2.0, rt::deg_to_rad(30.0), 0.0},
                                      0.8, pkt_b.firings};
  const double collided = demod_ber({wanted, interferer});
  EXPECT_GT(collided, 10.0 * std::max(clean, 0.005))
      << "a concurrent equal-power tag must corrupt the uplink";
}

TEST_F(MultiTagTest, SeededSuperimposeIsAPureFunctionOfItsSeed) {
  // Repeat-run property: one noise seed must reproduce the waveform
  // sample-for-sample, and a different noise seed must not.
  const auto p = params();
  const phy::Modulator mod(p);
  Rng rng(21);
  const auto pkt = packet(mod, rng.bits(16));
  const std::vector<sim::ConcurrentTag> tags = {
      {p.tag_config(), sim::Pose{}, 1.0, pkt.firings}};
  const double dur = pkt.duration_s + p.symbol_duration_s();
  const auto a = sim::superimpose_tags(p, tags, dur, 30.0, std::uint64_t{42});
  const auto b = sim::superimpose_tags(p, tags, dur, 30.0, std::uint64_t{42});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "sample " << i;
  const auto c = sim::superimpose_tags(p, tags, dur, 30.0, std::uint64_t{43});
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) any_diff = a[i] != c[i];
  EXPECT_TRUE(any_diff) << "a different noise seed must change the waveform";
}

TEST_F(MultiTagTest, CollisionSlotSeedsPartitionTrialsAndStreams) {
  // Mirror of test_runtime's NoCollisionsOverAPacketGrid: every
  // (trial, stream) slot of a study must get its own seed, and the
  // layout must be a pure function of its indices.
  std::set<std::uint64_t> seen;
  const std::uint64_t bases[] = {0, 1, 99, 0xdeadbeef};
  for (const std::uint64_t base : bases)
    for (std::uint64_t trial = 0; trial < 64; ++trial)
      for (std::uint64_t stream = 0; stream < 3; ++stream)
        seen.insert(sim::collision_slot_seed(base, trial, stream));
  EXPECT_EQ(seen.size(), std::size(bases) * 64 * 3);
  EXPECT_EQ(sim::collision_slot_seed(99, 7, 2), sim::collision_slot_seed(99, 7, 2));
}

TEST_F(MultiTagTest, WeakInterfererOnlyDegradesGracefully) {
  // A far-away tag 20 dB down: the link survives (the directionality
  // argument for why VLBC collisions are rarer than RF ones).
  const auto p = params();
  const phy::Modulator mod(p);
  Rng rng(5);
  const auto bits_a = rng.bits(64);
  const auto pkt_a = packet(mod, bits_a);
  const auto pkt_b = packet(mod, rng.bits(64));
  sim::ConcurrentTag wanted{p.tag_config(), sim::Pose{}, 1.0, pkt_a.firings};
  const sim::ConcurrentTag weak{p.tag_config(), sim::Pose{}, 0.1, pkt_b.firings};
  auto rx = sim::superimpose_tags(p, {wanted, weak}, pkt_a.duration_s + p.symbol_duration_s(),
                                  35.0, std::uint64_t{11});
  const phy::Demodulator demod(p, sim::train_offline_model(p, p.tag_config()));
  phy::DemodOptions opts;
  opts.search_limit = 2 * p.samples_per_slot();
  phy::DemodWorkspace ws;
  phy::DemodResult res;
  demod.demodulate_into(rx, pkt_a.layout.payload_slots, opts, ws, res);
  ASSERT_TRUE(res.preamble_found);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits_a.size(); ++i) errors += res.bits[i] != bits_a[i];
  EXPECT_LT(static_cast<double>(errors) / static_cast<double>(bits_a.size()), 0.05);
}

}  // namespace
}  // namespace rt
