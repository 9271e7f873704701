// Warehouse sensor fleet: the IoT scenario the paper's introduction
// motivates -- many battery-free tags on shelves, one ceiling reader.
//
// Runs the full MAC stack: slotted-ALOHA tag discovery, SNR-based rate
// adaptation from the paper's operating points, TDMA polling, and CRC +
// stop-and-wait delivery of sensor readings over the real PHY simulator
// (through the retroturbo::Link facade).
#include <algorithm>
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "common/units.h"
#include "core/retroturbo.h"
#include "mac/goodput.h"
#include "mac/rate_table.h"
#include "mac/tdma.h"

namespace {

/// One shelf tag: identity, placement and its synthetic sensor readout.
struct ShelfTag {
  std::uint8_t id;
  double distance_m;
  double roll_deg;

  [[nodiscard]] std::vector<std::uint8_t> sensor_reading(rt::Rng& rng) const {
    // temperature (x10), humidity, battery-free harvest level
    return {static_cast<std::uint8_t>(180 + rng.uniform_int(0, 60)),
            static_cast<std::uint8_t>(30 + rng.uniform_int(0, 40)),
            static_cast<std::uint8_t>(rng.uniform_int(0, 255))};
  }
};

/// Small fast PHY shared by all tags in this demo (a full 8 Kbps stack per
/// tag works too, it just takes longer to train).
rt::phy::PhyParams demo_phy() {
  rt::phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  return p;
}

}  // namespace

int main() {
  rt::Rng rng(2024);
  const auto budget = rt::optics::LinkBudget::wide_beam();
  const auto table = rt::mac::RateTable::paper_default();
  const rt::mac::GoodputModel goodput;

  // Deploy 6 tags across the aisle.
  std::vector<ShelfTag> tags;
  for (std::uint8_t i = 1; i <= 6; ++i)
    tags.push_back({i, rng.uniform(1.0, 4.3), rng.uniform(0.0, 180.0)});

  // Phase 1: discovery (framed slotted ALOHA, adaptive frame size).
  std::vector<std::uint8_t> ids;
  for (const auto& t : tags) ids.push_back(t.id);
  const auto discovery = rt::mac::discover_tags(ids, /*frame_slots=*/0, rng);
  std::printf("discovered %zu tags in %d rounds\n\n", discovery.discovered.size(),
              discovery.rounds);

  // Phase 2: per-tag rate assignment from measured SNR.
  std::printf("%-5s %-10s %-9s %-26s\n", "tag", "dist (m)", "SNR (dB)", "assigned rate");
  std::map<std::uint8_t, const rt::mac::RateOption*> assignment;
  for (const auto& t : tags) {
    const double snr = budget.snr_db_at(t.distance_m);
    const auto& opt = goodput.best_option(table, snr, 16);
    assignment[t.id] = &opt;
    std::printf("%-5u %-10.2f %-9.1f %-26s\n", t.id, t.distance_m, snr, opt.name.c_str());
  }

  // Phase 3: TDMA polling round -- every tag uploads one sensor frame
  // through the real PHY at its own simulated pose.
  rt::mac::TdmaScheduler tdma;
  for (const auto id : discovery.discovered) tdma.register_tag(id);
  std::printf("\nTDMA round (airtime share %.1f%% per tag):\n", 100.0 * tdma.airtime_share());

  int delivered = 0;
  for (std::size_t slot = 0; slot < tags.size(); ++slot) {
    const auto id = tdma.owner(slot);
    const auto& tag = *std::find_if(tags.begin(), tags.end(),
                                    [&](const ShelfTag& t) { return t.id == id; });
    retroturbo::LinkConfig cfg;
    cfg.custom_phy = demo_phy();
    cfg.roll_deg = tag.roll_deg;
    // The facade models the narrow-beam budget; the ceiling reader's wide
    // beam sets this shelf's SNR instead.
    cfg.snr_override_db = budget.snr_db_at(tag.distance_m);
    cfg.rs_n = 15;
    cfg.rs_k = 11;
    cfg.max_retransmissions = 3;
    cfg.seed = 100 + id;
    retroturbo::Link link(cfg);

    const auto r = link.send_bytes(tag.sensor_reading(rng));
    std::printf("  slot %zu tag %u: %s (%d attempt%s)", slot, id,
                r.delivered ? "delivered" : "LOST", r.attempts, r.attempts == 1 ? "" : "s");
    if (r.delivered) {
      ++delivered;
      std::printf("  T=%.1fC RH=%u%%", r.received[0] / 10.0, r.received[1]);
    }
    std::printf("\n");
  }
  std::printf("\nround complete: %d/%zu readings delivered\n", delivered, tags.size());
  return delivered == static_cast<int>(tags.size()) ? 0 : 1;
}
