// TDMA scheduling and RFID-style tag discovery (paper section 4.4).
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace rt::mac {

/// Round-robin TDMA: each registered tag gets one uplink slot per round.
class TdmaScheduler {
 public:
  void register_tag(std::uint8_t tag_id) {
    RT_ENSURE(!has_tag(tag_id), "tag already registered");
    tags_.push_back(tag_id);
  }

  [[nodiscard]] bool has_tag(std::uint8_t tag_id) const {
    return std::find(tags_.begin(), tags_.end(), tag_id) != tags_.end();
  }

  /// Tag owning uplink slot `slot` (slots cycle round-robin).
  [[nodiscard]] std::uint8_t owner(std::size_t slot) const {
    RT_ENSURE(!tags_.empty(), "no tags registered");
    return tags_[slot % tags_.size()];
  }

  /// Airtime fraction each tag receives.
  [[nodiscard]] double airtime_share() const {
    RT_ENSURE(!tags_.empty(), "no tags registered");
    return 1.0 / static_cast<double>(tags_.size());
  }

 private:
  std::vector<std::uint8_t> tags_;
};

/// Framed slotted-ALOHA discovery, as in RFID inventory: each round the
/// reader opens a frame of response slots; undiscovered tags pick one
/// uniformly; singleton slots are discovered and acknowledged.
/// `frame_slots` = 0 selects the adaptive (Q-algorithm-style) frame size,
/// matching the remaining population -- necessary for large fleets, since
/// a fixed small frame's singleton probability collapses as n grows.
struct DiscoveryResult {
  int rounds = 0;
  std::vector<std::uint8_t> discovered;  ///< in discovery order
  std::vector<int> discovery_round;      ///< 1-based round each tag was found in
};

[[nodiscard]] inline DiscoveryResult discover_tags(const std::vector<std::uint8_t>& tag_ids,
                                                   std::size_t frame_slots, Rng& rng,
                                                   int max_rounds = 1000) {
  DiscoveryResult out;
  std::set<std::uint8_t> remaining(tag_ids.begin(), tag_ids.end());
  while (!remaining.empty() && out.rounds < max_rounds) {
    ++out.rounds;
    const std::size_t slots_this_round =
        frame_slots > 0 ? frame_slots : std::max<std::size_t>(remaining.size(), 2);
    std::vector<std::vector<std::uint8_t>> slots(slots_this_round);
    for (const auto id : remaining)
      slots[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(slots_this_round) - 1))]
          .push_back(id);
    for (const auto& slot : slots) {
      if (slot.size() != 1) continue;  // empty or collision
      out.discovered.push_back(slot.front());
      out.discovery_round.push_back(out.rounds);
      remaining.erase(slot.front());
    }
  }
  RT_ENSURE(remaining.empty(), "discovery did not converge within max_rounds");
  return out;
}

}  // namespace rt::mac
