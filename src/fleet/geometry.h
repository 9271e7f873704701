// Deployment-scale geometry: readers, tag placement, shard assignment.
//
// A fleet deployment is a corridor of readers (light fixtures with a
// reader photodiode each) at a fixed pitch, with tags scattered around
// the reader line. Per-(tag, reader) SNR comes from the retroreflective
// link budget (optics::LinkBudget) applied to Euclidean distance; each
// tag homes to its argmax-SNR reader, which partitions the population
// into per-reader *shards* -- the unit of TDMA inventory in
// fleet/campaign.h. Readers whose coverage regions overlap (a tag of one
// is audible at the other above the hearing floor) are the inter-cell
// interference edges fleet/scheduler.h colors around.
//
// Placement is a pure function of (config, seed) via rt::split_seed, so
// a deployment can be rebuilt bit-identically inside any worker.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/narrow.h"
#include "common/rng.h"
#include "optics/link_budget.h"

namespace rt::fleet {

/// Random placement puts each tag this far (m) from the corridor line,
/// uniformly in [kMinRangeM, kMaxRangeM].
inline constexpr double kMinRangeM = 0.8;
inline constexpr double kMaxRangeM = 3.5;
static_assert(kMinRangeM > 0.0 && kMaxRangeM >= kMinRangeM,
              "tag placement range must be positive and ordered");

/// A reader hears a tag at or above this SNR (wide-beam 14 dB ~= the
/// 4.3 m edge of the Fig. 18c study); below it the tag is invisible to
/// that reader, above it the tag both registers and interferes.
inline constexpr double kHearingFloorDb = 14.0;

struct DeploymentConfig {
  int readers = 4;
  int tags = 1000;
  double reader_spacing_m = 6.0;  ///< reader pitch along the corridor line
  optics::LinkBudget budget = optics::LinkBudget::wide_beam();

  friend bool operator==(const DeploymentConfig&, const DeploymentConfig&) = default;
};

/// One tag's placement and shard assignment. Data-derived only, so two
/// deployments built from the same (config, seed) compare bit-identical.
struct TagSite {
  double x_m = 0.0;
  double y_m = 0.0;
  std::uint32_t home_reader = 0;  ///< argmax-SNR reader (ties -> lower index)
  double home_snr_db = 0.0;       ///< uplink SNR at the home reader
  std::uint32_t heard_by = 0;     ///< readers whose SNR clears the hearing floor

  friend bool operator==(const TagSite&, const TagSite&) = default;
};

struct Deployment {
  DeploymentConfig cfg;
  std::vector<double> reader_x_m;                   ///< reader positions on y = 0
  std::vector<TagSite> tags;                        ///< indexed by tag id
  std::vector<std::vector<std::uint32_t>> shards;   ///< tag ids per home reader
  /// audible[r][q]: tags homed at reader q that reader r can hear. The
  /// diagonal is the shard size; off-diagonal entries are the inter-cell
  /// interference loads the scheduler and the uncoordinated collision
  /// model consume.
  std::vector<std::vector<std::uint32_t>> audible;

  [[nodiscard]] double snr_db_at(const TagSite& t, std::size_t reader) const {
    const double dx = t.x_m - reader_x_m[reader];
    const double d = std::sqrt(dx * dx + t.y_m * t.y_m);
    // Floor the range at 10 cm: a tag cannot occupy the fixture itself.
    return cfg.budget.snr_db_at(d < 0.1 ? 0.1 : d);
  }

  /// True when readers r and q mutually interfere: either can hear a tag
  /// homed at the other.
  [[nodiscard]] bool conflicts(std::size_t r, std::size_t q) const {
    return r != q && (audible[r][q] > 0 || audible[q][r] > 0);
  }

  friend bool operator==(const Deployment&, const Deployment&) = default;
};

namespace detail {

/// Fills shard/audibility tables from already-placed tag coordinates.
inline void assign_shards(Deployment& d) {
  const std::size_t readers = d.reader_x_m.size();
  d.shards.assign(readers, {});
  d.audible.assign(readers, std::vector<std::uint32_t>(readers, 0));
  for (std::size_t id = 0; id < d.tags.size(); ++id) {
    TagSite& t = d.tags[id];
    t.home_reader = 0;
    t.home_snr_db = d.snr_db_at(t, 0);
    t.heard_by = 0;
    for (std::size_t r = 1; r < readers; ++r) {
      const double snr = d.snr_db_at(t, r);
      if (snr > t.home_snr_db) {
        t.home_snr_db = snr;
        t.home_reader = narrow_cast<std::uint32_t>(r);
      }
    }
    d.shards[t.home_reader].push_back(narrow_cast<std::uint32_t>(id));
    for (std::size_t r = 0; r < readers; ++r) {
      if (d.snr_db_at(t, r) >= kHearingFloorDb) {
        ++t.heard_by;
        ++d.audible[r][t.home_reader];
      }
    }
  }
}

}  // namespace detail

/// Builds a deployment from explicit tag coordinates (tests use this to
/// pin geometry exactly; the campaign only reads sites through the
/// deployment, so explicit and random placements behave identically).
[[nodiscard]] inline Deployment place_fleet(const DeploymentConfig& cfg,
                                            const std::vector<std::pair<double, double>>& sites) {
  RT_ENSURE(cfg.readers >= 1, "fleet needs at least one reader");
  RT_ENSURE(!sites.empty(), "fleet needs at least one tag");
  Deployment d;
  d.cfg = cfg;
  d.cfg.tags = narrow_cast<int>(sites.size());
  d.reader_x_m.resize(static_cast<std::size_t>(cfg.readers));
  for (std::size_t r = 0; r < d.reader_x_m.size(); ++r)
    d.reader_x_m[r] = static_cast<double>(r) * cfg.reader_spacing_m;
  d.tags.resize(sites.size());
  for (std::size_t id = 0; id < sites.size(); ++id) {
    d.tags[id].x_m = sites[id].first;
    d.tags[id].y_m = sites[id].second;
  }
  detail::assign_shards(d);
  return d;
}

/// Builds a deployment with randomized tag placement: tag `id` draws its
/// site from the disjoint stream rt::split_seed(seed, id), making the
/// whole deployment a pure function of (cfg, seed). Tags land uniformly
/// along the corridor span with a uniform lateral offset in
/// [kMinRangeM, kMaxRangeM] on either side.
[[nodiscard]] inline Deployment place_fleet(const DeploymentConfig& cfg, std::uint64_t seed) {
  RT_ENSURE(cfg.readers >= 1, "fleet needs at least one reader");
  RT_ENSURE(cfg.tags >= 1, "fleet needs at least one tag");
  std::vector<std::pair<double, double>> sites(static_cast<std::size_t>(cfg.tags));
  const double span = static_cast<double>(cfg.readers - 1) * cfg.reader_spacing_m;
  for (std::size_t id = 0; id < sites.size(); ++id) {
    Rng rng(split_seed(seed, static_cast<std::uint64_t>(id)));
    const double x = rng.uniform(-cfg.reader_spacing_m / 2.0, span + cfg.reader_spacing_m / 2.0);
    const double y = rng.uniform(kMinRangeM, kMaxRangeM);
    sites[id] = {x, rng.bernoulli() ? y : -y};
  }
  return place_fleet(cfg, sites);
}

}  // namespace rt::fleet
