// fleet_inventory: coordinated inventory campaigns over a corridor of
// readers and thousands of tags (fleet::place_fleet, plan_slot_schedule,
// run_fleet_campaign, with one mac::RateController per reader), at nproc
// threads and, for the scaling efficiency, on one thread.
#include <optional>

#include "fleet/campaign.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "mac/goodput.h"
#include "mac/rate_table.h"
#include "runtime/thread_pool.h"

namespace perfbench {

namespace {

constexpr int kReaders = 8;
constexpr int kTags = 12000;
/// Distinct campaigns (campaign seeds) over the one placed deployment.
/// Each runs at least kMinRepeats times at nproc threads; its time is the
/// fastest run, which filters out the seconds-long slowdowns a shared host
/// imposes. 100 campaigns make the tail p90.
constexpr std::uint64_t kCampaigns = 100;
constexpr std::uint64_t kMinRepeats = 2;
/// Campaigns that also run alternately on one thread and at nproc threads
/// (twice each, fastest kept) for the scaling efficiency and the
/// serial == threaded check, at full scale.
constexpr std::uint64_t kSerialCampaigns = 12;
constexpr int kFleetSetupReps = 5;
constexpr int kScheduleReps = 50;
constexpr double kParallelShare = 0.75;

rt::fleet::FleetConfig campaign_config(const rt::fleet::FleetConfig& base, std::uint64_t c,
                                       unsigned threads) {
  auto cfg = base;
  cfg.seed = rt::split_seed(base.seed, c, 1);
  cfg.threads = threads;
  return cfg;
}

}  // namespace

WorkloadResult run_fleet_inventory(const RunConfig& cfg, Tracer* tracer) {
  WorkloadResult r;
  const double rss0 = rss_mb();
  const unsigned threads = rt::runtime::hardware_threads();
  r.threads = threads;
  rt::fleet::FleetConfig fc;
  fc.deployment.readers = kReaders;
  fc.deployment.tags = kTags;
  fc.coordinate_readers = true;
  fc.threads = threads;
  fc.seed = input_seed(cfg, 300);

  std::optional<rt::mac::RateTable> table;
  std::optional<rt::mac::GoodputModel> model;
  rt::fleet::Deployment dep;
  std::vector<double> place_ms;
  const auto setups = time_setups(kFleetSetupReps, [&] {
    table.emplace(rt::mac::RateTable::paper_default());
    model.emplace();
    const auto t0 = Clock::now();
    dep = rt::fleet::place_fleet(fc.deployment, fc.seed);
    place_ms.push_back(ms_between(t0, Clock::now()));
  });

  const auto run = [&](std::uint64_t c, unsigned n) {
    return rt::fleet::run_fleet_campaign(*table, *model, campaign_config(fc, c, n), dep);
  };
  const auto check = [&](const rt::fleet::FleetResult& res, const rt::fleet::FleetResult& first) {
    r.check(res.identical(first), "fleet campaign differs from its first run");
    r.check(res.cross_collisions == 0, "coordinated campaign registered cross-cell collisions");
  };
  static_cast<void>(run(0, threads));  // warm-up

  // Campaigns 0..kCampaigns-1 at nproc threads, cycled until the time is
  // spent; then the first kSerialCampaigns alternately on one thread.
  const double budget = tracer != nullptr ? 0.5 * cfg.seconds : cfg.seconds;
  std::vector<rt::fleet::FleetResult> first(kCampaigns);
  std::vector<double> best_ms(kCampaigns, 0.0);
  std::uint64_t runs = 0;
  const auto t0 = Clock::now();
  while (runs < kCampaigns * kMinRepeats || seconds_since(t0) < kParallelShare * budget) {
    const std::uint64_t c = runs % kCampaigns;
    const auto a = Clock::now();
    auto res = run(c, threads);
    const double ms = ms_between(a, Clock::now());
    if (runs < kCampaigns) {
      best_ms[c] = ms;
      first[c] = std::move(res);
    } else {
      best_ms[c] = std::min(best_ms[c], ms);
      check(res, first[c]);
    }
    ++runs;
  }
  std::vector<double> speedup;  // per campaign: time on one thread / time at nproc
  for (std::uint64_t c = 0; c < kSerialCampaigns; ++c) {
    double one = 0.0;
    double all = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      const auto a = Clock::now();
      check(run(c, 1), first[c]);
      const auto b = Clock::now();
      check(run(c, threads), first[c]);
      const auto e = Clock::now();
      one = rep == 0 ? ms_between(a, b) : std::min(one, ms_between(a, b));
      all = rep == 0 ? ms_between(b, e) : std::min(all, ms_between(b, e));
    }
    speedup.push_back(one / all);
  }
  r.attempted = runs + 4 * kSerialCampaigns;

  std::vector<double> rate;
  std::vector<double> rt_factor;
  std::uint64_t slots = 0;
  std::uint64_t lost = 0;
  for (std::uint64_t c = 0; c < kCampaigns; ++c) {
    const auto& res = first[c];
    rate.push_back(static_cast<double>(res.slots) / (best_ms[c] / 1e3));
    // Simulated deployment time: the delivered payload at the fleet goodput.
    const double air_s = static_cast<double>(res.delivered) *
                         static_cast<double>(fc.payload_bytes * 8) / res.fleet_goodput_bps;
    rt_factor.push_back(air_s / (best_ms[c] / 1e3));
    slots += res.slots;
    lost += res.slots - res.delivered;
  }
  const std::uint64_t slot_bits = fc.payload_bytes * 8;
  const double slots_per_s = median(rate);
  const Tail tail = tail_percentile(best_ms);
  r.e2e("setup_s", median(setups), setups.size(), "rate table, goodput model, place_fleet");
  r.e2e("pkt_per_s", slots_per_s, rate.size(), "uplink packets (slots) per second");
  r.e2e("decode_ms_p50", median(best_ms), best_ms.size(),
        "one whole campaign, fastest run per campaign");
  r.e2e("decode_ms_tail", tail.value, tail.samples, tail_note(tail));
  r.e2e("realtime_factor", median(rt_factor), rt_factor.size(),
        "simulated deployment time / campaign wall time");
  r.e2e("sweep_scaling_eff", median(speedup) / threads, speedup.size(),
        "slots/s at nproc / (nproc x slots/s at 1 thread), paired per campaign");
  r.e2e("fleet_slots_per_s", slots_per_s, rate.size(), "median over campaigns");
  r.e2e("frame_error_rate", smoothed_rate(lost, slots), slots,
        std::to_string(lost) + " undelivered slots");
  r.e2e("ber", smoothed_rate(lost * slot_bits, slots * slot_bits), slots * slot_bits,
        "an undelivered slot loses all its payload bits");
  r.e2e("peak_rss_mb", peak_rss_mb() - rss0, 1, "VmHWM over the start-up VmRSS");
  if (tracer == nullptr) return r;

  std::vector<double> schedule_ms;
  for (int i = 0; i < kScheduleReps; ++i) {
    Tracer::Scope s(tracer, Layer::kFleet, "plan_slot_schedule", -1);
    const auto sched = rt::fleet::plan_slot_schedule(dep, fc.coordinate_readers);
    schedule_ms.push_back(s.stop());
    r.check(sched.num_colors == first[0].num_colors, "slot schedule differs from the campaign's");
  }
  std::vector<double> traced_ms;
  const auto t1 = Clock::now();
  std::vector<double> untraced_ms;
  for (std::uint64_t c = 0; c < kCampaigns && (c < 3 || seconds_since(t1) < 0.5 * cfg.seconds);
       ++c) {
    // The same campaign untraced and traced, back to back.
    const auto a = Clock::now();
    static_cast<void>(run(c, threads));
    untraced_ms.push_back(ms_between(a, Clock::now()));
    Tracer::Scope s(tracer, Layer::kFleet, "run_fleet_campaign", static_cast<std::int64_t>(c));
    const auto res = run(c, threads);
    traced_ms.push_back(s.stop());
    check(res, first[c]);
  }
  r.attempted += traced_ms.size();
  const auto& reference = first[0];
  std::uint64_t switches = 0;
  for (const auto& o : reference.readers) switches += o.rate_switches;
  add_self_metrics(r, *tracer, traced_ms.size());
  r.layer("fleet.schedule_ms", median(schedule_ms), schedule_ms.size());
  r.layer("fleet.campaign_ms", median(traced_ms), traced_ms.size());
  r.layer("fleet.discovery_rounds_mean", reference.mean_discovery_rounds, dep.tags.size());
  r.layer("fleet.cross_collisions", static_cast<double>(reference.cross_collisions),
          reference.slots, "coordinated schedule: 0 by design");
  r.layer("mac.rate_switches", static_cast<double>(switches), reference.readers.size());
  r.layer("setup.fleet_place_ms", median(place_ms), place_ms.size());
  r.layer("trace.overhead_ratio", median(untraced_ms) / median(traced_ms), traced_ms.size(),
          "traced / untraced campaigns per second");
  return r;
}

}  // namespace perfbench
