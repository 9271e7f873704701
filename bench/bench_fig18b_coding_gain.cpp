// Fig. 18b: soft-vs-hard decision coding gain over the real link.
//
// Runs FEC-wrapped packets through the full TX -> channel -> RX pipeline
// (sim::CodedLink) instead of modeling coding analytically: every frame is
// whitened, encoded, interleaved, transmitted, DFE-equalized, and decoded
// twice from the *same* received waveform -- once from the demapper's
// exported LLRs (soft Viterbi / RS with GMD erasure retries) and once from
// sliced bits (classic hard decision). The spread between the two curves
// is the soft-decision coding gain the paper's Fig. 18b study motivates.
//
// Parts:
//   1. CC(7,1/2) + RS(63,47) post-decode BER vs SNR at 16 Kbps, soft and
//      hard, against the raw channel BER of the same waveforms.
//   2. Tab. 4 ambient-mobility scenarios: soft decoding must not lose to
//      hard under gain ripple either.
//   3. Expected goodput per (rate, code) option from the *measured*
//      curves (mac::GoodputModel::add_measurements). The raw 16 Kbps link
//      carries a residual BER floor (pixel heterogeneity), so -- exactly
//      as the paper's Fig. 18b finds -- the coded curves dominate raw
//      across the span, and the winning code lightens (higher effective
//      rate) as SNR improves.
//
// Gates (exit non-zero when violated):
//   - soft CC info errors <= hard CC info errors at every SNR point, and
//     strictly fewer summed over the low-SNR half (measurable gain)
//   - RS GMD erasure decoding delivers no more frame failures than
//     errors-only RS at any SNR
//   - soft never loses to hard under any Tab. 4 mobility scenario
//   - coded campaigns are bit-identical serial vs. N-thread
//   - measured goodput: a coded option beats raw 16 Kbps at every point,
//     and the winner's effective rate does not drop as SNR rises
//
// Knobs: RT_BENCH_PACKETS / RT_BENCH_PAYLOAD / RT_BENCH_THREADS.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "coding/code_descriptor.h"
#include "mac/goodput.h"
#include "runtime/batch.h"
#include "sim/coded_link.h"
#include "sim/mobility.h"

namespace {

using rt::sim::CodedLink;
using rt::sim::CodedLinkStats;

/// Runs one coded campaign over packets 0..packets-1 as one
/// run_deterministic_batches task per thread. Each task brings its own
/// workspace and stats slot, stats merge associatively, so the result is
/// bit-identical to CodedLink::run() at any thread count.
CodedLinkStats run_parallel(const CodedLink& clink, int packets, std::size_t payload,
                            CodedLink::DecodeMode mode, unsigned threads,
                            rt::bench::BenchReport& report) {
  const int n = static_cast<int>(threads);
  const int chunk = (packets + n - 1) / n;
  const std::size_t parts = static_cast<std::size_t>((packets + chunk - 1) / chunk);
  std::vector<CodedLinkStats> slots(parts);
  std::vector<std::function<rt::obs::Snapshot()>> tasks;
  tasks.reserve(parts);
  for (std::size_t t = 0; t < parts; ++t) {
    const int lo = static_cast<int>(t) * chunk;
    const int hi = std::min(packets, lo + chunk);
    tasks.push_back([&clink, &slot = slots[t], lo, hi, payload, mode] {
      return rt::runtime::record_batch([&] {
        rt::sim::PacketWorkspace ws;
        for (int p = lo; p < hi; ++p)
          slot.add(clink.run_packet(static_cast<std::uint64_t>(p), payload, ws, mode));
      });
    });
  }
  report.add_obs(rt::runtime::run_deterministic_batches(std::move(tasks), threads));
  CodedLinkStats total;
  for (const CodedLinkStats& s : slots) total.merge(s);
  return total;
}

/// Post-decode info BER with the same floor/empty conventions as the raw
/// benches print.
std::string info_ber_str(const CodedLinkStats& s) {
  return rt::bench::ber_str_counts(s.info_bit_errors, s.info_bits);
}

/// SNR at which a measured (snr, ber) curve crosses `target` (log-linear
/// interpolation over the first crossing, curves assumed to improve with
/// SNR). nullopt when the curve never crosses.
std::optional<double> snr_at_ber(const std::vector<std::pair<double, double>>& pts,
                                 double target) {
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const auto [s0, b0] = pts[i - 1];
    const auto [s1, b1] = pts[i];
    if (b0 < target || b1 > target || b0 == b1) continue;
    const double l0 = std::log10(std::max(b0, 1e-12));
    const double l1 = std::log10(std::max(b1, 1e-12));
    const double lt = std::log10(target);
    return s0 + (s1 - s0) * (l0 - lt) / (l0 - l1);
  }
  return std::nullopt;
}

}  // namespace

int main() {
  rt::bench::print_header(
      "Fig. 18b -- soft-vs-hard decision coding gain (measured, end to end)",
      "section 7.2.2, Fig. 18b + Tab. 4 mobility",
      "soft decoding beats hard at low SNR; RS erasures never hurt; coded "
      "options dominate raw goodput, lightening as SNR improves");
  rt::bench::BenchReport report("fig18b_coding_gain");

  const int packets = rt::bench::packets_per_point();
  const std::size_t payload = rt::bench::payload_bytes();
  const unsigned threads = rt::bench::bench_threads();

  const auto params = rt::phy::PhyParams::rate_16kbps();
  const auto tag = rt::bench::realistic_tag(params);
  const auto offline = rt::sim::train_offline_model(params, tag);

  rt::coding::CodedFrameConfig cc_cfg;
  cc_cfg.code = rt::coding::CodeDescriptor::convolutional(7);
  // RS(63,47) matches the CC frame's airtime class at this payload (one
  // block, 16 parity bytes), so the two codes compare at similar overhead.
  rt::coding::CodedFrameConfig rs_cfg;
  rs_cfg.code = rt::coding::CodeDescriptor::reed_solomon(63, 47);

  // Part 1: post-decode BER vs SNR around the 16 Kbps threshold (Tab. 3:
  // 1% raw BER at 33 dB). Every row decodes the same waveforms four ways.
  const std::vector<double> snrs = {29.0, 31.0, 32.0, 33.0, 35.0, 37.0};
  struct Row {
    double snr = 0.0;
    CodedLinkStats cc_soft, cc_hard, rs_soft, rs_hard;
  };
  std::vector<Row> rows;
  std::printf("\n%-7s %-10s | %-10s %-10s | %-10s %-10s %-9s\n", "SNR", "raw BER", "CC hard",
              "CC soft", "RS hard", "RS soft", "erasures");
  CodedLinkStats mid_soft_parallel;  // determinism reference, filled at 33 dB
  const rt::sim::LinkSimulator* mid_link = nullptr;
  std::vector<std::unique_ptr<rt::sim::LinkSimulator>> links;  // outlive the CodedLinks
  for (std::size_t i = 0; i < snrs.size(); ++i) {
    rt::sim::ChannelConfig ch;
    ch.snr_override_db = snrs[i];
    ch.noise_seed = 500 + i;
    rt::sim::SimOptions sopts;
    sopts.shared_offline_model = offline;
    sopts.export_soft_bits = true;
    links.push_back(std::make_unique<rt::sim::LinkSimulator>(params, tag, ch, sopts));
    const auto& link = *links.back();
    const CodedLink cc(link, cc_cfg);
    const CodedLink rs(link, rs_cfg);

    Row row;
    row.snr = snrs[i];
    row.cc_soft = run_parallel(cc, packets, payload, CodedLink::DecodeMode::kSoft, threads, report);
    row.cc_hard = run_parallel(cc, packets, payload, CodedLink::DecodeMode::kHard, threads, report);
    row.rs_soft = run_parallel(rs, packets, payload, CodedLink::DecodeMode::kSoft, threads, report);
    row.rs_hard = run_parallel(rs, packets, payload, CodedLink::DecodeMode::kHard, threads, report);
    if (snrs[i] == 33.0) {
      mid_soft_parallel = row.cc_soft;
      mid_link = &link;
    }

    std::printf("%-7.1f %-10s | %-10s %-10s | %-10s %-10s %-9zu\n", row.snr,
                rt::bench::ber_str_counts(row.cc_soft.raw_bit_errors, row.cc_soft.raw_bits).c_str(),
                info_ber_str(row.cc_hard).c_str(), info_ber_str(row.cc_soft).c_str(),
                info_ber_str(row.rs_hard).c_str(), info_ber_str(row.rs_soft).c_str(),
                row.rs_soft.erasures_used);
    report.add_value("raw_ber", row.snr, row.cc_soft.raw_ber());
    report.add_value("cc_hard_ber", row.snr, row.cc_hard.ber());
    report.add_value("cc_soft_ber", row.snr, row.cc_soft.ber());
    report.add_value("rs_hard_ber", row.snr, row.rs_hard.ber());
    report.add_value("rs_soft_ber", row.snr, row.rs_soft.ber());
    report.add_value("cc_soft_fer", row.snr, row.cc_soft.frame_error_rate());
    report.add_value("cc_hard_fer", row.snr, row.cc_hard.frame_error_rate());
    report.add_value("rs_soft_erasures", row.snr, static_cast<double>(row.rs_soft.erasures_used));
    rows.push_back(row);
  }

  int failures = 0;

  // Gate: soft CC never loses to hard CC, and wins strictly where the
  // channel is actually errored (the low-SNR half of the sweep).
  std::size_t low_soft = 0, low_hard = 0;
  for (const auto& row : rows) {
    if (row.cc_soft.info_bit_errors > row.cc_hard.info_bit_errors) {
      std::printf("FAIL: soft CC worse than hard at %.1f dB (%zu > %zu errors)\n", row.snr,
                  row.cc_soft.info_bit_errors, row.cc_hard.info_bit_errors);
      ++failures;
    }
    if (row.snr <= snrs[snrs.size() / 2]) {
      low_soft += row.cc_soft.info_bit_errors;
      low_hard += row.cc_hard.info_bit_errors;
    }
  }
  if (low_soft >= low_hard) {
    std::printf("FAIL: no measurable soft-decision gain at low SNR (soft %zu vs hard %zu)\n",
                low_soft, low_hard);
    ++failures;
  } else {
    std::printf("\nsoft-decision gain at low SNR: %zu -> %zu info errors (%.1fx)\n", low_hard,
                low_soft, static_cast<double>(low_hard) / std::max<std::size_t>(low_soft, 1));
  }
  report.add_scalar("low_snr_soft_errors", static_cast<double>(low_soft));
  report.add_scalar("low_snr_hard_errors", static_cast<double>(low_hard));

  // Gate: GMD erasure retries only ever rescue frames -- errors-only RS
  // must not beat the LLR-guided decoder anywhere.
  for (const auto& row : rows) {
    if (row.rs_soft.crc_failures > row.rs_hard.crc_failures) {
      std::printf("FAIL: RS erasure decoding lost frames at %.1f dB (%d > %d)\n", row.snr,
                  row.rs_soft.crc_failures, row.rs_hard.crc_failures);
      ++failures;
    }
  }
  std::size_t total_erasures = 0;
  for (const auto& row : rows) total_erasures += row.rs_soft.erasures_used;
  report.add_scalar("rs_erasures_used", static_cast<double>(total_erasures));

  // Coding gain at the paper's 1% reliability bar, when both curves cross.
  std::vector<std::pair<double, double>> soft_curve, hard_curve;
  for (const auto& row : rows) {
    soft_curve.emplace_back(row.snr, row.cc_soft.ber());
    hard_curve.emplace_back(row.snr, row.cc_hard.ber());
  }
  const auto soft_1pc = snr_at_ber(soft_curve, 0.01);
  const auto hard_1pc = snr_at_ber(hard_curve, 0.01);
  if (soft_1pc && hard_1pc) {
    std::printf("coding gain at 1%% info BER: %.1f dB (hard %.1f dB -> soft %.1f dB)\n",
                *hard_1pc - *soft_1pc, *hard_1pc, *soft_1pc);
    report.add_scalar("soft_gain_db_at_1pc", *hard_1pc - *soft_1pc);
  }

  // Gate: serial == N-thread (the coded path keeps the purity contract).
  if (mid_link != nullptr) {
    const CodedLink cc(*mid_link, cc_cfg);
    const auto serial = cc.run(packets, payload, CodedLink::DecodeMode::kSoft);
    if (!(serial == mid_soft_parallel)) {
      std::printf("FAIL: coded campaign serial != %u-thread\n", threads);
      ++failures;
    } else {
      std::printf("determinism: serial == %u-thread coded campaign (bit-identical)\n", threads);
    }
  }

  // Part 2: Tab. 4 ambient mobility at a margin-free operating point. Gain
  // ripple from passing humans must not erase the soft-decision advantage.
  std::printf("\n%-34s %-10s %-10s %-10s\n", "mobility case", "CC hard", "CC soft", "raw BER");
  const std::vector<rt::sim::MobilityScenario> cases = {
      rt::sim::MobilityScenario::none(),
      rt::sim::MobilityScenario::work_5cm_off_los(),
      rt::sim::MobilityScenario::three_people_around_los(),
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    rt::sim::ChannelConfig ch;
    ch.snr_override_db = 31.0;
    ch.mobility = cases[i];
    ch.noise_seed = 700 + i;
    rt::sim::SimOptions sopts;
    sopts.shared_offline_model = offline;
    sopts.export_soft_bits = true;
    links.push_back(std::make_unique<rt::sim::LinkSimulator>(params, tag, ch, sopts));
    const CodedLink cc(*links.back(), cc_cfg);
    const auto soft =
        run_parallel(cc, packets, payload, CodedLink::DecodeMode::kSoft, threads, report);
    const auto hard =
        run_parallel(cc, packets, payload, CodedLink::DecodeMode::kHard, threads, report);
    std::printf("%-34s %-10s %-10s %-10s\n", cases[i].name.c_str(), info_ber_str(hard).c_str(),
                info_ber_str(soft).c_str(),
                rt::bench::ber_str_counts(soft.raw_bit_errors, soft.raw_bits).c_str());
    report.add_value("mobility_cc_soft_ber", static_cast<double>(i), soft.ber());
    report.add_value("mobility_cc_hard_ber", static_cast<double>(i), hard.ber());
    if (soft.info_bit_errors > hard.info_bit_errors) {
      std::printf("FAIL: soft lost to hard under mobility case '%s'\n", cases[i].name.c_str());
      ++failures;
    }
  }

  // Part 3: expected goodput per (rate, code) option, driven by the
  // measured curves above -- the database the rate-adaptive MAC profiles.
  rt::mac::GoodputModel model;
  std::vector<std::pair<double, double>> raw_curve, rs_curve;
  for (const auto& row : rows) {
    raw_curve.emplace_back(row.snr, row.cc_soft.raw_ber());
    rs_curve.emplace_back(row.snr, row.rs_soft.ber());
  }
  const std::vector<rt::mac::RateOption> options = {
      {"16kbps", params, 16000.0, 33.0, rt::coding::CodeDescriptor::none()},
      {"16kbps+CC(7,1/2)", params, 16000.0, 28.0, rt::coding::CodeDescriptor::convolutional(7)},
      {"16kbps+RS(63,47)", params, 16000.0, 30.5,
       rt::coding::CodeDescriptor::reed_solomon(63, 47)},
  };
  model.add_measurements(options[0].name, raw_curve);
  model.add_measurements(options[1].name, soft_curve);
  model.add_measurements(options[2].name, rs_curve);

  std::printf("\n%-7s", "SNR");
  for (const auto& o : options) std::printf(" %17s", o.name.c_str());
  std::printf("  best\n");
  std::size_t best_low = 0, best_high = 0;
  for (const auto& row : rows) {
    std::size_t best = 0;
    double best_g = -1.0;
    std::printf("%-7.1f", row.snr);
    for (std::size_t oi = 0; oi < options.size(); ++oi) {
      const double g = model.goodput_bps(options[oi], row.snr, payload);
      std::printf(" %14.0fbps", g);
      if (g > best_g) {
        best_g = g;
        best = oi;
      }
      report.add_value("goodput_" + options[oi].name, row.snr, g);
    }
    const std::string label = options[best].code.label();
    std::printf("  %s [%s]\n", options[best].name.c_str(),
                label.empty() ? "uncoded" : label.c_str());
    report.add_value("goodput_best_option", row.snr, static_cast<double>(best));
    if (best == 0) {
      std::printf("FAIL: raw 16kbps wins measured goodput at %.1f dB (coded should dominate)\n",
                  row.snr);
      ++failures;
    }
    if (row.snr == snrs.front()) best_low = best;
    if (row.snr == snrs.back()) best_high = best;
  }
  if (options[best_high].effective_rate_bps() < options[best_low].effective_rate_bps()) {
    std::printf("FAIL: winning code got heavier as SNR rose (%s at %.1f dB -> %s at %.1f dB)\n",
                options[best_low].name.c_str(), snrs.front(), options[best_high].name.c_str(),
                snrs.back());
    ++failures;
  }

  report.write();
  if (failures > 0) std::printf("\n%d gate(s) FAILED\n", failures);
  return failures == 0 ? 0 : 1;
}
