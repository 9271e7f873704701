#include "harness/replay.h"

#include <cmath>
#include <cstring>

#include "harness/stats.h"
#include "phy/constellation.h"
#include "phy/equalizer.h"
#include "phy/frame.h"
#include "phy/training.h"
#include "signal/scrambler.h"

namespace perfbench {

namespace {

using rt::phy::DemodResult;

/// Milliseconds spent in each receiver stage of one frame.
struct StageTimes {
  double preamble_ms = 0.0;  ///< detect + correct_in_place
  double train_ms = 0.0;     ///< OnlineTrainer::train_into
  double dfe_ms = 0.0;       ///< DfeEqualizer::equalize_into
  double demap_ms = 0.0;     ///< Constellation::unmap_into + descramble (+ LLR alignment)
  double total_ms = 0.0;     ///< the whole replay, glue included
};

/// demodulate_into(rx, payload_slots, options, ws, out), one stage call
/// at a time, each in a span; `rx` is corrected in place.
StageTimes replay_demodulate(const rt::phy::Demodulator& demod, rt::sig::IqWaveform& rx,
                             int payload_slots, const rt::phy::DemodOptions& options,
                             rt::phy::DemodWorkspace& ws, DemodResult& out, Tracer* tracer,
                             std::int64_t frame) {
  StageTimes t;
  const rt::phy::PhyParams& p = demod.params();
  Tracer::Scope whole(tracer, Layer::kPhy, "demodulate", frame);
  out.preamble_found = false;
  out.bits.clear();
  out.soft_bits.clear();
  out.equalizer_metric = 0.0;

  {
    Tracer::Scope s(tracer, Layer::kPhy, "preamble", frame);
    out.detection = demod.preamble().detect(rx, options.search_limit, ws.preamble);
    out.preamble_found = out.detection.found;
    if (out.preamble_found) demod.preamble().correct_in_place(rx, out.detection);
    t.preamble_ms = s.stop();
  }
  if (!out.preamble_found) {
    t.total_ms = whole.stop();
    return t;
  }

  const auto layout = rt::phy::FrameLayout::for_params(p, payload_slots);
  const std::size_t frame_start = out.detection.start_sample;
  {
    Tracer::Scope s(tracer, Layer::kPhy, "train", frame);
    rt::phy::OnlineTrainer::train_into(p, demod.offline_model(), layout, rx, frame_start,
                                       ws.trained, ws.training);
    t.train_ms = s.stop();
  }
  {
    Tracer::Scope s(tracer, Layer::kPhy, "dfe", frame);
    const rt::phy::DfeEqualizer eq(p, ws.trained);
    if (!ws.histories_valid || !(ws.histories_params == p) || !(ws.histories_layout == layout)) {
      ws.histories = rt::phy::Demodulator::initial_payload_histories(p, layout);
      ws.histories_params = p;
      ws.histories_layout = layout;
      ws.histories_valid = true;
    }
    const std::size_t payload_begin =
        frame_start + static_cast<std::size_t>(layout.payload_begin()) * p.samples_per_slot();
    eq.equalize_into(rx, payload_begin, payload_slots, ws.histories, ws.eq, ws.eq_result,
                     options.soft_output);
    out.equalizer_metric = ws.eq_result.final_metric;
    t.dfe_ms = s.stop();
  }
  {
    Tracer::Scope s(tracer, Layer::kPhy, "demap", frame);
    const rt::phy::Constellation constellation(p.bits_per_axis, p.use_q_channel);
    const rt::sig::Scrambler scrambler;
    out.bits.reserve(static_cast<std::size_t>(payload_slots) *
                     static_cast<std::size_t>(constellation.bits_per_symbol()));
    for (const auto& sym : ws.eq_result.symbols) constellation.unmap_into(sym, out.bits);
    if (options.descramble) scrambler.apply_in_place(out.bits);
    if (options.soft_output) {
      out.soft_bits.assign(ws.eq_result.soft_bits.begin(), ws.eq_result.soft_bits.end());
      if (options.descramble) scrambler.apply_sign_in_place(out.soft_bits);
      for (std::size_t i = 0; i < out.soft_bits.size() && i < out.bits.size(); ++i) {
        const float mag = std::fabs(out.soft_bits[i]);
        out.soft_bits[i] = out.bits[i] != 0 ? -mag : mag;
      }
    }
    t.demap_ms = s.stop();
  }
  t.total_ms = whole.stop();
  return t;
}

bool same_result(const DemodResult& a, const DemodResult& b) {
  const auto same_bytes = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
  };
  return a.preamble_found == b.preamble_found && same_bytes(a.bits, b.bits) &&
         same_bytes(a.soft_bits, b.soft_bits) &&
         std::memcmp(&a.equalizer_metric, &b.equalizer_metric, sizeof(double)) == 0;
}

}  // namespace

const rt::sig::IqWaveform& FrameReplayer::run(const rt::sim::LinkSimulator& sim,
                                              std::uint64_t index, std::size_t payload_bytes,
                                              Tracer* tracer, std::int64_t frame,
                                              WorkloadResult& r) {
  Tracer::Scope render(tracer, Layer::kSim, "render_packet_rx", frame);
  const auto rp = sim.render_packet_rx(index, payload_bytes, ws_);
  render_ms_.push_back(render.stop());
  slots_ = rp.payload_slots;
  rendered_ = ws_.rx;
  staged_ = ws_.rx;
  const StageTimes t = replay_demodulate(sim.demodulator(), staged_, slots_, opts_, staged_ws_,
                                         staged_out_, tracer, frame);
  pre_ms_.push_back(t.preamble_ms);
  if (staged_out_.preamble_found) {
    ++found_;
    train_ms_.push_back(t.train_ms);
    dfe_ms_.push_back(t.dfe_ms);
    demap_ms_.push_back(t.demap_ms);
  }
  // The reference call is outside every span.
  const auto a = Clock::now();
  sim.demodulator().demodulate_into(ws_.rx, slots_, opts_, ws_.demod, ws_.result);
  ref_ms_.push_back(ms_between(a, Clock::now()));
  plain_ms_.push_back(render_ms_.back() + ref_ms_.back());
  traced_ms_.push_back(render_ms_.back() + t.total_ms);
  r.check(same_result(staged_out_, ws_.result),
          "frame " + std::to_string(frame) + ": staged replay != demodulate_into");
  return rendered_;
}

void FrameReplayer::add_metrics(WorkloadResult& r, const rt::phy::PhyParams& p,
                                const std::string& note) const {
  const std::size_t n = render_ms_.size();
  r.layer("sim.render_ms", median(render_ms_), n, note);
  r.layer("phy.demod_ms", median(ref_ms_), n, "demodulate_into, " + note);
  r.layer("phy.preamble_ms", median(pre_ms_), n);
  r.layer("phy.train_ms", median(train_ms_), train_ms_.size());
  r.layer("phy.dfe_ms", median(dfe_ms_), dfe_ms_.size());
  r.layer("phy.demap_ms", median(demap_ms_), demap_ms_.size());
  r.layer("phy.dfe_candidates_per_frame",
          static_cast<double>(p.equalizer_branches) * p.pqam_order() * slots_, 1,
          "K x P x payload slots");
  r.layer("phy.preamble_found_ratio", static_cast<double>(found_) / static_cast<double>(n), n);
}

}  // namespace perfbench
