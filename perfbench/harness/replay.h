// Staged replay of the packet receiver for the traced run.
//
// phy::Demodulator::demodulate_into runs preamble detection and rotation
// correction, online training, the K-branch DFE, and demapping plus
// descrambling as one call. To time each stage from outside src/, the
// replay calls the same public stage functions in the same order, each
// inside its own span. It is the only benchmark code coupled to the stage
// signatures; every replayed frame is also run through demodulate_into
// and the two must agree bit for bit (LLRs included).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/report.h"
#include "phy/demodulator.h"
#include "sim/link_sim.h"

namespace perfbench {

/// Renders packets, replays each through the receiver stage by stage and
/// through demodulate_into, and collects the per-stage times.
class FrameReplayer {
 public:
  /// `options` are the receiver options of the packet path (online
  /// training, no oracle).
  explicit FrameReplayer(const rt::phy::DemodOptions& options) : opts_(options) {}

  /// Renders packet `index` of `sim`, replays it with spans under `tracer`
  /// (frame id `frame`) and checks the replay against demodulate_into into
  /// `r`. Returns the rendered waveform, before correction.
  const rt::sig::IqWaveform& run(const rt::sim::LinkSimulator& sim, std::uint64_t index,
                                 std::size_t payload_bytes, Tracer* tracer, std::int64_t frame,
                                 WorkloadResult& r);

  /// Adds sim.render_ms and the phy.* metrics.
  void add_metrics(WorkloadResult& r, const rt::phy::PhyParams& p, const std::string& note) const;

  /// Per frame, ms: render + demodulate_into, and render + staged replay.
  [[nodiscard]] const std::vector<double>& plain_ms() const { return plain_ms_; }
  [[nodiscard]] const std::vector<double>& traced_ms() const { return traced_ms_; }

 private:
  rt::phy::DemodOptions opts_;
  rt::sim::PacketWorkspace ws_;
  rt::phy::DemodWorkspace staged_ws_;
  rt::phy::DemodResult staged_out_;
  rt::sig::IqWaveform rendered_;
  rt::sig::IqWaveform staged_;
  int slots_ = 0;
  std::size_t found_ = 0;
  std::vector<double> render_ms_, ref_ms_, pre_ms_, train_ms_, dfe_ms_, demap_ms_;
  std::vector<double> plain_ms_, traced_ms_;
};

}  // namespace perfbench
