#include "stream/streaming_receiver.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "kernels/kernels.h"
#include "phy/frame.h"
#include "signal/correlate.h"

namespace rt::stream {

namespace {

std::size_t frame_samples_for(const phy::PhyParams& p, int payload_slots) {
  RT_ENSURE(payload_slots >= 1, "streaming receiver needs the frame's payload slot count");
  const auto layout = phy::FrameLayout::for_params(p, payload_slots);
  return static_cast<std::size_t>(layout.total_slots()) * p.samples_per_slot();
}

std::size_t clamped_stride(const StreamOptions& o) { return std::max<std::size_t>(1, o.scan_stride); }

}  // namespace

StreamingReceiver::StreamingReceiver(const phy::Demodulator& demod, const StreamOptions& options)
    : demod_(&demod),
      opts_(options),
      spslot_(demod.params().samples_per_slot()),
      ref_len_(demod.preamble().reference().size()),
      peak_span_(ref_len_ + spslot_),
      frame_samples_(frame_samples_for(demod.params(), options.payload_slots)),
      window_len_(kLeadMax + frame_samples_ + demod.params().samples_per_symbol()),
      // The ring must hold the larger of the two waiting states' working
      // sets -- the full decode window, or the peak-resolution span plus
      // one reference -- with the retention slack on top.
      min_capacity_(std::max(peak_span_ + clamped_stride(options) + ref_len_, window_len_) +
                    kLeadMax + 8),
      ring_(options.ring_capacity != 0 ? options.ring_capacity : min_capacity_),
      bank_(kPhaseHypotheses),
      sof_(demod.params(), demod.preamble().reference()) {
  RT_ENSURE(opts_.scan_stride >= 1, "scan stride must be at least 1");
  RT_ENSURE(ring_.capacity() >= min_capacity_,
            "ring capacity below the streaming state machine's working set");
  if (opts_.sof_max_bit_errors < 0) opts_.sof_max_bit_errors = demod.params().preamble_slots / 4;
  // Preallocate every buffer the hot path touches: the scan copy span,
  // the (larger of) peak-resolution span, and the decode window.
  const std::size_t scan_span = (kScanBlock - 1) * opts_.scan_stride + ref_len_;
  const std::size_t sync_span = peak_span_ + opts_.scan_stride + ref_len_;
  scan_buf_.reserve(std::max(scan_span, sync_span));
  scan_re_.reserve(std::max(scan_span, sync_span));
  scan_im_.reserve(std::max(scan_span, sync_span));
  win_.sample_rate_hz = demod.params().sample_rate_hz;
  win_.samples.reserve(window_len_);
  // Split the centred reference once: scan and sync score alignments on
  // re/im planes with kernels::corr_stats_split.
  const auto& cref = demod.preamble().centered_reference();
  cref_re_.resize(cref.ref.size());
  cref_im_.resize(cref.ref.size());
  kernels::split_complex(cref.ref.size(), cref.ref.data(), cref_re_.data(), cref_im_.data());
  cref_energy_ = cref.energy;
}

void StreamingReceiver::push_samples(std::span<const sig::Complex> chunk, FrameSink& sink) {
  const obs::ScopedBind obs_bind(obs_);
  stats_.samples_pushed += chunk.size();
  RT_OBS_COUNT(kStreamSamplesPushed, chunk.size());
  std::size_t off = 0;
  while (off < chunk.size()) {
    if (ring_.free_space() == 0) {
      advance(sink);
      RT_ENSURE(ring_.free_space() > 0,
                "streaming receiver stalled: ring cannot fit the pending state's window");
    }
    const std::size_t n = std::min(chunk.size() - off, ring_.free_space());
    ring_.append(chunk.subspan(off, n));
    off += n;
    advance(sink);
  }
}

void StreamingReceiver::flush(FrameSink& sink) {
  const obs::ScopedBind obs_bind(obs_);
  advance(sink);
  if (state_ == State::kSynced) static_cast<void>(resolve_sync(/*clip=*/true));
  if (state_ == State::kDecoding) {
    const std::size_t need = window_len_ - (kLeadMax - lead_);
    if (win_start_ + need <= ring_.abs_end()) {
      static_cast<void>(step_decoding(sink));
    } else {
      ++stats_.truncated_frames;
      RT_OBS_COUNT(kStreamTruncatedFrames, 1);
      state_ = State::kSearching;
      scan_pos_ = ring_.abs_end();
    }
  }
  retire_history();
}

void StreamingReceiver::advance(FrameSink& sink) {
  bool progress = true;
  while (progress) {
    switch (state_) {
      case State::kSearching: progress = step_searching(); break;
      case State::kSynced: progress = step_synced(); break;
      case State::kDecoding: progress = step_decoding(sink); break;
    }
  }
  retire_history();
}

bool StreamingReceiver::step_searching() {
  const std::uint64_t end = ring_.abs_end();
  if (scan_pos_ + ref_len_ > end) return false;
  RT_TRACE_SPAN("stream_scan");
  const std::size_t stride = opts_.scan_stride;
  const std::uint64_t max_align = end - ref_len_;
  std::size_t m = static_cast<std::size_t>((max_align - scan_pos_) / stride) + 1;
  m = std::min(m, kScanBlock);
  load_span(scan_pos_, (m - 1) * stride + ref_len_);
  for (std::size_t j = 0; j < m; ++j) {
    // The statistic is a pure function of the window samples alone, so
    // the crossing decision at an absolute alignment does not depend on
    // where this scan block happened to start (chunk-size invariance).
    if (bank_.score(correlation_at(j * stride)) >= kScanGate) {
      const std::uint64_t t_c = scan_pos_ + j * stride;
      // The true peak can trail the crossing by up to one reference
      // length (the correlation ramps while the windows overlap) and
      // lead it by at most stride - 1 (the grid may have skipped it).
      sync_lo_ = t_c - std::min<std::uint64_t>(t_c, stride - 1);
      sync_hi_ = t_c + peak_span_;
      scan_pos_ = t_c;
      state_ = State::kSynced;
      return true;
    }
  }
  scan_pos_ += m * stride;
  return true;
}

bool StreamingReceiver::step_synced() {
  if (sync_hi_ + ref_len_ > ring_.abs_end()) return false;  // wait for the full span
  return resolve_sync(/*clip=*/false);
}

bool StreamingReceiver::resolve_sync(bool clip) {
  const std::uint64_t end = ring_.abs_end();
  std::uint64_t hi = sync_hi_;
  if (clip) {
    if (end < sync_lo_ + ref_len_) {  // not even one alignment left
      state_ = State::kSearching;
      scan_pos_ = sync_lo_;
      return false;
    }
    hi = std::min(hi, end - ref_len_);
  }
  RT_TRACE_SPAN("stream_sync");
  const auto n_align = static_cast<std::size_t>(hi - sync_lo_) + 1;
  load_span(sync_lo_, n_align - 1 + ref_len_);
  // Full-resolution magnitude argmax over the span, with the scan's own
  // statistic: the best alignment the packet path's coarse stage could
  // also have chosen.
  std::size_t best = 0;
  double best_mag = -1.0;
  for (std::size_t j = 0; j < n_align; ++j) {
    const double mag = std::abs(correlation_at(j));
    if (mag > best_mag) {
      best_mag = mag;
      best = j;
    }
  }
  t_star_ = sync_lo_ + best;
  // Soft start-of-frame: the per-slot on/off pattern must match the MLS
  // preamble up to the mismatch budget, or the crossing was a false alarm
  // (structured garbage can cross the correlation gate; it cannot also
  // reproduce the slot pattern).
  const std::span<const sig::Complex> buf(scan_buf_);
  const int bad = sof_.mismatches(buf.subspan(best, sof_.window_samples()));
  if (bad > opts_.sof_max_bit_errors) {
    ++stats_.sof_rejects;
    RT_OBS_COUNT(kStreamSofRejects, 1);
    state_ = State::kSearching;
    scan_pos_ = hi + 1;  // resume past the rejected span
    return true;
  }
  lead_ = static_cast<std::size_t>(std::min<std::uint64_t>(kLeadMax, t_star_));
  win_start_ = t_star_ - lead_;
  state_ = State::kDecoding;
  return true;
}

void StreamingReceiver::load_span(std::uint64_t from, std::size_t span) {
  scan_buf_.resize(span);
  ring_.copy_out(from, std::span(scan_buf_.data(), span));
  scan_re_.resize(span);
  scan_im_.resize(span);
  kernels::split_complex(span, scan_buf_.data(), scan_re_.data(), scan_im_.data());
}

sig::Complex StreamingReceiver::correlation_at(std::size_t j) const {
  const kernels::CorrStats st = kernels::corr_stats_split(
      ref_len_, cref_re_.data(), cref_im_.data(), scan_re_.data() + j, scan_im_.data() + j);
  return sig::centered_correlation_from_stats(st, cref_energy_, ref_len_);
}

bool StreamingReceiver::step_decoding(FrameSink& sink) {
  const std::size_t need = window_len_ - (kLeadMax - lead_);
  if (win_start_ + need > ring_.abs_end()) return false;  // wait for the window
  RT_TRACE_SPAN("stream_decode");
  win_.samples.resize(need);
  ring_.copy_out(win_start_, std::span(win_.samples.data(), need));
  // Hand the aligned window to the unmodified packet pipeline. The lead
  // keeps the packet path's +-3 refinement candidates available, and the
  // small search limit pins its coarse search to our resolved peak.
  phy::DemodOptions dopts = opts_.demod;
  dopts.search_limit = lead_ + 4;
  demod_->demodulate_into(win_, opts_.payload_slots, dopts, dws_, result_);
  if (result_.preamble_found) {
    StreamFrame frame;
    frame.start_sample = win_start_ + result_.detection.start_sample;
    frame.bits = std::span<const std::uint8_t>(result_.bits);
    frame.detection = result_.detection;
    frame.snr_estimate_db = result_.detection.snr.snr_db;
    ++stats_.frames_decoded;
    RT_OBS_COUNT(kStreamFramesDecoded, 1);
    sink.on_frame(frame);
    // Resume the scan at the end of the decoded frame (the trailing
    // discharge carries no preamble energy, so scanning it is harmless).
    scan_pos_ = frame.start_sample + frame_samples_;
  } else {
    ++stats_.decode_rejects;
    RT_OBS_COUNT(kStreamDecodeRejects, 1);
    scan_pos_ = t_star_ + sof_.window_samples();  // hop past the bad candidate
  }
  state_ = State::kSearching;
  return true;
}

void StreamingReceiver::retire_history() {
  std::uint64_t keep = 0;
  switch (state_) {
    case State::kSearching: {
      // Keep enough look-back for a crossing at scan_pos_ itself: the
      // sync span reaches back stride - 1, and the decode window another
      // kLeadMax for the refinement candidates.
      const std::uint64_t back = kLeadMax + opts_.scan_stride - 1;
      keep = scan_pos_ - std::min<std::uint64_t>(scan_pos_, back);
      break;
    }
    case State::kSynced:
      keep = sync_lo_ - std::min<std::uint64_t>(sync_lo_, kLeadMax);
      break;
    case State::kDecoding:
      keep = win_start_;
      break;
  }
  ring_.discard_to(std::min(keep, ring_.abs_end()));
}

}  // namespace rt::stream
