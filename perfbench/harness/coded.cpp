// coded_16k_sweep: 16 kbps frames (L=8, 256-PQAM, V=3) coded with
// CC(7,1/2) and decoded soft through sim::CodedLink, at four SNR points
// from 36 to 37.5 dB. nproc runtime::ThreadPool workers are kept busy
// cycling through a fixed number of packet sets; the first set then runs
// alternately on the pool and on one thread, which gives the scaling
// efficiency and the serial == parallel check.
#include <atomic>
#include <deque>
#include <cstring>
#include <future>
#include <memory>

#include "harness/replay.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "runtime/thread_pool.h"
#include "sim/coded_link.h"

namespace perfbench {

namespace {

using rt::sim::CodedLink;
using rt::sim::CodedPacketOutcome;

// The raw channel BER stays around 0.2-0.5% across these points, so the
// decoder corrects real errors; at 33-35.5 dB occasional CRC failures made
// frame_error_rate swing with the seed.
constexpr double kSnrsDb[] = {36.0, 36.5, 37.0, 37.5};
constexpr std::size_t kPoints = std::size(kSnrsDb);
constexpr std::size_t kCodedPayloadBytes = 32;
/// Distinct packet sets (one set = nproc packets per SNR point). The
/// 7 x 16 = 112 packets (at 4 threads) set the quality metrics and give
/// the 100+ latency samples that make the tail p90.
constexpr std::uint64_t kSets = 7;
/// The workers cycle through the sets at least this often; a packet's
/// latency is its fastest run, which filters out the seconds-long
/// slowdowns a shared host imposes.
constexpr std::uint64_t kMinCycles = 3;
/// Traced run: uncoded 16 kbps frames replayed stage by stage.
constexpr int kReplayFrames = 4;
/// Share of the run spent keeping the nproc workers busy; the rest
/// measures the scaling.
constexpr double kParallelShare = 0.6;
/// Pool / one-thread alternations of set 0 for the scaling efficiency.
constexpr int kScalingReps = 2;

struct Point {
  std::unique_ptr<rt::sim::LinkSimulator> sim;
  std::unique_ptr<CodedLink> link;
};

struct Task {
  std::size_t point = 0;
  std::uint64_t index = 0;
};

struct PacketRecord {
  CodedPacketOutcome out;
  double queue_ms = 0.0;
  double task_ms = 0.0;
  double air_s = 0.0;
  double encode_ms = 0.0;  // traced tasks only
  double link_ms = 0.0;
  double decode_ms = 0.0;
  Clock::time_point end;
  Tracer spans;
  std::uint32_t worker = 0;
};

struct Round {
  std::vector<PacketRecord> packets;
  double wall_s = 0.0;
};

bool same_outcome(const CodedPacketOutcome& a, const CodedPacketOutcome& b) {
  return a.preamble_found == b.preamble_found && a.decode_ok == b.decode_ok &&
         a.crc_ok == b.crc_ok && a.info_bits == b.info_bits &&
         a.info_bit_errors == b.info_bit_errors && a.raw_bits == b.raw_bits &&
         a.raw_bit_errors == b.raw_bit_errors && a.erasures_used == b.erasures_used &&
         std::memcmp(&a.snr_estimate_db, &b.snr_estimate_db, sizeof(double)) == 0;
}

/// Small stable id of the calling thread, for the trace.
std::uint32_t worker_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next++;
  return id;
}

/// CodedLink::run_packet as its three public calls, each in a span:
/// encode_into, LinkSimulator::run_packet_bits, decode_soft_into.
CodedPacketOutcome run_traced(const CodedLink& link, std::uint64_t idx, rt::sim::PacketWorkspace& ws,
                              PacketRecord& rec) {
  const auto& codec = link.codec();
  const std::size_t info_n = kCodedPayloadBytes * 8;
  const auto frame = static_cast<std::int64_t>(idx);
  rt::Rng info_rng(rt::split_seed(link.link().options().seed, idx, 0));
  ws.info_bits.resize(info_n);
  info_rng.fill_bits(ws.info_bits);
  {
    Tracer::Scope s(&rec.spans, Layer::kCoding, "encode_into", frame);
    codec.encode_into(ws.info_bits, ws.coded, ws.coded_tx_bits);
    rec.encode_ms = s.stop();
  }
  Tracer::Scope s_link(&rec.spans, Layer::kSim, "run_packet_bits", frame);
  const auto raw = link.link().run_packet_bits(idx, ws.coded_tx_bits, ws);
  rec.link_ms = s_link.stop();
  CodedPacketOutcome out;
  out.preamble_found = raw.preamble_found;
  out.info_bits = info_n;
  out.raw_bits = raw.bits;
  out.raw_bit_errors = raw.bit_errors;
  out.snr_estimate_db = raw.snr_estimate_db;
  if (!raw.preamble_found) {
    out.info_bit_errors = info_n;
    return out;
  }
  Tracer::Scope s_dec(&rec.spans, Layer::kCoding, "decode_soft_into", frame);
  const auto res = codec.decode_soft_into(raw.soft_bits, info_n, ws.coded);
  rec.decode_ms = s_dec.stop();
  out.decode_ok = res.decode_ok;
  out.crc_ok = res.crc_ok;
  out.erasures_used = res.erasures_used;
  for (std::size_t i = 0; i < info_n; ++i)
    out.info_bit_errors += (res.payload[i] != ws.info_bits[i]) ? 1 : 0;
  return out;
}

PacketRecord run_task(const std::vector<Point>& points, const Task& t,
                      Clock::time_point submitted, bool traced) {
  // One workspace per (worker, point), so a worker never rebuilds the
  // channel realization when it alternates between SNR points.
  thread_local std::vector<rt::sim::PacketWorkspace> workspaces;
  if (workspaces.size() < points.size()) workspaces.resize(points.size());
  auto& ws = workspaces[t.point];
  PacketRecord rec;
  rec.worker = worker_id();
  const auto start = Clock::now();
  rec.queue_ms = ms_between(submitted, start);
  const CodedLink& link = *points[t.point].link;
  if (traced) {
    Tracer::Scope s(&rec.spans, Layer::kRuntime, "task", static_cast<std::int64_t>(t.index));
    rec.out = run_traced(link, t.index, ws, rec);
  } else {
    rec.out = link.run_packet(t.index, kCodedPayloadBytes, ws);
  }
  rec.end = Clock::now();
  rec.task_ms = ms_between(start, rec.end);
  rec.air_s = static_cast<double>(ws.rx.size()) / points[t.point].sim->params().sample_rate_hz;
  return rec;
}

/// Runs every task once: on `pool` when given, else inline in order.
Round run_round(const std::vector<Point>& points, const std::vector<Task>& tasks,
                rt::runtime::ThreadPool* pool, bool traced) {
  Round r;
  const auto t0 = Clock::now();
  if (pool == nullptr) {
    for (const Task& t : tasks) r.packets.push_back(run_task(points, t, Clock::now(), traced));
  } else {
    std::vector<std::future<PacketRecord>> futures;
    futures.reserve(tasks.size());
    for (const Task& t : tasks)
      futures.push_back(pool->submit([&points, t, t0, traced] {
        return run_task(points, t, t0, traced);
      }));
    for (auto& f : futures) r.packets.push_back(f.get());
  }
  r.wall_s = seconds_since(t0);
  return r;
}

/// Task `k` of the packet-set cycle: set (k / set size) mod kSets, packet
/// index set * per_point + j / kPoints at SNR point j mod kPoints.
Task cycle_task(std::uint64_t k, std::uint64_t per_point) {
  const std::uint64_t set_size = per_point * kPoints;
  const std::uint64_t set = (k / set_size) % kSets;
  const std::uint64_t j = k % set_size;
  return {static_cast<std::size_t>(j % kPoints), set * per_point + j / kPoints};
}

std::vector<Task> set_tasks(std::uint64_t set, std::uint64_t per_point) {
  std::vector<Task> tasks;
  const std::uint64_t set_size = per_point * kPoints;
  for (std::uint64_t j = 0; j < set_size; ++j) tasks.push_back(cycle_task(set * set_size + j, per_point));
  return tasks;
}

/// Keeps every worker busy: tasks of the set cycle are submitted with a
/// backlog of one per worker until at least `min_tasks` ran and `seconds`
/// passed. Returns the records in task order.
std::vector<PacketRecord> run_saturated(const std::vector<Point>& points,
                                        rt::runtime::ThreadPool& pool, std::uint64_t per_point,
                                        std::uint64_t min_tasks, double seconds,
                                        Clock::time_point& started) {
  std::deque<std::future<PacketRecord>> inflight;
  std::vector<PacketRecord> out;
  std::uint64_t next = 0;
  started = Clock::now();
  const auto submit = [&] {
    const Task t = cycle_task(next++, per_point);
    const auto at = Clock::now();
    inflight.push_back(pool.submit([&points, t, at] { return run_task(points, t, at, false); }));
  };
  for (unsigned i = 0; i < 2 * pool.size(); ++i) submit();
  while (!inflight.empty()) {
    out.push_back(inflight.front().get());
    inflight.pop_front();
    if (next < min_tasks || seconds_since(started) < seconds) submit();
  }
  return out;
}

}  // namespace

WorkloadResult run_coded_16k_sweep(const RunConfig& cfg, Tracer* tracer) {
  WorkloadResult r;
  const double rss0 = rss_mb();
  const auto p = rt::phy::PhyParams::rate_16kbps();
  const auto tag = realistic_tag(p);
  rt::coding::CodedFrameConfig cc;
  cc.code = rt::coding::CodeDescriptor::convolutional(7);

  std::vector<Point> points;
  const auto setups = time_setups(kSetupReps, [&] {
    points.clear();
    const auto offline = rt::sim::train_offline_model(p, tag);
    for (std::size_t j = 0; j < kPoints; ++j) {
      rt::sim::ChannelConfig ch;
      ch.snr_override_db = kSnrsDb[j];
      ch.noise_seed = input_seed(cfg, 100 + j);
      rt::sim::SimOptions so;
      so.seed = input_seed(cfg, 200 + j);
      so.shared_offline_model = offline;
      so.export_soft_bits = true;
      Point pt;
      pt.sim = std::make_unique<rt::sim::LinkSimulator>(p, tag, ch, so);
      pt.link = std::make_unique<CodedLink>(*pt.sim, cc);
      points.push_back(std::move(pt));
    }
  });

  const unsigned threads = rt::runtime::hardware_threads();
  r.threads = threads;
  rt::runtime::ThreadPool pool(threads);
  const std::uint64_t per_point = threads;
  const std::uint64_t set_size = per_point * kPoints;
  // Warm-up: one untimed set fills every worker's workspaces.
  static_cast<void>(run_round(points, set_tasks(0, per_point), &pool, false));

  // nproc workers cycling through the sets, then the serial pass over set 0.
  const double budget = tracer != nullptr ? 0.5 * cfg.seconds : cfg.seconds;
  Clock::time_point started;
  const std::vector<PacketRecord> recs = run_saturated(
      points, pool, per_point, kSets * set_size * kMinCycles, kParallelShare * budget, started);

  // Set 0 alternately on the pool and on one thread; each packet's fastest
  // time in each mode. 1 thread must decode exactly as nproc threads did.
  std::vector<double> pool_ms(set_size, 0.0), one_ms(set_size, 0.0);
  for (int rep = 0; rep < kScalingReps; ++rep) {
    const Round pooled = run_round(points, set_tasks(0, per_point), &pool, false);
    const Round serial = run_round(points, set_tasks(0, per_point), nullptr, false);
    for (std::size_t i = 0; i < set_size; ++i) {
      r.check(same_outcome(serial.packets[i].out, recs[i].out) &&
                  same_outcome(pooled.packets[i].out, recs[i].out),
              "packet " + std::to_string(i) + " of set 0: 1 thread != " +
                  std::to_string(threads) + " threads");
      const double p_ms = pooled.packets[i].task_ms;
      const double s_ms = serial.packets[i].task_ms;
      pool_ms[i] = rep == 0 ? p_ms : std::min(pool_ms[i], p_ms);
      one_ms[i] = rep == 0 ? s_ms : std::min(one_ms[i], s_ms);
    }
  }
  std::vector<double> speed_ratio(set_size);
  for (std::size_t i = 0; i < set_size; ++i) speed_ratio[i] = one_ms[i] / pool_ms[i];

  // Completions in time order give the throughput windows; the first
  // cycle sets the quality metrics; later cycles must repeat it exactly.
  const std::uint64_t cycle = kSets * set_size;
  std::vector<double> task_ms, queue_ms;
  std::vector<double> latency_ms(cycle, 0.0);
  double busy_ms = 0.0;
  rt::sim::CodedLinkStats quality;
  std::uint64_t info_errors = 0;  // in frames whose preamble was found
  std::uint64_t info_bits = 0;
  for (std::size_t k = 0; k < recs.size(); ++k) {
    const PacketRecord& rec = recs[k];
    task_ms.push_back(rec.task_ms);
    queue_ms.push_back(rec.queue_ms);
    busy_ms += rec.task_ms;
    const std::size_t slot = k % cycle;
    if (k < cycle) {
      latency_ms[slot] = rec.task_ms;
      r.check(!rec.out.crc_ok || rec.out.info_bit_errors == 0,
              "CRC passed on a frame with info-bit errors");
      quality.add(rec.out);
      if (rec.out.preamble_found) {
        info_errors += rec.out.info_bit_errors;
        info_bits += rec.out.info_bits;
      }
    } else {
      latency_ms[slot] = std::min(latency_ms[slot], rec.task_ms);
      r.check(same_outcome(rec.out, recs[slot].out),
              "packet " + std::to_string(slot) + " decoded differently on a later cycle");
    }
  }
  std::vector<std::pair<Clock::time_point, double>> done;  // (completion, air time)
  for (const PacketRecord& rec : recs) done.emplace_back(rec.end, rec.air_s);
  std::sort(done.begin(), done.end());
  std::vector<double> gaps;
  std::vector<double> gap_air;
  for (std::size_t k = 0; k < done.size(); ++k) {
    gaps.push_back(ms_between(k == 0 ? started : done[k - 1].first, done[k].first) / 1e3);
    gap_air.push_back(done[k].second);
  }
  const double wall_s = ms_between(started, done.back().first) / 1e3;
  r.attempted = recs.size() + 2 * kScalingReps * set_size;
  const double pkt_per_s = windowed_rate(gaps, {}, set_size);
  const double busy = busy_ms / 1e3 / (threads * wall_s);
  const Tail tail = tail_percentile(latency_ms);
  const auto packets = static_cast<std::uint64_t>(quality.packets);
  r.e2e("setup_s", median(setups), setups.size(), "offline training + 4 LinkSimulators");
  r.e2e("pkt_per_s", pkt_per_s, recs.size(),
        "nproc workers, median over windows of one set of completions");
  r.e2e("decode_ms_p50", median(latency_ms), latency_ms.size(),
        "one coded packet on a worker, fastest cycle per packet");
  r.e2e("decode_ms_tail", tail.value, tail.samples, tail_note(tail));
  r.e2e("realtime_factor", windowed_rate(gaps, gap_air, set_size), recs.size(),
        "air time completed / wall time, all workers");
  // pkt/s at nproc = nproc x busy / (task time on the pool) and pkt/s at
  // 1 thread = 1 / (task time alone), so their ratio over nproc is
  // busy x (time alone / time on the pool), taken per packet at its fastest.
  r.e2e("sweep_scaling_eff", busy * median(speed_ratio), set_size,
        "pkt/s at nproc / (nproc x pkt/s at 1 thread)");
  r.e2e("fleet_slots_per_s", pkt_per_s, recs.size(), "one frame = one uplink slot");
  r.e2e("frame_error_rate", smoothed_rate(quality.crc_failures, packets), packets,
        std::to_string(quality.crc_failures) + " CRC failures");
  r.e2e("ber", smoothed_rate(info_errors, info_bits), info_bits,
        std::to_string(info_errors) + " info-bit errors after decoding, delivered frames");
  r.e2e("peak_rss_mb", peak_rss_mb() - rss0, 1, "VmHWM over the start-up VmRSS");
  if (tracer == nullptr) return r;

  // Traced rounds repeat the untraced rounds' packets, each task split
  // into its encode / run_packet_bits / decode calls.
  std::vector<double> traced_rate, untraced_rate, enc_ms, link_ms, dec_ms;
  std::size_t traced_packets = 0;
  const auto t1 = Clock::now();
  for (std::uint64_t k = 0; k == 0 || (k < kSets && seconds_since(t1) < 0.35 * cfg.seconds);
       ++k) {
    // An untraced and a traced round of the same set, back to back.
    const Round plain = run_round(points, set_tasks(k, per_point), &pool, false);
    untraced_rate.push_back(static_cast<double>(plain.packets.size()) / plain.wall_s);
    Round rd = run_round(points, set_tasks(k, per_point), &pool, true);
    traced_rate.push_back(static_cast<double>(rd.packets.size()) / rd.wall_s);
    for (std::size_t i = 0; i < rd.packets.size(); ++i) {
      PacketRecord& rec = rd.packets[i];
      r.check(same_outcome(rec.out, recs[k * set_size + i].out),
              "traced packet " + std::to_string(i) + " of set " + std::to_string(k) +
                  " != CodedLink::run_packet");
      enc_ms.push_back(rec.encode_ms);
      link_ms.push_back(rec.link_ms);
      if (rec.out.preamble_found) dec_ms.push_back(rec.decode_ms);
      tracer->absorb(rec.spans, rec.worker);
    }
    traced_packets += rd.packets.size();
  }
  r.attempted += traced_packets;
  add_self_metrics(r, *tracer, traced_packets);
  r.layer("coding.encode_ms", median(enc_ms), enc_ms.size());
  r.layer("coding.link_ms", median(link_ms), link_ms.size(), "LinkSimulator::run_packet_bits");
  r.layer("coding.decode_ms", median(dec_ms), dec_ms.size());
  r.layer("coding.raw_ber",
          quality.raw_bits > 0 ? static_cast<double>(quality.raw_bit_errors) / quality.raw_bits : 0.0,
          quality.raw_bits, "channel BER before decoding");
  r.layer("coding.crc_failures", quality.crc_failures, packets);
  r.layer("runtime.busy_ratio", busy, task_ms.size(), "task time / (threads x wall)");
  r.layer("runtime.queue_wait_ms_p50", median(queue_ms), queue_ms.size());
  r.layer("runtime.task_ms_max", *std::max_element(task_ms.begin(), task_ms.end()), task_ms.size());
  r.layer("runtime.tasks", static_cast<double>(task_ms.size()), 1);
  r.layer("setup.link_ctor_s", median(setups), setups.size());
  r.layer("trace.overhead_ratio", median(traced_rate) / median(untraced_rate),
          traced_rate.size(), "traced / untraced rounds, packets per second");

  // Uncoded frames at the same 16 kbps point with soft output on, replayed
  // stage by stage.
  const auto& sim = *points.front().sim;
  rt::phy::DemodOptions dopts;
  dopts.search_limit =
      static_cast<std::size_t>(sim.options().max_pad_slots + 2) * p.samples_per_slot();
  dopts.soft_output = true;
  FrameReplayer replayer(dopts);
  for (int m = 0; m < kReplayFrames; ++m)
    static_cast<void>(replayer.run(sim, static_cast<std::uint64_t>(m), kPayloadBytes, tracer, m, r));
  replayer.add_metrics(r, p, "uncoded 16 kbps, 128 B, soft output");
  return r;
}

}  // namespace perfbench
