// Microbenchmark: end-to-end packet pipeline throughput (packets/sec).
//
// Times the full TX -> channel -> RX hot path (modulate, synthesize,
// detect/correct, online-train, equalize, unmap) three ways:
//   serial_reuse  one PacketWorkspace reused across packets -- the
//                 steady-state zero-allocation pipeline;
//   serial_fresh  a fresh PacketWorkspace per packet -- the cost of the
//                 allocate-per-call behavior the refactor removed;
//   sweep         the parallel sweep engine at RT_BENCH_THREADS workers
//                 (per-worker thread_local workspaces).
// The bench also cross-checks that reuse and fresh runs produce identical
// outcomes packet by packet (the workspace contract) and exits non-zero on
// any mismatch. Emits BENCH_micro_throughput.json with packets/sec scalars.
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  using namespace rt;
  bench::BenchReport report("micro_throughput");
  bench::print_header("Microbenchmark: packet pipeline throughput",
                      "engineering (no paper figure); pipeline refactor tracking",
                      "workspace reuse >= fresh-workspace throughput, identical outcomes");

  // The default 8 kbps configuration with realistic tag heterogeneity at
  // moderate SNR: every receiver stage (training, DFE, descrambling) runs.
  phy::PhyParams p = phy::PhyParams::rate_8kbps();
  lcm::TagConfig tag = bench::realistic_tag(p);
  sim::ChannelConfig ch;
  ch.snr_override_db = 14.0;
  ch.noise_seed = 7;
  sim::SimOptions so;
  so.seed = 42;
  const sim::LinkSimulator sim(p, tag, ch, so);

  const std::size_t payload = bench::payload_bytes();
  const int packets = std::max(8, bench::packets_per_point());
  const int warmup = 2;

  // Serial, one reused workspace (steady-state pipeline). Its counters and
  // stage spans are the report's serial-path telemetry.
  obs::Recorder serial_rec;
  sim::PacketWorkspace ws;
  sim::LinkStats reuse_stats;
  double reuse_s = 0.0;
  {
    const obs::ScopedBind bind(serial_rec);
    for (int i = 0; i < warmup; ++i)
      (void)sim.run_packet(static_cast<std::uint64_t>(i), payload, ws);
    const auto t_reuse = Clock::now();
    for (int i = 0; i < packets; ++i)
      reuse_stats.add(sim.run_packet(static_cast<std::uint64_t>(i), payload, ws));
    reuse_s = seconds_since(t_reuse);
  }
  report.add_obs(serial_rec.snapshot());

  // Serial, fresh workspace per packet (the old allocate-per-call shape),
  // cross-checked against the reuse run.
  sim::LinkStats fresh_stats;
  const auto t_fresh = Clock::now();
  for (int i = 0; i < packets; ++i) {
    sim::PacketWorkspace fresh;
    fresh_stats.add(sim.run_packet(static_cast<std::uint64_t>(i), payload, fresh));
  }
  const double fresh_s = seconds_since(t_fresh);
  bool identical = fresh_stats == reuse_stats;

  // Parallel sweep engine (thread_local per-worker workspaces).
  runtime::SweepPoint point;
  point.params = p;
  point.tag = tag;
  point.channel = ch;
  point.sim = so;
  runtime::SweepOptions sweep_opts;
  sweep_opts.packets = packets;
  sweep_opts.payload_bytes = payload;
  sweep_opts.threads = bench::bench_threads();
  const auto sweep = runtime::parallel_sweep({&point, 1}, sweep_opts);
  report.add_sweep(sweep);
  identical = identical && sweep.stats[0] == reuse_stats;

  const double pkt_s_reuse = packets / reuse_s;
  const double pkt_s_fresh = packets / fresh_s;
  const double pkt_s_sweep = packets / sweep.wall_s;
  std::printf("serial_reuse : %7.2f packets/sec (%.4f s/packet)\n", pkt_s_reuse,
              reuse_s / packets);
  std::printf("serial_fresh : %7.2f packets/sec (%.4f s/packet)\n", pkt_s_fresh,
              fresh_s / packets);
  std::printf("sweep %2u thr : %7.2f packets/sec (engine wall %.2fs)\n", sweep.threads,
              pkt_s_sweep, sweep.wall_s);
  std::printf("reuse/fresh speedup: %.2fx | outcomes identical: %s\n", pkt_s_reuse / pkt_s_fresh,
              identical ? "yes" : "NO");

  report.add_value("packets_per_s", 0.0, pkt_s_reuse);
  report.add_value("packets_per_s", 1.0, pkt_s_fresh);
  report.add_value("packets_per_s", 2.0, pkt_s_sweep);
  report.add_scalar("packets_per_s_serial_reuse", pkt_s_reuse);
  report.add_scalar("packets_per_s_serial_fresh", pkt_s_fresh);
  report.add_scalar("packets_per_s_sweep", pkt_s_sweep);
  report.add_scalar("s_per_packet_serial_reuse", reuse_s / packets);
  report.add_scalar("reuse_over_fresh_speedup", pkt_s_reuse / pkt_s_fresh);
  report.add_scalar("sweep_threads", static_cast<double>(sweep.threads));
  report.add_scalar("outcomes_identical", identical ? 1.0 : 0.0);
  report.write();

  if (!identical) {
    std::fprintf(stderr, "FAIL: workspace-reuse outcomes diverged from fresh-workspace run\n");
    return 1;
  }
  return 0;
}
