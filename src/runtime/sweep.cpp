#include "runtime/sweep.h"

#include <chrono>
#include <memory>

namespace rt::runtime {

namespace {

// rt-check: determinism-ok (queue-wait telemetry only; spans and metrics never feed results)
using Clock = std::chrono::steady_clock;

}  // namespace

SweepResult parallel_sweep(std::span<const SweepPoint> points, const SweepOptions& options) {
  ThreadPool pool(options.threads == 0 ? sweep_threads() : options.threads);
  return parallel_sweep(points, options, pool);
}

SweepResult parallel_sweep(std::span<const SweepPoint> points, const SweepOptions& options,
                           ThreadPool& pool) {
  RT_ENSURE(options.packets >= 1, "sweeps need at least one packet per point");
  RT_ENSURE(options.payload_bytes >= 1, "sweeps need at least one payload byte");
  const auto start = Clock::now();

  SweepResult result;
  result.threads = pool.size();
  if (points.empty()) return result;

  // Phase 1: construct one simulator per point, in parallel. Construction
  // runs the offline training when no shared model is provided, which can
  // dominate a short sweep.
  std::vector<std::future<std::shared_ptr<sim::LinkSimulator>>> sim_futures;
  sim_futures.reserve(points.size());
  for (const SweepPoint& point : points) {
    sim_futures.push_back(pool.submit([&point] {
      return std::make_shared<sim::LinkSimulator>(point.params, point.tag, point.channel,
                                                  point.sim);
    }));
  }
  std::vector<std::shared_ptr<sim::LinkSimulator>> sims;
  sims.reserve(points.size());
  for (auto& f : sim_futures) sims.push_back(f.get());

  // Phase 2: fan per-point packet batches out as flat (point, batch)
  // tasks. No nesting: tasks never wait on other tasks, so the engine
  // cannot deadlock regardless of pool size.
  const int batch = options.batch_packets < 1 ? 1 : options.batch_packets;
  const std::size_t payload = options.payload_bytes;
  struct BatchOut {
    sim::LinkStats stats;
    obs::MetricsRegistry metrics;
    std::vector<obs::SpanRecord> spans;  // empty unless the worker records spans
  };
  struct Batch {
    std::size_t point;
    std::future<BatchOut> out;
  };
  std::vector<Batch> batches;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (int begin = 0; begin < options.packets; begin += batch) {
      const int end = std::min(begin + batch, options.packets);
      // Submit timestamp for the queue-wait metric.
      const std::int64_t submit_ns = obs::now_ns();
      auto task = [sim = sims[i], begin, end, payload, submit_ns] {
        // One packet workspace per worker thread, reused across batches
        // and sweeps: the packet pipeline stays allocation-free in steady
        // state, and run_packet's outcome is independent of workspace
        // history, so parallel results remain bit-identical to serial.
        static thread_local sim::PacketWorkspace ws;
        BatchOut out;
        {
          // Per-batch recording scope: the recorder is cleared so the
          // snapshot below covers exactly this batch, making the merged
          // result independent of which worker ran which batch.
          ws.obs.clear();
          const obs::ScopedBind obs_bind(ws.obs);
          RT_TRACE_SPAN("sweep_batch");
          RT_OBS_COUNT(kSweepBatches, 1);
          RT_OBS_OBSERVE(kQueueWaitUs, static_cast<double>(obs::now_ns() - submit_ns) / 1e3);
          for (int p = begin; p < end; ++p) {
            const auto outcome = sim->run_packet(static_cast<std::uint64_t>(p), payload, ws);
            ++out.stats.packets;
            if (!outcome.preamble_found) ++out.stats.preamble_failures;
            out.stats.bit_errors += outcome.bit_errors;
            out.stats.total_bits += outcome.bits;
          }
        }  // the sweep_batch span closes here, before the snapshot
        out.metrics = ws.obs.metrics;
        const auto spans = ws.obs.trace.spans();
        out.spans.assign(spans.begin(), spans.end());
        return out;
      };
      batches.push_back({i, pool.submit(std::move(task))});
    }
  }

  // Merge batches. LinkStats::merge and MetricsRegistry::merge are
  // associative/commutative sums, so the merge order is immaterial --
  // collecting in submission order keeps the code obvious (and gives the
  // trace a stable batch order).
  result.stats.resize(points.size());
  for (auto& b : batches) {
    auto out = b.out.get();
    result.stats[b.point].merge(out.stats);
    result.metrics.merge(out.metrics);
    result.trace.insert(result.trace.end(), out.spans.begin(), out.spans.end());
  }

  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace rt::runtime
