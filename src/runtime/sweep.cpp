#include "runtime/sweep.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include "common/narrow.h"
#include "runtime/batch.h"
#include "runtime/thread_pool.h"

namespace rt::runtime {

namespace {

// rt-check: determinism-ok (queue-wait telemetry only; spans and metrics never feed results)
using Clock = std::chrono::steady_clock;

}  // namespace

SweepResult parallel_sweep(std::span<const SweepPoint> points, const SweepOptions& options) {
  RT_ENSURE(options.packets >= 1, "sweeps need at least one packet per point");
  RT_ENSURE(options.payload_bytes >= 1, "sweeps need at least one payload byte");
  const auto start = Clock::now();

  SweepResult result;
  result.threads = options.threads == 0 ? hardware_threads() : options.threads;
  if (points.empty()) return result;

  // Wave 1: construct one simulator per point, in parallel. Construction
  // runs the offline training when no shared model is provided, which can
  // dominate a short sweep. Its telemetry is dropped: a sweep's snapshot
  // covers its packets only.
  std::vector<std::unique_ptr<const sim::LinkSimulator>> sims(points.size());
  std::vector<std::function<obs::Snapshot()>> builds;
  builds.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    builds.push_back([&sims, &points, i] {
      return record_batch([&] {
        const SweepPoint& point = points[i];
        sims[i] = std::make_unique<const sim::LinkSimulator>(point.params, point.tag,
                                                             point.channel, point.sim);
      });
    });
  }
  static_cast<void>(run_deterministic_batches(std::move(builds), result.threads));

  // Wave 2: per-point packet batches as flat (point, batch) tasks, each
  // writing its own pre-sized stats slot. No nesting: tasks never wait on
  // other tasks, so the engine cannot deadlock regardless of pool size.
  const int batch = std::max(1, options.batch_packets);
  const auto batches = static_cast<std::size_t>((options.packets + batch - 1) / batch);
  const std::size_t payload = options.payload_bytes;
  std::vector<sim::LinkStats> slots(points.size() * batches);
  std::vector<std::function<obs::Snapshot()>> tasks;
  tasks.reserve(slots.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t b = 0; b < batches; ++b) {
      const int begin = narrow_cast<int>(b) * batch;
      const int end = std::min(begin + batch, options.packets);
      // Submit timestamp for the queue-wait metric.
      const std::int64_t submit_ns = obs::now_ns();
      tasks.push_back([&slot = slots[i * batches + b], &link = *sims[i], begin, end, payload,
                       submit_ns] {
        return record_batch([&] {
          // One packet workspace per worker thread, reused across batches:
          // the packet pipeline stays allocation-free in steady state, and
          // run_packet's outcome is independent of workspace history, so
          // parallel results remain bit-identical to serial.
          static thread_local sim::PacketWorkspace ws;
          RT_TRACE_SPAN("sweep_batch");
          RT_OBS_COUNT(kSweepBatches, 1);
          RT_OBS_OBSERVE(kQueueWaitUs, static_cast<double>(obs::now_ns() - submit_ns) / 1e3);
          for (int p = begin; p < end; ++p)
            slot.add(link.run_packet(static_cast<std::uint64_t>(p), payload, ws));
        });
      });
    }
  }
  result.obs = run_deterministic_batches(std::move(tasks), result.threads);

  // LinkStats::merge is an associative/commutative sum, so the merge
  // order is immaterial.
  result.stats.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    for (std::size_t b = 0; b < batches; ++b) result.stats[i].merge(slots[i * batches + b]);

  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace rt::runtime
