// Deterministic batch fan-out: the sweep engine's merge discipline as a
// reusable primitive.
//
// parallel_sweep (runtime/sweep.cpp) established the pattern every
// campaign in this codebase follows: tasks built on disjoint
// rt::split_seed slots write their data into pre-sized shared state (so
// results are bit-identical at any thread count), and each task's
// observability snapshot is merged in *submission* order (so the merged
// registry and trace are too). This header factors that discipline out
// of the sweep engine so higher layers (mac::run_closed_loop_study's
// descendants, fleet::run_fleet_campaign) can fan work out without
// re-implementing the recorder scoping and merge rules.
#pragma once

#include <functional>
#include <future>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace rt::runtime {

/// One task's observability snapshot. Merging is associative (integer
/// sums + append), so merging snapshots in submission order yields the
/// same registry and trace regardless of which worker ran which task.
struct BatchObs {
  obs::MetricsRegistry metrics;
  std::vector<obs::SpanRecord> spans;

  BatchObs& merge(const BatchObs& o) {
    metrics.merge(o.metrics);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    return *this;
  }
};

/// Runs `work` inside a per-batch recording scope: the calling worker's
/// thread-local recorder is cleared, bound, and snapshotted after `work`
/// returns -- so the snapshot covers exactly this batch, making the
/// merged result independent of which worker ran which batch (the same
/// scoping parallel_sweep applies around each packet batch).
template <typename Work>
[[nodiscard]] BatchObs record_batch(Work&& work) {
  static thread_local obs::Recorder rec;
  rec.clear();
  BatchObs out;
  {
    const obs::ScopedBind bind(rec);
    std::forward<Work>(work)();
  }
  out.metrics = rec.metrics;
  const auto spans = rec.trace.spans();
  out.spans.assign(spans.begin(), spans.end());
  return out;
}

/// Executes every task exactly once and merges their snapshots in
/// submission order. `threads <= 1` runs the tasks inline, in order, on
/// the calling thread -- no pool, no futures -- which is the serial
/// reference the determinism tests compare against. Tasks must follow
/// the sweep contract: all data writes go to disjoint pre-sized slots,
/// all randomness comes from split_seed streams keyed by task indices.
[[nodiscard]] inline BatchObs run_deterministic_batches(
    std::vector<std::function<BatchObs()>> tasks, unsigned threads) {
  BatchObs merged;
  if (threads <= 1) {
    for (auto& task : tasks) merged.merge(task());
    return merged;
  }
  ThreadPool pool(threads);
  std::vector<std::future<BatchObs>> futures;
  futures.reserve(tasks.size());
  for (auto& task : tasks) futures.push_back(pool.submit(std::move(task)));
  for (auto& f : futures) merged.merge(f.get());
  return merged;
}

}  // namespace rt::runtime
