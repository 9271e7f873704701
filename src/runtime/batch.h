// Deterministic batch fan-out: the one place in src/ that runs work on
// threads, and the one place that binds a recorder.
//
// Every campaign in this codebase (runtime::parallel_sweep,
// mac::run_closed_loop_study, fleet::run_fleet_campaign,
// fleet::run_collision_study) follows one discipline: tasks built on
// disjoint rt::split_seed slots write their data into pre-sized shared
// state (so results are bit-identical at any thread count), and each task
// records inside record_batch, whose snapshots are merged in *submission*
// order (so the merged registry and trace are too). Pipeline stages bind
// nothing: run_packet, CodedLink, StreamingReceiver and every phy stage
// record into whatever recorder their caller bound -- inside a campaign,
// the batch's.
#pragma once

#include <functional>
#include <future>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace rt::runtime {

/// Runs `work` inside a per-batch recording scope: the calling thread's
/// thread-local recorder is cleared, bound, and snapshotted after `work`
/// returns -- so the snapshot covers exactly this batch, making the
/// merged result independent of which worker ran which batch. Serial
/// phases of a campaign record through it too. It keeps one recorder per
/// thread, so it must not nest on one thread.
template <typename Work>
[[nodiscard]] obs::Snapshot record_batch(Work&& work) {
  static thread_local obs::Recorder rec;
  RT_ENSURE(obs::current_recorder() != &rec, "record_batch cannot nest on one thread");
  // A thread that outlives a change of RT_OBS_SPAN_CAPACITY (the caller
  // of an inline run, in a process that runs many tests) rebuilds its
  // recorder, so every batch records the spans a fresh pool worker would.
  if (rec.trace.capacity() != obs::TraceBuffer::default_capacity()) rec = obs::Recorder();
  rec.clear();
  {
    const obs::ScopedBind bind(rec);
    std::forward<Work>(work)();
  }
  return rec.snapshot();
}

/// Executes every task exactly once and merges their snapshots in
/// submission order. `threads <= 1` runs the tasks inline, in order, on
/// the calling thread -- no pool, no futures -- which is the serial
/// reference the determinism tests compare against. Tasks must follow
/// the sweep contract: all data writes go to disjoint pre-sized slots,
/// all randomness comes from split_seed streams keyed by task indices.
[[nodiscard]] inline obs::Snapshot run_deterministic_batches(
    std::vector<std::function<obs::Snapshot()>> tasks, unsigned threads) {
  obs::Snapshot merged;
  if (threads <= 1) {
    for (auto& task : tasks) merged.merge(task());
    return merged;
  }
  ThreadPool pool(threads);
  std::vector<std::future<obs::Snapshot>> futures;
  futures.reserve(tasks.size());
  for (auto& task : tasks) futures.push_back(pool.submit(std::move(task)));
  for (auto& f : futures) merged.merge(f.get());
  return merged;
}

}  // namespace rt::runtime
