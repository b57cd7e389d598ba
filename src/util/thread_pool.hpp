// A small fixed-size worker pool for deterministic fan-out.
//
// It serves the two fan-outs a measurement pays for (DESIGN.md §7.2):
// AuditDataset::build's per-block pass, the dominant cost of an audit,
// and cnsweep's world generation and bench subprocesses. Tasks write
// into index-addressed slots and every merge happens in index order, so
// the output is byte-identical whatever the thread count or scheduling.
// Work distribution is a shared atomic counter (no work stealing, no
// per-thread queues) — the simplest scheme that load-balances uneven
// task costs.
//
// ThreadPool(1) spawns no workers and runs everything inline on the
// calling thread, which keeps the serial path trivially identical.
//
// Exception safety: parallel_for captures the first exception any fn(i)
// throws (on a worker or the calling thread), keeps draining the
// remaining indices, waits for every helper to finish, and rethrows in
// the caller — so a throwing fn can never unwind the caller while
// helpers still reference its stack frame. Fire-and-forget submit()
// tasks must not throw (nothing can receive the exception).
//
// Observability (DESIGN.md §10): the pool reports
//   util.thread_pool.workers_spawned / tasks_submitted / tasks_inline
//   counters, util.thread_pool.queue_depth (depth after each enqueue)
//   and .task_seconds (per dequeued task) histograms, and
//   .idle_seconds_total — time workers spent blocked waiting for work —
//   as a gauge-like counter in nanoseconds (idle_ns).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cn::util {

/// Maps the user-facing thread knob to a concrete lane count:
/// 0 -> hardware concurrency (at least 1), anything else -> itself.
unsigned resolve_threads(unsigned requested) noexcept;

class ThreadPool {
 public:
  /// @p threads — total execution lanes including the caller's thread
  /// during parallel_for; 0 resolves to hardware concurrency, 1 runs
  /// everything inline (no workers are spawned).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execution lanes available to parallel_for (workers + caller).
  unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Enqueues a fire-and-forget task. Tasks must not throw (there is no
  /// caller left to receive the exception; a throwing submitted task
  /// terminates the process). With no workers (threads() == 1) the task
  /// runs inline. Tasks still queued at destruction time are drained,
  /// never dropped.
  void submit(std::function<void()> task);

  /// Runs fn(i) for every i in [0, n), distributing indices over the
  /// workers plus the calling thread; returns when all n calls finished.
  /// fn must be safe to invoke concurrently on distinct indices. If one
  /// or more fn(i) throw, every index is still visited or abandoned
  /// deterministically (indices claimed after the first failure are
  /// skipped), all helpers quiesce, and the first captured exception is
  /// rethrown here. Not reentrant from inside a pool task.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace cn::util
