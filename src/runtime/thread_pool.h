// Fixed-size worker pool and the ParallelFor primitive behind every
// parallel sweep in this repository.
//
// The pool is deliberately small in scope: Submit() enqueues opaque
// closures, ParallelFor() shards an index range over the workers with an
// atomic claim counter (dynamic load balancing — which *thread* runs task
// i is unspecified, but task i itself is always the same work, so results
// written to slot i are identical at any thread count). A pool of size
// <= 1 executes ParallelFor inline on the caller with zero threading
// overhead, which is also the reference serial schedule for determinism
// tests.
//
// Exception contract: if tasks throw, ParallelFor rethrows exactly one
// exception — the one raised by the *lowest* task index — after all
// workers have quiesced, so failure behaviour is deterministic too.
// Remaining unclaimed tasks are skipped once a failure is recorded.
//
// Nesting: ParallelFor may be called from inside a task already running on
// the same pool. A thread waiting for its helpers to finish steals and
// runs queued pool tasks instead of blocking, so the inner call's helper
// closures always find a thread to run them and nested waits can never
// deadlock — at any depth, some waiter drains the queue.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sunflow::runtime {

/// std::thread::hardware_concurrency with a floor of 1 (the standard
/// allows it to return 0 on exotic platforms).
int HardwareConcurrency();

class ThreadPool {
 public:
  /// threads <= 0 means HardwareConcurrency(). A pool of size 1 spawns no
  /// worker thread at all: everything runs inline on the caller.
  explicit ThreadPool(int threads = 0);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Enqueues a closure for execution on some worker. Fire-and-forget:
  /// exceptions escaping a submitted task terminate the process (use
  /// ParallelFor for checked work). On a size-1 pool the task runs inline.
  void Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [begin, end), sharded over the workers,
  /// and blocks until all of them finished. Rethrows the exception of the
  /// lowest failing index, if any. The caller thread participates in the
  /// work, so a ParallelFor on an otherwise idle pool of size N uses N
  /// threads in total (N - 1 workers + the caller). Safe to call from a
  /// task already running on this pool (see the nesting note above).
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();

  /// Pops and runs one queued task on the calling thread if any is
  /// pending. Used by ParallelFor waiters to keep the pool making
  /// progress instead of blocking (nested-submission deadlock freedom).
  bool TryRunOneQueuedTask();

  int size_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace sunflow::runtime
