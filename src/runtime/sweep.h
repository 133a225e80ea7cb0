// SweepRunner — deterministic fan-out of independent simulation runs.
//
// Every evaluation figure in the paper is an embarrassingly parallel sweep
// (per-coflow intra CCTs, per-δ points, per-policy replays). SweepRunner
// shards such a sweep over a ThreadPool while keeping the *results*
// bit-identical at any thread count:
//
//  - task i always performs the same work, writes only its own result
//    slot, and sees an Rng seed derived from (base_seed, i) — never from
//    execution order (TaskSeed below);
//  - trace events are buffered per task (each task gets a private
//    MemorySink) and handed back in task order, so exported JSONL /
//    Chrome-trace output is byte-identical to a serial run;
//  - metrics recorded through obs::GlobalMetrics() land in per-thread
//    shards and merge commutatively on collect (obs/metrics.h).
//
// The determinism contract and how to add a new sweep are documented in
// docs/parallelism.md and locked in by tests/runtime_test.cc.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/profiler.h"
#include "obs/trace_sink.h"
#include "runtime/thread_pool.h"

namespace sunflow::runtime {

/// Mixes (base_seed, task_index) into an independent per-task seed with
/// splitmix64 — the same expansion common/rng.h uses internally, so task
/// streams are decorrelated even for adjacent indices.
std::uint64_t TaskSeed(std::uint64_t base_seed, std::uint64_t task_index);

struct SweepConfig {
  /// Worker threads; <= 0 means HardwareConcurrency(), 1 runs inline on
  /// the caller (the serial reference schedule).
  int threads = 1;
  /// Base seed mixed into every TaskContext::seed.
  std::uint64_t base_seed = 0;
};

/// Handed to each task. `sink` is a private per-task buffer when the sweep
/// was started with capture_events = true, else null — emission sites
/// keep their usual null-check contract.
struct TaskContext {
  std::size_t index = 0;
  std::uint64_t seed = 0;       ///< TaskSeed(config.base_seed, index)
  obs::TraceSink* sink = nullptr;
};

/// Results plus per-task event buffers, both in task order.
template <typename Result>
struct Sweep {
  std::vector<Result> results;
  /// One buffer per task when events were captured; empty otherwise.
  std::vector<std::vector<obs::Event>> events;
};

class SweepRunner {
 public:
  explicit SweepRunner(const SweepConfig& config)
      : config_(config), pool_(config.threads) {}

  int threads() const { return pool_.size(); }

  /// Runs fn(TaskContext&) -> Result for n tasks and returns results (and
  /// event buffers, when capture_events) in task order. Exceptions follow
  /// ThreadPool::ParallelFor: the lowest failing index wins.
  template <typename Result, typename Fn>
  Sweep<Result> Run(std::size_t n, bool capture_events, Fn&& fn) {
    Sweep<Result> sweep;
    sweep.results.resize(n);
    std::vector<obs::MemorySink> sinks(capture_events ? n : 0);
    pool_.ParallelFor(0, n, [&](std::size_t i) {
      // One phase entry per dispatched task: total_ns sums the pool's busy
      // time across workers; self_ns nets out profiled work inside the
      // task, leaving the dispatch + result-write overhead.
      SUNFLOW_PROFILE_SCOPE("runtime.task");
      TaskContext ctx;
      ctx.index = i;
      ctx.seed = TaskSeed(config_.base_seed, i);
      ctx.sink = capture_events ? &sinks[i] : nullptr;
      sweep.results[i] = fn(ctx);
    });
    if (capture_events) {
      sweep.events.reserve(n);
      for (obs::MemorySink& s : sinks) {
        sweep.events.push_back(std::move(s).TakeEvents());
      }
    }
    return sweep;
  }

 private:
  SweepConfig config_;
  ThreadPool pool_;
};

}  // namespace sunflow::runtime
