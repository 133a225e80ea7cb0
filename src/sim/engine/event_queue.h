// The kernel's event queue: a binary min-heap keyed by
// (time, push sequence number).
//
// The sequence number is the deterministic tie-break: among events at the
// same instant, the queue is FIFO in push order. This replaces the
// sorted-vector rescans and unconsumed-tail std::sort of the per-engine
// loops with one O(log n) structure whose ordering is pinned by
// construction — two runs that push the same events in the same order pop
// them in the same order, regardless of heap internals.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.h"

namespace sunflow::engine {

/// Lifetime push/pop totals, surfaced through `EngineResult` and the
/// `engine.event_pushes` / `engine.event_pops` metrics so the heap-vs-scan
/// win is visible in the perf trajectory (bench/engine_replan).
struct EventQueueStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  /// Largest queue size ever reached — how far admission lags behind
  /// release pressure (bench/engine_replan prints it, the timeline
  /// sampler tracks its trajectory).
  std::uint64_t depth_high_water = 0;
};

template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    Time t = 0;
    std::uint64_t seq = 0;  ///< push order — the deterministic tie-break
    Payload payload{};
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Earliest (time, seq) entry. Undefined when empty.
  Time next_time() const { return heap_.front().t; }
  const Payload& next() const { return heap_.front().payload; }

  void Push(Time t, Payload payload) {
    ++stats_.pushes;
    heap_.push_back(Entry{t, next_seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    stats_.depth_high_water = std::max<std::uint64_t>(
        stats_.depth_high_water, heap_.size());
  }

  Entry Pop() {
    ++stats_.pops;
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return entry;
  }

  /// Batched pop: appends every entry with t <= cutoff to `out` in
  /// (time, seq) order and returns how many were taken. Lets a caller
  /// drain all due events into one reusable per-replan buffer instead of
  /// interleaving Pop calls with processing.
  std::size_t PopDue(Time cutoff, std::vector<Entry>& out) {
    std::size_t taken = 0;
    while (!heap_.empty() && heap_.front().t <= cutoff) {
      out.push_back(Pop());
      ++taken;
    }
    return taken;
  }

  const EventQueueStats& stats() const { return stats_; }

 private:
  // std::push_heap keeps the *greatest* element at the front, so "greater"
  // here means "fires later"; the earliest (time, seq) pair wins the front.
  static bool Later(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  EventQueueStats stats_;
};

}  // namespace sunflow::engine
