// Shared simulation state for the discrete-event kernel: the pending
// release queue, the active coflow set, and the accumulated results.
//
// `SimCoflow` is the superset of the per-engine bookkeeping structs the
// kernel replaced (circuit ReplayCoflow, guard GuardCoflow, rotor
// RotorCoflow); scenarios use the fields they need and ignore the rest.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/engine/event_queue.h"
#include "trace/coflow.h"

namespace sunflow::obs {
class TraceSink;
}  // namespace sunflow::obs

namespace sunflow::engine {

/// Remaining demand of one coflow during a replay, in bytes.
struct SimCoflow {
  CoflowId id = -1;
  Time arrival = 0;  ///< release instant (CCT is measured from here)
  Time static_tpl = 0;
  Bytes total = 0;  ///< original demand (for attained-service policies)
  std::map<std::pair<PortId, PortId>, Bytes> remaining;
  /// End of the last window with non-zero service (starvation accounting).
  Time last_service = 0;
  Time max_gap = 0;
  /// Latest exact flow-finish instant seen so far; scenarios that track
  /// per-flow finishes record completions here, and the driver uses it as
  /// the completion instant when set (fluid engines finish mid-span).
  Time last_finish = 0;

  Bytes remaining_bytes() const {
    Bytes sum = 0;
    for (const auto& [pair, b] : remaining) sum += b;
    return sum;
  }
  bool done() const {
    for (const auto& [pair, b] : remaining)
      if (b > kBytesEps) return false;
    return true;
  }
  Time RemainingTpl(Bandwidth bandwidth) const {
    std::map<PortId, Bytes> in_load, out_load;
    for (const auto& [pair, b] : remaining) {
      if (b <= kBytesEps) continue;
      in_load[pair.first] += b;
      out_load[pair.second] += b;
    }
    Bytes busiest = 0;
    for (const auto& [p, v] : in_load) busiest = std::max(busiest, v);
    for (const auto& [p, v] : out_load) busiest = std::max(busiest, v);
    return busiest / bandwidth;
  }

  void NoteService(Time window_begin, Time window_end) {
    max_gap = std::max(max_gap, window_begin - last_service);
    last_service = window_end;
  }
};

/// Result of one replay, whichever scenario ran it; each scenario fills
/// the fields it models.
struct EngineResult {
  std::map<CoflowId, Time> cct;
  std::map<CoflowId, Time> completion;  ///< absolute completion times
  /// Total reservations issued per coflow across all plans (planning
  /// scenarios only).
  std::map<CoflowId, int> reservations;
  std::map<CoflowId, Time> max_service_gap;
  Time makespan = 0;
  std::size_t replans = 0;
  /// Streaming-replay aggregates: with a completion sink installed the
  /// per-coflow maps above stay empty (O(active) memory) and these carry
  /// the whole-run totals instead. Without a sink, completed mirrors
  /// cct.size() and cct_sum its sum.
  std::uint64_t completed = 0;
  double cct_sum = 0;
  /// Hybrid split accounting (the "hybrid" scenario only).
  std::size_t offloaded = 0;
  std::size_t circuit = 0;
  /// Event-queue traffic for this run (also mirrored into the
  /// `engine.event_pushes` / `engine.event_pops` metrics).
  EventQueueStats queue;
};

/// Pending releases + active set + results. Owned by the ReplayDriver;
/// scenarios mutate the active set and may push further releases
/// (dependency gating).
class SimState {
 public:
  SimState(PortId num_ports, obs::TraceSink* sink)
      : num_ports_(num_ports), sink_(sink) {}

  /// Queues a coflow for admission at `release` (≥ its nominal arrival for
  /// dependency-gated releases). CCT is measured from this instant.
  void PushRelease(Time release, const Coflow* coflow) {
    releases_.Push(release, coflow);
  }
  /// Batched variant for whole-trace seeding: one heapify instead of one
  /// sift per coflow, identical (time, seq) pop order (event_queue.h).
  void PushReleaseBatch(
      const std::vector<std::pair<Time, const Coflow*>>& batch) {
    releases_.PushBatch(batch);
  }
  bool HasPendingReleases() const { return !releases_.empty(); }
  Time NextReleaseTime() const { return releases_.next_time(); }
  EventQueue<const Coflow*>& releases() { return releases_; }

  /// Every coflow ever pushed (admitted or still pending) — the step
  /// budgets scale with this so completion hooks can grow the workload.
  std::size_t total_released() const { return releases_.stats().pushes; }

  std::vector<SimCoflow>& active() { return active_; }
  const std::vector<SimCoflow>& active() const { return active_; }

  PortId num_ports() const { return num_ports_; }
  obs::TraceSink* sink() const { return sink_; }
  EngineResult& result() { return result_; }

 private:
  PortId num_ports_ = 0;
  obs::TraceSink* sink_ = nullptr;
  EventQueue<const Coflow*> releases_;
  std::vector<SimCoflow> active_;
  EngineResult result_;
};

}  // namespace sunflow::engine
