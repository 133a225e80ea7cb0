// Shared simulation state for the discrete-event kernel: the pending
// release queue, the active coflow set, and the accumulated results.
//
// `SimCoflow` is the superset of the per-engine bookkeeping structs the
// kernel replaced (circuit ReplayCoflow, guard GuardCoflow, rotor
// RotorCoflow); scenarios use the fields they need and ignore the rest.
#pragma once

#include <algorithm>
#include <cstddef>
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

/// One flow's remaining demand during a replay.
struct SimFlow {
  PortId in = 0;
  PortId out = 0;
  Bytes bytes = 0;
};

/// Remaining demand of one coflow during a replay, in bytes.
struct SimCoflow {
  CoflowId id = -1;
  Time arrival = 0;  ///< release instant (CCT is measured from here)
  Time static_tpl = 0;
  Bytes total = 0;  ///< original demand (for attained-service policies)
  /// Remaining bytes per flow, sorted by (in, out), so every sum over a
  /// coflow's flows runs in one fixed order. A finished flow keeps its
  /// entry at ≤ kBytesEps. Empty when the scenario keeps its flows itself
  /// (ScenarioPolicy::uses_flat_demand).
  std::vector<SimFlow> flows;
  /// Flows with more than kBytesEps left: every drain that finishes a flow
  /// decrements it, and done() reads it.
  std::size_t unfinished = 0;
  /// End of the last window with non-zero service (starvation accounting).
  Time last_service = 0;
  Time max_gap = 0;
  /// Latest exact flow-finish instant seen so far; scenarios that track
  /// per-flow finishes record completions here, and the driver uses it as
  /// the completion instant when set (fluid engines finish mid-span).
  Time last_finish = 0;

  Bytes remaining_bytes() const {
    Bytes sum = 0;
    for (const SimFlow& f : flows) sum += f.bytes;
    return sum;
  }
  bool done() const { return unfinished == 0; }
  /// `unfinished` recounted from `flows` (for debug checks).
  std::size_t CountUnfinished() const {
    std::size_t n = 0;
    for (const SimFlow& f : flows) {
      if (f.bytes > kBytesEps) ++n;
    }
    return n;
  }
  /// The flow (in, out), or null when the coflow has none.
  SimFlow* FindFlow(PortId in, PortId out) {
    const auto it = std::lower_bound(
        flows.begin(), flows.end(), std::pair{in, out},
        [](const SimFlow& f, const std::pair<PortId, PortId>& p) {
          return std::pair{f.in, f.out} < p;
        });
    return it != flows.end() && it->in == in && it->out == out ? &*it
                                                               : nullptr;
  }
  /// Busiest-port time of the unfinished demand at `bandwidth`. Flows are
  /// sorted by input, so each input's load is one run of the vector; both
  /// sides add their flows in (in, out) order.
  Time RemainingTpl(Bandwidth bandwidth) const {
    PortId out_ports = 0;
    for (const SimFlow& f : flows) out_ports = std::max(out_ports, f.out + 1);
    std::vector<Bytes> out_load(static_cast<std::size_t>(out_ports), 0);
    Bytes busiest = 0;
    for (std::size_t i = 0; i < flows.size();) {
      const PortId in = flows[i].in;
      Bytes in_load = 0;
      for (; i < flows.size() && flows[i].in == in; ++i) {
        if (flows[i].bytes <= kBytesEps) continue;
        in_load += flows[i].bytes;
        out_load[static_cast<std::size_t>(flows[i].out)] += flows[i].bytes;
      }
      busiest = std::max(busiest, in_load);
    }
    for (Bytes v : out_load) busiest = std::max(busiest, v);
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
