// Sunflow-per-core scheduling for K-core OCS fabrics.
//
// The K-core scheduling literature ("An O(K)-Approximation Algorithm for
// Scheduling Coflows in K-Core OCS Networks", PAPERS.md) keeps each coflow
// on a single core: order the coflows by effective bottleneck size, then
// assign each one wholly to the least-loaded core, and run the single-core
// scheduler (here: Sunflow's Algorithm 1) independently per core. This
// module implements that ordering + assignment step; the "kcore" engine
// scenario (sim/engine/scenarios.cc) runs it as the baseline that fig_kcore
// compares with the joint plane-aware planner ("circuit" on a K-plane
// fabric, core/sunflow.cc).
//
// Header-only, so the engine library uses it without linking sunflow_sched
// (see src/sim/engine/CMakeLists.txt).
#pragma once

#include <algorithm>
#include <vector>

#include "common/assert.h"
#include "common/units.h"
#include "core/fabric.h"
#include "core/sunflow.h"
#include "trace/bounds.h"

namespace sunflow {

/// Result of assigning a batch of plan requests to cores.
struct KCoreAssignment {
  /// Chosen core per request, parallel to the input vector.
  std::vector<PlaneId> plane_of;
  /// Final accumulated load per core, in seconds on that core (bottleneck
  /// processing scaled by the core's rate).
  std::vector<Time> plane_load;
  /// The processing order used (indices into the input vector): ascending
  /// effective bottleneck, ties broken by coflow id then input position.
  std::vector<std::size_t> order;
};

/// Bottleneck processing time of a request at the reference bandwidth: the
/// max over ports of the total demand entering or leaving it (Σ-row /
/// Σ-column of the demand matrix) — the lower bound TcL any single core
/// needs to drain the coflow.
inline Time BottleneckProcessing(const PlanRequest& request) {
  PortId ports = 0;
  for (const FlowDemand& f : request.demand)
    ports = std::max({ports, f.src + 1, f.dst + 1});
  return MaxPortSum(request.demand, ports,
                    [](const FlowDemand& f) { return f.processing; });
}

/// The papers' per-core greedy: shortest-effective-bottleneck-first
/// ordering, each coflow placed on the core whose load after absorbing it
/// is smallest (a coflow drains at the core's own rate, so a faster core
/// keeps winning until it has genuinely absorbed more work).
/// Deterministic: all ties break toward the lower plane id / coflow id.
/// `planes` must be non-empty; rates must be positive.
inline KCoreAssignment AssignCoflowsToCores(
    const std::vector<const PlanRequest*>& requests,
    const std::vector<PlaneSpec>& planes, Bandwidth bandwidth) {
  SUNFLOW_CHECK(!planes.empty());
  SUNFLOW_CHECK(bandwidth > 0);
  const std::size_t k = planes.size();

  KCoreAssignment out;
  out.plane_of.assign(requests.size(), 0);
  out.plane_load.assign(k, 0);

  // Shortest-effective-bottleneck-first: the K-core approximation results
  // all process coflows in a non-decreasing size permutation; ties break
  // by coflow id then input position so the assignment is a pure function
  // of the request list.
  struct Ranked {
    Time bottleneck;
    CoflowId coflow;
    std::size_t index;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ranked.push_back(
        {BottleneckProcessing(*requests[i]), requests[i]->coflow, i});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.bottleneck != b.bottleneck)
                return a.bottleneck < b.bottleneck;
              if (a.coflow != b.coflow) return a.coflow < b.coflow;
              return a.index < b.index;
            });

  out.order.reserve(ranked.size());
  for (const Ranked& r : ranked) {
    out.order.push_back(r.index);
    PlaneId best = 0;
    Time best_load = kTimeInf;
    for (std::size_t p = 0; p < k; ++p) {
      SUNFLOW_CHECK(planes[p].rate > 0);
      const Time load =
          out.plane_load[p] + r.bottleneck * (bandwidth / planes[p].rate);
      if (load < best_load) {
        best_load = load;
        best = static_cast<PlaneId>(p);
      }
    }
    out.plane_of[r.index] = best;
    out.plane_load[static_cast<std::size_t>(best)] = best_load;
  }
  return out;
}

}  // namespace sunflow
