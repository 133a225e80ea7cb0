// Multi-stage job replay (§4.2, third usage scenario).
//
// Multi-stage data-parallel jobs (Dryad/Tez/Hive/Spark DAGs) emit one
// coflow per stage, and a stage's coflow only materializes once its
// upstream stages finish. §4.2 argues the policy should make "later-staged
// Coflows yield to earlier-staged Coflows to avoid the potential creation
// of stragglers". This engine replays such DAGs on the circuit switch: a
// coflow is *released* when all of its dependencies complete (and its
// nominal arrival has passed), and the supplied policy decides priorities
// (MakeStagePolicy implements the earlier-stage-first rule).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/policy.h"
#include "sim/engine/scenario.h"
#include "trace/coflow.h"

namespace sunflow {

/// Dependencies: edges from a coflow to the coflows it must wait for.
class CoflowDag {
 public:
  /// `coflow` cannot start before `dependency` completes.
  void AddDependency(CoflowId coflow, CoflowId dependency);

  const std::map<CoflowId, std::vector<CoflowId>>& deps() const {
    return deps_;
  }

  /// Topological depth: 0 for roots, 1 + max over dependencies otherwise.
  /// Validates acyclicity and that every referenced id is in `trace`;
  /// throws CheckFailure otherwise.
  std::map<CoflowId, int> StageOf(const Trace& trace) const;

 private:
  std::map<CoflowId, std::vector<CoflowId>> deps_;
};

/// Earlier-stage-first policy (§4.2): lower stage number wins; within a
/// stage, shortest-coflow-first.
std::unique_ptr<PriorityPolicy> MakeStagePolicy(
    std::map<CoflowId, int> stage_of);

/// Replays the trace on the circuit scenario with dependency gating: a
/// coflow is released at max(its arrival, completion of all dependencies).
/// CCTs are measured from each coflow's release, not its nominal arrival,
/// so a coflow's release instant is `completion - cct`, and the job
/// completion time is `makespan` minus the first arrival.
engine::EngineResult ReplayDagTrace(const Trace& trace, const CoflowDag& dag,
                                    const PriorityPolicy& policy,
                                    const engine::EngineConfig& config);

}  // namespace sunflow
