#include "sim/dag_replay.h"

#include <algorithm>
#include <functional>

#include "common/assert.h"
#include "sim/engine/driver.h"

namespace sunflow {

void CoflowDag::AddDependency(CoflowId coflow, CoflowId dependency) {
  SUNFLOW_CHECK_MSG(coflow != dependency, "self-dependency");
  deps_[coflow].push_back(dependency);
}

std::map<CoflowId, int> CoflowDag::StageOf(const Trace& trace) const {
  std::map<CoflowId, const Coflow*> by_id;
  for (const Coflow& c : trace.coflows) by_id[c.id()] = &c;
  for (const auto& [id, dependencies] : deps_) {
    SUNFLOW_CHECK_MSG(by_id.count(id), "DAG references unknown coflow " << id);
    for (CoflowId d : dependencies)
      SUNFLOW_CHECK_MSG(by_id.count(d),
                        "DAG references unknown dependency " << d);
  }

  std::map<CoflowId, int> stage;
  // DFS with cycle detection (0 = unvisited, 1 = on stack, 2 = done).
  std::map<CoflowId, int> state;
  std::function<int(CoflowId)> depth = [&](CoflowId id) -> int {
    auto it = stage.find(id);
    if (it != stage.end()) return it->second;
    SUNFLOW_CHECK_MSG(state[id] != 1, "DAG has a cycle through coflow " << id);
    state[id] = 1;
    int d = 0;
    auto dep_it = deps_.find(id);
    if (dep_it != deps_.end()) {
      for (CoflowId dep : dep_it->second) d = std::max(d, 1 + depth(dep));
    }
    state[id] = 2;
    stage[id] = d;
    return d;
  };
  for (const Coflow& c : trace.coflows) depth(c.id());
  return stage;
}

namespace {

class StagePolicy : public PriorityPolicy {
 public:
  explicit StagePolicy(std::map<CoflowId, int> stage_of)
      : stage_of_(std::move(stage_of)) {}

  std::string name() const override { return "earlier-stage-first"; }

  std::vector<std::size_t> Order(
      const std::vector<CoflowView>& views) const override {
    std::vector<std::size_t> order(views.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       const int sa = StageOfId(views[a].id);
                       const int sb = StageOfId(views[b].id);
                       if (sa != sb) return sa < sb;
                       if (views[a].remaining_tpl != views[b].remaining_tpl)
                         return views[a].remaining_tpl <
                                views[b].remaining_tpl;
                       return views[a].id < views[b].id;
                     });
    return order;
  }

 private:
  int StageOfId(CoflowId id) const {
    auto it = stage_of_.find(id);
    return it == stage_of_.end() ? 0 : it->second;
  }

  std::map<CoflowId, int> stage_of_;
};

}  // namespace

std::unique_ptr<PriorityPolicy> MakeStagePolicy(
    std::map<CoflowId, int> stage_of) {
  return std::make_unique<StagePolicy>(std::move(stage_of));
}

engine::EngineResult ReplayDagTrace(const Trace& trace, const CoflowDag& dag,
                                    const PriorityPolicy& policy,
                                    const engine::EngineConfig& config) {
  trace.Validate();
  dag.StageOf(trace);  // validates ids + acyclicity

  std::map<CoflowId, const Coflow*> by_id;
  for (const Coflow& c : trace.coflows) by_id[c.id()] = &c;

  // Remaining unmet dependencies per gated coflow, and the reverse edges.
  std::map<CoflowId, std::size_t> unmet;
  std::map<CoflowId, std::vector<CoflowId>> dependents;
  for (const auto& [id, dependencies] : dag.deps()) {
    unmet[id] = dependencies.size();
    for (CoflowId d : dependencies) dependents[d].push_back(id);
  }

  // Gated coflows enter the kernel's release queue when their last
  // dependency completes; the rest are seeded up front.
  engine::ReplayDriver driver(trace.num_ports, config.sink, config.timeline);
  std::size_t initial = 0;
  for (const Coflow& c : trace.coflows) {
    if (unmet.find(c.id()) == unmet.end()) {
      driver.state().PushRelease(c.arrival(), &c);
      ++initial;
    }
  }
  SUNFLOW_CHECK_MSG(initial > 0 || trace.coflows.empty(),
                    "every coflow is dependency-gated — nothing can start");

  auto hook = [&](engine::SimState& state, CoflowId done, Time now) {
    auto it = dependents.find(done);
    if (it == dependents.end()) return;
    for (CoflowId dependent : it->second) {
      auto um = unmet.find(dependent);
      SUNFLOW_CHECK(um != unmet.end() && um->second > 0);
      if (--um->second == 0) {
        const Coflow* c = by_id.at(dependent);
        state.PushRelease(std::max(now, c->arrival()), c);
      }
    }
  };

  auto scenario =
      engine::MakeCircuitScenario(trace.num_ports, policy, config, hook);
  engine::EngineResult result = driver.Run(*scenario);
  SUNFLOW_CHECK_MSG(result.cct.size() == trace.coflows.size(),
                    "DAG replay finished with unreleased coflows");
  return result;
}

}  // namespace sunflow
