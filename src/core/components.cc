#include "core/components.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "common/assert.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace sunflow {

namespace {

// Union-find over a small dense id space.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<PlanRequest> SplitByPortComponents(const PlanRequest& request) {
  if (request.demand.empty()) return {};
  // Map ports to union-find ids: inputs then outputs.
  std::map<PortId, std::size_t> in_id, out_id;
  for (const FlowDemand& f : request.demand) {
    in_id.emplace(f.src, 0);
    out_id.emplace(f.dst, 0);
  }
  std::size_t next = 0;
  for (auto& [port, id] : in_id) id = next++;
  for (auto& [port, id] : out_id) id = next++;

  UnionFind uf(next);
  for (const FlowDemand& f : request.demand)
    uf.Union(in_id[f.src], out_id[f.dst]);

  std::map<std::size_t, PlanRequest> components;
  for (const FlowDemand& f : request.demand) {
    const std::size_t root = uf.Find(in_id[f.src]);
    PlanRequest& part = components[root];
    part.coflow = request.coflow;
    part.start = request.start;
    part.demand.push_back(f);
  }
  std::vector<PlanRequest> out;
  out.reserve(components.size());
  for (auto& [root, part] : components) out.push_back(std::move(part));
  return out;
}

Time ScheduleComponentsParallel(SunflowPlanner& planner,
                                const PlanRequest& request,
                                SunflowSchedule& out,
                                runtime::ThreadPool* pool) {
  const auto parts = SplitByPortComponents(request);
  if (parts.empty()) {
    out.completion_time[request.coflow] = 0;
    return request.start;
  }

  struct ComponentPlan {
    Time finish = 0;
    SunflowSchedule schedule;
    std::vector<CircuitReservation> new_reservations;
  };

  const std::size_t base = planner.prt().reservations().size();
  auto plan_one = [&](const PlanRequest& part) {
    // A copy carries every existing reservation, so this component is
    // constrained exactly as it would be on the shared table; it cannot
    // see (or collide with) sibling components, which share no ports.
    SunflowPlanner worker = planner;
    // Callbacks must not fire from worker threads; the merge below streams
    // the final reservations through the target planner's callback.
    worker.SetReservationCallback(nullptr);
    ComponentPlan result;
    result.finish = worker.ScheduleOne(part, result.schedule);
    const auto& all = worker.prt().reservations();
    result.new_reservations.assign(
        all.begin() + static_cast<std::ptrdiff_t>(base), all.end());
    return result;
  };

  // One task per component on the shared pool (replacing the old bounded
  // std::async fan-out); task i always plans component i, so the plans
  // vector is identical at any pool size. A null/serial pool runs the
  // components in index order on the caller.
  std::vector<ComponentPlan> plans(parts.size());
  if (pool != nullptr && pool->size() > 1 && parts.size() > 1) {
    pool->ParallelFor(0, parts.size(),
                      [&](std::size_t i) { plans[i] = plan_one(parts[i]); });
  } else {
    for (std::size_t i = 0; i < parts.size(); ++i)
      plans[i] = plan_one(parts[i]);
  }

  // Deterministic merge: global start order, ties broken by (component id,
  // creation index). The old start-only sort left tie order to the sort
  // implementation; keying on the component id pins the merged stream so
  // reservations() is byte-identical run to run and pool size to pool
  // size.
  struct Tagged {
    const CircuitReservation* r;
    std::size_t component;
    std::size_t index;
  };
  std::vector<Tagged> tagged;
  for (std::size_t c = 0; c < plans.size(); ++c) {
    for (std::size_t k = 0; k < plans[c].new_reservations.size(); ++k)
      tagged.push_back({&plans[c].new_reservations[k], c, k});
  }
  std::sort(tagged.begin(), tagged.end(), [](const Tagged& a, const Tagged& b) {
    if (a.r->start != b.r->start) return a.r->start < b.r->start;
    if (a.component != b.component) return a.component < b.component;
    return a.index < b.index;
  });
  std::vector<CircuitReservation> merged;
  merged.reserve(tagged.size());
  for (const Tagged& tr : tagged) merged.push_back(*tr.r);
  planner.ImportReservations(merged);

  Time finish = request.start;
  int reservations_made = 0;
  for (const auto& p : plans) {
    finish = std::max(finish, p.finish);
    for (const auto& [key, t] : p.schedule.flow_finish)
      out.flow_finish[key] = t;
    auto it = p.schedule.reservation_count.find(request.coflow);
    if (it != p.schedule.reservation_count.end())
      reservations_made += it->second;
  }
  out.completion_time[request.coflow] = finish - request.start;
  out.reservation_count[request.coflow] += reservations_made;
  return finish;
}

Time SchedulePerComponent(SunflowPlanner& planner, const PlanRequest& request,
                          SunflowSchedule& out) {
  const auto parts = SplitByPortComponents(request);
  Time finish = request.start;
  // Components touch disjoint ports, so they compose on the PRT without
  // interaction; per-component completion_time entries would overwrite
  // each other, so track the true maximum explicitly.
  for (const PlanRequest& part : parts) {
    finish = std::max(finish, planner.ScheduleOne(part, out));
  }
  out.completion_time[request.coflow] = finish - request.start;
  return finish;
}

SunflowSchedule ScheduleRequestsParallel(
    SunflowPlanner& planner, const std::vector<const PlanRequest*>& requests,
    runtime::ThreadPool* pool) {
  static thread_local obs::Counter& parallel_replans =
      obs::GlobalMetrics().GetCounter("plan.parallel_replans");
  static thread_local obs::Counter& parallel_groups =
      obs::GlobalMetrics().GetCounter("plan.parallel_groups");
  static thread_local obs::Counter& serial_fallbacks =
      obs::GlobalMetrics().GetCounter("plan.parallel_fallbacks");

  // The parallel path re-derives ScheduleAll's outputs from per-group
  // planners, which requires: a real pool to win anything, a fresh PRT
  // (group planners each start from the established circuits alone), no
  // mid-plan observers (the merged import would replay the stream out of
  // planning order), and unique coflow ids (the merge is keyed on them).
  bool eligible = pool != nullptr && pool->size() > 1 &&
                  requests.size() >= 2 && planner.trace_sink() == nullptr &&
                  !planner.has_reservation_callback() &&
                  planner.prt().reservations().empty();
  if (eligible) {
    std::set<CoflowId> ids;
    for (const PlanRequest* req : requests) {
      if (!ids.insert(req->coflow).second) {
        eligible = false;
        break;
      }
    }
  }
  if (!eligible) {
    serial_fallbacks.Increment();
    return planner.ScheduleAll(requests);
  }

  // Union-find over the joint port space: input port p -> p, output port
  // p -> num_ports + p. Every request welds its own ports together, so a
  // root identifies a set of requests whose footprints transitively
  // overlap — exactly the coflows that can constrain each other on the
  // PRT. Requests with no demand get singleton groups.
  const PortId num_ports = planner.prt().num_ports();
  UnionFind uf(2 * static_cast<std::size_t>(num_ports));
  const auto in_id = [](PortId p) { return static_cast<std::size_t>(p); };
  const auto out_id = [num_ports](PortId p) {
    return static_cast<std::size_t>(num_ports) + static_cast<std::size_t>(p);
  };
  for (const PlanRequest* req : requests) {
    if (req->demand.empty()) continue;
    const std::size_t anchor = in_id(req->demand.front().src);
    for (const FlowDemand& f : req->demand) {
      uf.Union(anchor, in_id(f.src));
      uf.Union(anchor, out_id(f.dst));
    }
  }

  // Group ids in order of first appearance over the priority-ordered
  // request list, so group g's lowest-priority-index request has the
  // smallest index among groups >= g — the merge below only depends on
  // the per-request order, but stable ids keep logs and tests readable.
  std::vector<std::vector<const PlanRequest*>> groups;
  std::vector<std::size_t> group_of(requests.size());
  std::map<std::size_t, std::size_t> root_to_group;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const PlanRequest* req = requests[i];
    std::size_t g;
    if (req->demand.empty()) {
      g = groups.size();
      groups.emplace_back();
    } else {
      const std::size_t root = uf.Find(in_id(req->demand.front().src));
      auto [it, inserted] = root_to_group.emplace(root, groups.size());
      if (inserted) groups.emplace_back();
      g = it->second;
    }
    group_of[i] = g;
    groups[g].push_back(req);
  }
  if (groups.size() < 2) {
    serial_fallbacks.Increment();
    return planner.ScheduleAll(requests);
  }

  parallel_replans.Increment();
  parallel_groups.Increment(groups.size());

  // Plan each group on its own fresh planner. A group's requests keep
  // their global priority order, and its planner sees the full
  // established-circuit set (extraneous entries are inert: setup zeroing
  // only consults a flow's own port pair). Cross-group isolation is the
  // §6 argument: disjoint ports mean no constraint can cross a group
  // boundary, so each group plans exactly as it would on the shared PRT.
  std::vector<SunflowSchedule> results(groups.size());
  const auto plan_group = [&](std::size_t g) {
    SunflowPlanner worker(num_ports, planner.config());
    if (planner.has_established()) {
      // The full per-plane carry-over set: worker planners must see every
      // plane's established circuits, not just plane 0's.
      worker.SetEstablishedCircuitsByPlane(planner.established_by_plane(),
                                           planner.established_at());
    }
    results[g] = worker.ScheduleAll(groups[g]);
  };
  pool->ParallelFor(0, groups.size(), plan_group);

  // Deterministic merge, replaying the serial creation order: walk the
  // requests in global priority order and splice each one's reservations
  // (contiguous in its group's stream, counted by reservation_count) in
  // turn. The per-port timelines are identical either way — only the
  // insertion-order reservations() vector needs this reconstruction.
  SunflowSchedule out;
  std::vector<std::size_t> cursor(groups.size(), 0);
  std::vector<CircuitReservation> merged;
  for (const SunflowSchedule& r : results) merged.reserve(merged.size() + r.reservations.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t g = group_of[i];
    const SunflowSchedule& sched = results[g];
    const CoflowId coflow = requests[i]->coflow;
    const auto count_it = sched.reservation_count.find(coflow);
    SUNFLOW_CHECK(count_it != sched.reservation_count.end());
    const auto count = static_cast<std::size_t>(count_it->second);
    SUNFLOW_CHECK(cursor[g] + count <= sched.reservations.size());
    for (std::size_t k = 0; k < count; ++k)
      merged.push_back(sched.reservations[cursor[g] + k]);
    cursor[g] += count;

    out.completion_time[coflow] = sched.completion_time.at(coflow);
    out.reservation_count[coflow] = count_it->second;
    for (auto it = sched.flow_finish.lower_bound(
             FlowKey{coflow, std::numeric_limits<PortId>::min(),
                     std::numeric_limits<PortId>::min()});
         it != sched.flow_finish.end() && it->first.coflow == coflow; ++it) {
      out.flow_finish.emplace(it->first, it->second);
    }
  }
  planner.ImportReservations(merged);
  out.reservations = planner.prt().reservations();
  out.parallel_groups = groups.size();
  return out;
}

}  // namespace sunflow
