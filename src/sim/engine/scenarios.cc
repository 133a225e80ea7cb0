// The built-in scenarios: "circuit" (Sunflow replan-on-events replay),
// "kcore" (the same loop on K switch planes, joint or per-core planning),
// "guarded" (the §4.2 starvation guard's (T + τ) cadence), "rotor" (blind
// Φ rotation) and "hybrid" (circuit + companion packet fabric). Each is a
// direct port of a former standalone engine loop onto the kernel; the
// arithmetic — summation order, dust handling, ε comparisons — is
// preserved expression-for-expression so replays are bit-identical to the
// pre-kernel engines.
#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "obs/profiler.h"
#include "packet/replay.h"
#include "packet/varys.h"
#include "sched/kcore.h"
#include "sim/engine/driver.h"
#include "sim/engine/scenario.h"
#include "trace/bounds.h"

namespace sunflow::engine {

namespace {

// The rates of a config's effective planes, index-aligned with
// CircuitReservation::plane.
std::vector<Bandwidth> PlaneRates(const SunflowConfig& config) {
  std::vector<Bandwidth> rates;
  for (const PlaneSpec& p :
       config.fabric.EffectivePlanes(config.delta, config.bandwidth))
    rates.push_back(p.rate);
  return rates;
}

bool AnyEstablished(const FabricEstablished& established) {
  for (const auto& m : established)
    if (!m.empty()) return true;
  return false;
}

// How executed service is charged against remaining demand. The circuit
// planner guarantees every reservation covers its flow, so the plain
// replay clamps dust with max(0, ·) and lets completions land at span
// ends; the fluid scenarios cap at the remaining bytes and resolve exact
// per-flow finish instants (needed for starvation accounting).
enum class DrainRule { kCircuitDust, kExactFinish };

// Orders reservation pointers by (in, out); heterogeneous overloads let
// equal_range probe with a bare port pair.
struct ByPortPair {
  static std::pair<PortId, PortId> PairOf(const CircuitReservation* r) {
    return {r->in, r->out};
  }
  bool operator()(const CircuitReservation* a,
                  const CircuitReservation* b) const {
    return PairOf(a) < PairOf(b);
  }
  bool operator()(const CircuitReservation* r,
                  const std::pair<PortId, PortId>& p) const {
    return PairOf(r) < p;
  }
  bool operator()(const std::pair<PortId, PortId>& p,
                  const CircuitReservation* r) const {
    return p < PairOf(r);
  }
};

// Executes a plan over [t, t_next): charges each active coflow the circuit
// time its reservations actually got before the span end. Reservation
// groups are walked in plan order, preserving the pre-kernel summation
// order exactly: `scratch` (a caller-owned buffer reused across spans, so
// the old per-span map-of-vectors churn is gone) is stable-sorted by port
// pair, which keeps plan order within each pair.
void ExecutePlanSpan(ReplayDriver& driver, std::vector<SimCoflow>& active,
                     const SunflowSchedule& plan, Time t, Time t_next,
                     const std::vector<Bandwidth>& rates, DrainRule rule,
                     std::vector<const CircuitReservation*>& scratch) {
  scratch.clear();
  scratch.reserve(plan.reservations.size());
  for (const auto& r : plan.reservations) scratch.push_back(&r);
  std::stable_sort(scratch.begin(), scratch.end(), ByPortPair{});

  // Circuit time per plane; a plane's seconds convert to bytes at its own
  // rate. Summed in plane-id order, so the single-plane fabric reduces to
  // the pre-fabric `served * bandwidth` multiply bit-for-bit.
  std::vector<Time> served_by_plane(rates.size(), 0);
  for (auto& sc : active) {
    Bytes served_total = 0;
    for (auto& [pair, bytes] : sc.remaining) {
      if (bytes <= kBytesEps) continue;
      const auto [first, last] =
          std::equal_range(scratch.begin(), scratch.end(), pair, ByPortPair{});
      if (first == last) continue;
      std::fill(served_by_plane.begin(), served_by_plane.end(), 0.0);
      Time flow_finish = 0;
      for (auto rit = first; rit != last; ++rit) {
        const CircuitReservation* r = *rit;
        if (r->coflow != sc.id) continue;
        SUNFLOW_CHECK(static_cast<std::size_t>(r->plane) < rates.size());
        const Time b = std::max(r->transmit_begin(), t);
        const Time e = std::min(r->end, t_next);
        if (e > b) {
          served_by_plane[static_cast<std::size_t>(r->plane)] += e - b;
          flow_finish = std::max(flow_finish, e);
        }
      }
      Bytes served_bytes = 0;
      for (std::size_t p = 0; p < rates.size(); ++p)
        served_bytes += served_by_plane[p] * rates[p];
      if (rule == DrainRule::kCircuitDust) {
        bytes = std::max(0.0, bytes - served_bytes);
      } else {
        const Bytes moved = std::min(bytes, served_bytes);
        bytes -= moved;
        served_total += moved;
        if (bytes <= kBytesEps) {
          bytes = 0;
          sc.last_finish = std::max(sc.last_finish, flow_finish);
          driver.EmitFlowFinished(flow_finish, sc.id, pair.first, pair.second);
        }
      }
    }
    if (rule == DrainRule::kExactFinish && served_total > 0)
      sc.NoteService(t, t_next);
  }
}

// Equal-share fluid drain of the flows on one circuit over [begin, end):
// n live flows each get B/n; when one drains the rest speed up. Updates
// remaining bytes and records exact finish instants.
void DrainEqualShare(std::vector<std::pair<SimCoflow*, Bytes*>>& flows,
                     Time begin, Time end, Bandwidth bandwidth,
                     ReplayDriver& driver, PortId in, PortId out) {
  Time t = begin;
  std::vector<std::pair<SimCoflow*, Bytes*>> live;
  for (auto& f : flows)
    if (*f.second > kBytesEps) live.push_back(f);
  while (!live.empty() && t < end - kTimeEps) {
    const Bandwidth share = bandwidth / static_cast<double>(live.size());
    // Earliest finish among live flows at this share.
    Time first_finish = kTimeInf;
    for (auto& f : live)
      first_finish = std::min(first_finish, t + *f.second / share);
    const Time step_end = std::min(end, first_finish);
    const Bytes moved = share * (step_end - t);
    std::vector<std::pair<SimCoflow*, Bytes*>> next_live;
    for (auto& f : live) {
      *f.second = std::max(0.0, *f.second - moved);
      if (*f.second <= kBytesEps) {
        *f.second = 0;
        f.first->last_finish = std::max(f.first->last_finish, step_end);
        driver.EmitFlowFinished(step_end, f.first->id, in, out);
      } else {
        next_live.push_back(f);
      }
    }
    live = std::move(next_live);
    t = step_end;
  }
}

// One replan's planning step: plans the priority-ordered `requests` at `t`
// on a fresh fabric, seeded with the circuits `established` (per plane;
// null for none) that are already up at t.
using PlanStep = SunflowSchedule (*)(
    const EngineConfig& config, PortId num_ports,
    const std::vector<const PlanRequest*>& requests,
    const FabricEstablished* established, Time t);

// Joint planning: one plane-aware planner assigns every reservation to the
// earliest feasible plane, planning the requests serially in priority order.
SunflowSchedule PlanJoint(const EngineConfig& config, PortId num_ports,
                          const std::vector<const PlanRequest*>& requests,
                          const FabricEstablished* established, Time t) {
  SunflowPlanner planner(num_ports, config.sunflow);
  if (established != nullptr && AnyEstablished(*established)) {
    SUNFLOW_CHECK(static_cast<int>(established->size()) ==
                  planner.num_planes());
    planner.SetEstablishedCircuitsByPlane(*established, t);
  }
  return planner.ScheduleAll(requests);
}

// The per-core baseline from the K-core scheduling literature
// (sched/kcore.h): each coflow is pinned wholly to one core —
// shortest-effective-bottleneck-first onto the least loaded core — and
// every core plans independently on a single-plane planner whose implicit
// plane inherits that core's (δ, rate); the planner's demand scale
// (bandwidth / rate) stretches the canonical processing times exactly as
// the joint planner would. Requests keep their global priority order
// within the core, and reservations are retagged with the owning plane so
// execution, tracing and the plane-exclusivity audit see the true fabric.
SunflowSchedule PlanPerCore(const EngineConfig& config, PortId num_ports,
                            const std::vector<const PlanRequest*>& requests,
                            const FabricEstablished* established, Time t) {
  const std::vector<PlaneSpec> planes = config.sunflow.fabric.EffectivePlanes(
      config.sunflow.delta, config.sunflow.bandwidth);
  const KCoreAssignment assignment =
      AssignCoflowsToCores(requests, planes, config.sunflow.bandwidth);
  SunflowSchedule plan;
  for (std::size_t p = 0; p < planes.size(); ++p) {
    std::vector<const PlanRequest*> core_requests;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (assignment.plane_of[i] == static_cast<PlaneId>(p))
        core_requests.push_back(requests[i]);
    }
    if (core_requests.empty()) continue;
    SunflowConfig core_config = config.sunflow;
    core_config.fabric =
        FabricSpec::Uniform(1, planes[p].delta, planes[p].rate);
    SunflowPlanner planner(num_ports, core_config);
    if (established != nullptr && !(*established)[p].empty())
      planner.SetEstablishedCircuits((*established)[p], t);
    SunflowSchedule core_plan = planner.ScheduleAll(core_requests);
    for (auto& r : core_plan.reservations) r.plane = static_cast<PlaneId>(p);
    plan.reservations.insert(plan.reservations.end(),
                             core_plan.reservations.begin(),
                             core_plan.reservations.end());
    plan.completion_time.merge(core_plan.completion_time);
    plan.reservation_count.merge(core_plan.reservation_count);
    plan.flow_finish.merge(core_plan.flow_finish);
  }
  return plan;
}

// InterCoflow over the active set in policy order: builds views, orders,
// builds this replan's requests from the remaining demand and runs
// `plan_step` under the engine.plan profiler scope, then reports the replan
// through the driver with the scope's wall time in ns (the number
// scheduler.compute_ns and the kAssignmentComputed event carry, measured
// even when profiling is off).
SunflowSchedule PlanActiveSet(ReplayDriver& driver,
                              const PriorityPolicy& policy,
                              const EngineConfig& config, PlanStep plan_step,
                              const FabricEstablished* established, Time t) {
  SimState& s = driver.state();
  auto& active = s.active();
  const Bandwidth bandwidth = config.sunflow.bandwidth;

  std::vector<CoflowView> views;
  views.reserve(active.size());
  for (const auto& sc : active) {
    const Bytes remaining_bytes = sc.remaining_bytes();
    views.push_back({sc.id, sc.arrival, sc.RemainingTpl(bandwidth),
                     sc.static_tpl, remaining_bytes, sc.remaining.size(),
                     std::max(0.0, sc.total - remaining_bytes)});
  }
  const std::vector<std::size_t> order = policy.Order(views);
  SUNFLOW_CHECK(order.size() == active.size());

  std::vector<PlanRequest> owned(order.size());
  std::vector<const PlanRequest*> requests;
  requests.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const SimCoflow& sc = active[order[i]];
    PlanRequest& req = owned[i];
    req.coflow = sc.id;
    req.start = t;
    req.demand.reserve(sc.remaining.size());
    for (const auto& [pair, bytes] : sc.remaining) {
      if (bytes > kBytesEps)
        req.demand.push_back({pair.first, pair.second, bytes / bandwidth});
    }
    requests.push_back(&req);
  }

  SunflowSchedule plan;
  double plan_ns = 0;
  {
    obs::ProfileScope scope("engine.plan", &plan_ns);
    plan = plan_step(config, s.num_ports(), requests, established, t);
  }
  driver.NoteReplan(t, plan, plan_ns, requests.size());
  return plan;
}

// --- "circuit" and "kcore": Sunflow's Varys-like replan on arrivals and
// completions. ----------------------------------------------------------
//
// The one circuit span loop: plan the active set with `plan_step`, execute
// the plan until the next event, carry the circuits still up across the
// replan. "circuit" and joint "kcore" plan with PlanJoint, the per-core
// "kcore" baseline with PlanPerCore.

class CircuitScenario final : public ScenarioPolicy {
 public:
  CircuitScenario(std::string name, PlanStep plan_step,
                  const PriorityPolicy& policy, const EngineConfig& config,
                  CompletionHook hook)
      : name_(std::move(name)),
        plan_step_(plan_step),
        policy_(policy),
        config_(config),
        hook_(std::move(hook)),
        plane_rates_(PlaneRates(config_.sunflow)),
        established_(plane_rates_.size()) {
    SUNFLOW_CHECK(config_.sunflow.bandwidth > 0);
  }

  std::string name() const override { return name_; }

  void OnAdmit(SimCoflow& sc, const Coflow& coflow, Time /*now*/) override {
    sc.static_tpl = PacketLowerBound(coflow, config_.sunflow.bandwidth);
  }

  void OnComplete(SimState& state, const SimCoflow& sc,
                  Time finish) override {
    if (hook_) hook_(state, sc.id, finish);
  }

  void OnIdleGap(SimState& /*state*/, Time /*now*/) override {
    for (auto& m : established_) m.clear();  // circuits idle away
  }

  Time ExecuteSpan(ReplayDriver& driver, Time t) override {
    SimState& s = driver.state();
    auto& active = s.active();

    SunflowSchedule plan = PlanActiveSet(
        driver, policy_, config_, plan_step_,
        config_.carry_over_circuits ? &established_ : nullptr, t);
    last_plan_ = t;

    // Next event: a release or the earliest planned completion. A release
    // only forces a replan once min_replan_interval has elapsed since the
    // previous plan; until then newly released coflows queue while the
    // current plan keeps executing (completions always replan).
    Time t_next = kTimeInf;
    if (s.HasPendingReleases()) {
      t_next = std::max(s.NextReleaseTime(),
                        last_plan_ + config_.min_replan_interval);
    }
    for (const auto& sc : active) {
      auto it = plan.completion_time.find(sc.id);
      SUNFLOW_CHECK(it != plan.completion_time.end());
      t_next = std::min(t_next, t + it->second);
    }
    SUNFLOW_CHECK_MSG(t_next < kTimeInf && t_next > t,
                      name_ << " replay stalled at t=" << t);

    ExecutePlanSpan(driver, active, plan, t, t_next, plane_rates_,
                    DrainRule::kCircuitDust, span_scratch_);
    driver.EmitExecutedPlan(plan, t, t_next);
    driver.EmitBlockedSpans(plan, t, t_next);

    // Circuits up at the replan instant (for carry-over), per plane.
    for (auto& m : established_) m.clear();
    if (config_.carry_over_circuits) {
      for (const auto& r : plan.reservations) {
        if (r.transmit_begin() <= t_next + kTimeEps &&
            t_next < r.end - kTimeEps) {
          established_[static_cast<std::size_t>(r.plane)][r.in] = r.out;
        }
      }
    }
    return t_next;
  }

  std::size_t StepBudget(const SimState& state) const override {
    // Every iteration consumes at least one release or completion; the
    // hook can only add each coflow once.
    return 10 * state.total_released() + 1000;
  }

 private:
  std::string name_;
  PlanStep plan_step_;
  const PriorityPolicy& policy_;
  EngineConfig config_;
  CompletionHook hook_;
  std::vector<Bandwidth> plane_rates_;
  FabricEstablished established_;  // carry-over per plane
  std::vector<const CircuitReservation*> span_scratch_;
  Time last_plan_ = -kTimeInf;
};

// --- "guarded": the (T + τ) starvation-guard cadence of §4.2. -----------

class GuardScenario final : public ScenarioPolicy {
 public:
  GuardScenario(PortId num_ports, const PriorityPolicy& policy,
                const EngineConfig& config)
      : policy_(policy),
        config_(config),
        timeline_(config.guard, num_ports),
        phi_(num_ports),
        plane_rates_(PlaneRates(config.sunflow)) {
    SUNFLOW_CHECK_MSG(config_.guard.small_interval > config_.sunflow.delta,
                      "starvation guard requires tau > delta");
    // The τ spans install one Φ assignment on *the* switch; the guard
    // models the paper's single-switch fabric only.
    SUNFLOW_CHECK_MSG(config_.sunflow.fabric.num_planes() == 1,
                      "the starvation guard models a single-plane fabric");
  }

  std::string name() const override { return "guarded"; }

  void OnAdmit(SimCoflow& sc, const Coflow& coflow, Time /*now*/) override {
    sc.static_tpl = PacketLowerBound(coflow, config_.sunflow.bandwidth);
    sc.last_service = sc.arrival;
  }

  Time ExecuteSpan(ReplayDriver& driver, Time t) override {
    SimState& s = driver.state();
    auto& active = s.active();
    const Bandwidth bandwidth = config_.sunflow.bandwidth;
    const Time span_end = timeline_.NextBoundaryAfter(t);
    const Time t_arrival =
        s.HasPendingReleases() ? s.NextReleaseTime() : kTimeInf;

    if (!timeline_.InTauInterval(t)) {
      // --- T span: priority-scheduled InterCoflow plan, cut at events
      // (no carry-over, no throttle — each span replans from scratch). ---
      SunflowSchedule plan =
          PlanActiveSet(driver, policy_, config_, PlanJoint, nullptr, t);

      Time t_next = std::min(span_end, t_arrival);
      for (const auto& sc : active)
        t_next = std::min(t_next, t + plan.completion_time.at(sc.id));
      SUNFLOW_CHECK(t_next > t);

      ExecutePlanSpan(driver, active, plan, t, t_next, plane_rates_,
                      DrainRule::kExactFinish, span_scratch_);
      driver.EmitExecutedPlan(plan, t, t_next);
      driver.EmitBlockedSpans(plan, t, t_next);
      return t_next;
    }

    // --- τ span: fixed assignment A_k, bandwidth shared per circuit. ---
    const int k = timeline_.AssignmentIndexAt(t);
    const Time span_begin = span_end - config_.guard.small_interval;
    if (!TimeEq(span_begin, last_traced_tau_)) {
      last_traced_tau_ = span_begin;  // dedupes re-entries into one τ span
      driver.NoteStarvationRound(span_begin, config_.guard.small_interval, k);
    }
    // One setup δ at the start of the τ span; if we enter mid-span the
    // circuits are already up.
    const Time transmit_begin = std::max(t, span_begin + config_.sunflow.delta);
    const Time t_next = std::min(span_end, t_arrival);

    if (transmit_begin < t_next - kTimeEps) {
      for (PortId i = 0; i < s.num_ports(); ++i) {
        const PortId j = phi_.OutputOf(k, i);
        std::vector<std::pair<SimCoflow*, Bytes*>> flows;
        for (auto& sc : active) {
          auto it = sc.remaining.find({i, j});
          if (it != sc.remaining.end() && it->second > kBytesEps)
            flows.emplace_back(&sc, &it->second);
        }
        if (flows.empty()) continue;
        DrainEqualShare(flows, transmit_begin, t_next, bandwidth, driver, i,
                        j);
        for (auto& f : flows) f.first->NoteService(transmit_begin, t_next);
      }
    }
    // Flows off the fixed assignment A_k are held by the guard for the
    // whole τ span (no single blaming coflow — the guard owns the fabric).
    if (s.sink() != nullptr && t_next > t + kTimeEps) {
      for (const auto& sc : active) {
        for (const auto& [pair, bytes] : sc.remaining) {
          if (bytes <= kBytesEps) continue;
          if (phi_.OutputOf(k, pair.first) == pair.second) continue;
          driver.EmitBlockedSpan(t, t_next, sc.id, pair.first, pair.second,
                                 obs::BlockReason::kStarvationHold, -1);
        }
      }
    }
    return t_next;
  }

  std::size_t StepBudget(const SimState& state) const override {
    return 1000 * (state.total_released() + 1) + 100000;
  }
  const char* budget_message() const override {
    return "guarded replay explosion";
  }

 private:
  const PriorityPolicy& policy_;
  EngineConfig config_;
  StarvationGuardTimeline timeline_;
  PhiAssignments phi_;
  std::vector<Bandwidth> plane_rates_;
  std::vector<const CircuitReservation*> span_scratch_;
  Time last_traced_tau_ = -kTimeInf;
};

// --- "rotor": demand-oblivious blind Φ rotation. ------------------------

class RotorScenario final : public ScenarioPolicy {
 public:
  RotorScenario(PortId num_ports, const EngineConfig& config)
      : config_(config),
        phi_(num_ports),
        span_(config.sunflow.delta + config.rotor_slot_duration) {
    SUNFLOW_CHECK(config_.rotor_slot_duration > 0);
    SUNFLOW_CHECK(config_.sunflow.delta >= 0);
    SUNFLOW_CHECK_MSG(config_.sunflow.fabric.num_planes() == 1,
                      "blind rotation models a single-plane fabric");
  }

  std::string name() const override { return "rotor"; }

  Time ExecuteSpan(ReplayDriver& driver, Time t) override {
    SimState& s = driver.state();
    auto& active = s.active();

    // The rotation grid is absolute: slot s covers [s·span, (s+1)·span)
    // with light from s·span + δ.
    const auto slot =
        static_cast<long long>(std::floor((t + kTimeEps) / span_));
    const Time slot_begin = static_cast<Time>(slot) * span_;
    const Time window_end = slot_begin + span_;
    const Time transmit_begin = slot_begin + config_.sunflow.delta;
    const Time t_arrival =
        s.HasPendingReleases() ? s.NextReleaseTime() : kTimeInf;
    const Time t_next = std::min(window_end, t_arrival);
    const Time begin = std::max(t, transmit_begin);

    if (begin < t_next - kTimeEps) {
      const int k = static_cast<int>(slot % s.num_ports());
      for (PortId i = 0; i < s.num_ports(); ++i) {
        const PortId j = phi_.OutputOf(k, i);
        std::vector<std::pair<SimCoflow*, Bytes*>> flows;
        for (auto& sc : active) {
          auto it = sc.remaining.find({i, j});
          if (it != sc.remaining.end() && it->second > kBytesEps)
            flows.emplace_back(&sc, &it->second);
        }
        if (!flows.empty())
          DrainEqualShare(flows, begin, t_next, config_.sunflow.bandwidth,
                          driver, i, j);
      }
    }
    return t_next;
  }

  std::size_t StepBudget(const SimState& state) const override {
    // Rotor utilization is ~1/N per pair, so the makespan can be enormous;
    // this scenario is meant for small ablation workloads. Cap the slot
    // count well above anything a sensible workload needs.
    return 2000000 + 2000 * (state.total_released() + 1);
  }
  const char* budget_message() const override {
    return "rotor replay exceeded its slot budget — the workload is too "
           "heavy for blind rotation";
  }

 private:
  EngineConfig config_;
  PhiAssignments phi_;
  Time span_ = 0;
};

// --- Registry run functions. --------------------------------------------

// Replays the whole trace through the circuit span loop; every coflow must
// complete.
EngineResult RunCircuitLoop(const std::string& name, PlanStep plan_step,
                            const Trace& trace, const PriorityPolicy* policy,
                            const EngineConfig& config) {
  trace.Validate();
  SUNFLOW_CHECK_MSG(policy != nullptr,
                    "the " << name << " scenario needs a priority policy");
  CircuitScenario scenario(name, plan_step, *policy, config, nullptr);
  auto result = RunScenarioReplay(trace, scenario, config.sink, config.timeline);
  SUNFLOW_CHECK(result.cct.size() == trace.coflows.size());
  return result;
}

EngineResult RunCircuit(const Trace& trace, const PriorityPolicy* policy,
                        const EngineConfig& config) {
  return RunCircuitLoop("circuit", PlanJoint, trace, policy, config);
}

// Joint planning over all K planes is the plane-aware circuit loop itself —
// with an empty fabric spec byte-identical to "circuit" (the K=1
// equivalence contract, core/fabric.h).
EngineResult RunKCore(const Trace& trace, const PriorityPolicy* policy,
                      const EngineConfig& config) {
  return RunCircuitLoop("kcore", config.kcore_joint ? PlanJoint : PlanPerCore,
                        trace, policy, config);
}

EngineResult RunGuarded(const Trace& trace, const PriorityPolicy* policy,
                        const EngineConfig& config) {
  trace.Validate();
  SUNFLOW_CHECK_MSG(policy != nullptr,
                    "the guarded scenario needs a priority policy");
  GuardScenario scenario(trace.num_ports, *policy, config);
  auto result = RunScenarioReplay(trace, scenario, config.sink, config.timeline);
  SUNFLOW_CHECK(result.cct.size() == trace.coflows.size());
  return result;
}

EngineResult RunRotor(const Trace& trace, const PriorityPolicy* /*policy*/,
                      const EngineConfig& config) {
  trace.Validate();
  RotorScenario scenario(trace.num_ports, config);
  auto result = RunScenarioReplay(trace, scenario, config.sink, config.timeline);
  SUNFLOW_CHECK(result.cct.size() == trace.coflows.size());
  return result;
}

// Hybrid is a composite, not a span scenario: the trace is split by the
// offload rule and each side replays on its own (physically separate)
// fabric, so it registers a whole-trace run function. The circuit side's
// result is the base (reservations, replans, queue stats); the packet
// side's coflows are merged into the per-coflow maps and the totals.
EngineResult RunHybrid(const Trace& trace, const PriorityPolicy* policy,
                       const EngineConfig& config) {
  SUNFLOW_CHECK(config.packet_bandwidth > 0);
  Trace circuit_side, packet_side;
  circuit_side.num_ports = trace.num_ports;
  packet_side.num_ports = trace.num_ports;
  for (const Coflow& c : trace.coflows) {
    if (c.total_bytes() <= config.offload_threshold) {
      packet_side.coflows.push_back(c);
    } else {
      circuit_side.coflows.push_back(c);
    }
  }

  EngineResult result;
  if (!circuit_side.coflows.empty())
    result = RunCircuit(circuit_side, policy, config);
  result.offloaded = packet_side.coflows.size();
  result.circuit = circuit_side.coflows.size();
  if (!packet_side.coflows.empty()) {
    // The companion packet network is coflow-scheduled too (the offloaded
    // traffic is small, so SEBF+MADD is a natural choice there).
    packet::PacketReplayConfig pc;
    pc.bandwidth = config.packet_bandwidth;
    auto varys = packet::MakeVarysAllocator();
    const auto packet_result =
        packet::ReplayPacketTrace(packet_side, *varys, pc);
    result.cct.insert(packet_result.cct.begin(), packet_result.cct.end());
    result.completion.insert(packet_result.completion.begin(),
                             packet_result.completion.end());
    result.makespan = std::max(result.makespan, packet_result.makespan);
    result.completed += packet_result.cct.size();
    for (const auto& [id, cct] : packet_result.cct) result.cct_sum += cct;
  }
  SUNFLOW_CHECK(result.cct.size() == trace.coflows.size());
  return result;
}

}  // namespace

std::unique_ptr<ScenarioPolicy> MakeCircuitScenario(
    PortId /*num_ports*/, const PriorityPolicy& policy,
    const EngineConfig& config, CompletionHook hook) {
  return std::make_unique<CircuitScenario>("circuit", PlanJoint, policy,
                                           config, std::move(hook));
}

std::unique_ptr<ScenarioPolicy> MakeGuardScenario(
    PortId num_ports, const PriorityPolicy& policy,
    const EngineConfig& config) {
  return std::make_unique<GuardScenario>(num_ports, policy, config);
}

std::unique_ptr<ScenarioPolicy> MakeRotorScenario(PortId num_ports,
                                                  const EngineConfig& config) {
  return std::make_unique<RotorScenario>(num_ports, config);
}

void RegisterBuiltinScenarios(ScenarioRegistry& registry) {
  registry.Register("circuit",
                    "Sunflow OCS replay: replan on arrivals/completions, "
                    "carry-over + replan throttle",
                    RunCircuit);
  registry.Register("guarded",
                    "circuit replay under the (T+tau) starvation guard",
                    RunGuarded);
  registry.Register("rotor",
                    "demand-oblivious blind Phi rotation (no policy)",
                    RunRotor);
  registry.Register("hybrid",
                    "OCS for big coflows, companion packet fabric below the "
                    "offload threshold",
                    RunHybrid);
  registry.Register("kcore",
                    "K-core OCS fabric: joint plane-aware planning "
                    "(kcore_joint), or the per-core baseline — each coflow "
                    "pinned to one core, Sunflow per core",
                    RunKCore);
}

}  // namespace sunflow::engine
