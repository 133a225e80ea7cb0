// The built-in scenarios: "circuit" (Sunflow replan-on-events replay,
// planned jointly across the planes of a K-plane fabric), "kcore" (the same
// loop with the per-core baseline's planning), "guarded" (the §4.2
// starvation guard's (T + τ) cadence), "rotor" (blind Φ rotation),
// "varys"/"aalo" (packet fabric) and "hybrid" (circuit + companion packet
// fabric), and the constant table that names them. Each is a direct port
// of a former standalone engine loop onto the kernel; the arithmetic —
// summation order, dust handling, ε comparisons — is preserved
// expression-for-expression so replays are bit-identical to the pre-kernel
// engines.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "obs/profiler.h"
#include "packet/aalo.h"
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

// What a stall CHECK prints, built only when it fails: the scenario, both
// instants at full precision, the first active coflows with their
// remaining bytes and planned completion, and the pending releases.
std::string StallState(const std::string& scenario, SimState& s,
                       const SunflowSchedule& plan, Time t, Time t_next) {
  constexpr std::size_t kShown = 8;
  std::ostringstream os;
  os.precision(17);
  os << scenario << " replay stalled: t=" << t << " s, t_next=" << t_next
     << " s, " << s.active().size() << " active coflows [";
  for (std::size_t i = 0; i < s.active().size() && i < kShown; ++i) {
    const SimCoflow& sc = s.active()[i];
    os << (i > 0 ? "; " : "") << "coflow " << sc.id << ": "
       << sc.remaining_bytes() << " bytes left, planned completion ";
    const auto planned = plan.completion_time.find(sc.id);
    if (planned == plan.completion_time.end()) {
      os << "none";
    } else {
      os << "t=" << t + planned->second << " s";
    }
  }
  os << (s.active().size() > kShown ? "; ...]" : "]") << ", "
     << s.releases().size() << " pending releases, next release ";
  if (s.HasPendingReleases()) {
    os << "t=" << s.NextReleaseTime() << " s";
  } else {
    os << "none";
  }
  return os.str();
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

// Executes a plan over [t, t_next): charges each active coflow the circuit
// time its reservations actually got before the span end. One pass over the
// plan keeps the reservations whose transmit window overlaps the span and
// whose flow still has bytes left, and groups them by (active position,
// flow) with plan order kept inside each group. So every sum, and every
// FlowFinished, runs in the order of a walk over the active set's flows.
void ExecutePlanSpan(ReplayDriver& driver, std::vector<SimCoflow>& active,
                     const SunflowSchedule& plan, Time t, Time t_next,
                     const std::vector<Bandwidth>& rates, DrainRule rule) {
  std::vector<std::pair<CoflowId, std::size_t>> position;
  position.reserve(active.size());
  for (std::size_t i = 0; i < active.size(); ++i)
    position.emplace_back(active[i].id, i);
  std::sort(position.begin(), position.end());

  // (active position, flow index, reservation index): sorting these keeps
  // plan order inside each flow's group.
  std::vector<std::array<std::size_t, 3>> charges;
  for (std::size_t k = 0; k < plan.reservations.size(); ++k) {
    const CircuitReservation& r = plan.reservations[k];
    if (std::min(r.end, t_next) <= std::max(r.transmit_begin(), t)) continue;
    const auto pos = std::lower_bound(position.begin(), position.end(),
                                      std::pair{r.coflow, std::size_t{0}});
    if (pos == position.end() || pos->first != r.coflow) continue;
    SimCoflow& sc = active[pos->second];
    const SimFlow* flow = sc.FindFlow(r.in, r.out);
    if (flow == nullptr || flow->bytes <= kBytesEps) continue;
    SUNFLOW_CHECK(static_cast<std::size_t>(r.plane) < rates.size());
    charges.push_back({pos->second,
                       static_cast<std::size_t>(flow - sc.flows.data()), k});
  }
  std::sort(charges.begin(), charges.end());

  // Circuit time per plane; a plane's seconds convert to bytes at its own
  // rate. Summed in plane-id order, so the single-plane fabric reduces to
  // the pre-fabric `served * bandwidth` multiply bit-for-bit.
  std::vector<Time> served_by_plane(rates.size(), 0);
  for (std::size_t g = 0; g < charges.size();) {
    const std::size_t pos = charges[g][0];
    SimCoflow& sc = active[pos];
    Bytes served_total = 0;
    while (g < charges.size() && charges[g][0] == pos) {
      const std::size_t flow_index = charges[g][1];
      SimFlow& flow = sc.flows[flow_index];
      std::fill(served_by_plane.begin(), served_by_plane.end(), 0.0);
      Time flow_finish = 0;
      for (; g < charges.size() && charges[g][0] == pos &&
             charges[g][1] == flow_index;
           ++g) {
        const CircuitReservation& r = plan.reservations[charges[g][2]];
        const Time b = std::max(r.transmit_begin(), t);
        const Time e = std::min(r.end, t_next);
        served_by_plane[static_cast<std::size_t>(r.plane)] += e - b;
        flow_finish = std::max(flow_finish, e);
      }
      Bytes served_bytes = 0;
      for (std::size_t p = 0; p < rates.size(); ++p)
        served_bytes += served_by_plane[p] * rates[p];
      if (rule == DrainRule::kCircuitDust) {
        flow.bytes = std::max(0.0, flow.bytes - served_bytes);
        if (flow.bytes <= kBytesEps) --sc.unfinished;
      } else {
        const Bytes moved = std::min(flow.bytes, served_bytes);
        flow.bytes -= moved;
        served_total += moved;
        if (flow.bytes <= kBytesEps) {
          flow.bytes = 0;
          --sc.unfinished;
          sc.last_finish = std::max(sc.last_finish, flow_finish);
          driver.EmitFlowFinished(flow_finish, sc.id, flow.src, flow.dst);
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
        --f.first->unfinished;
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
                     sc.static_tpl, remaining_bytes, sc.unfinished,
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
    req.demand.reserve(sc.unfinished);
    for (const SimFlow& f : sc.flows) {
      if (f.bytes > kBytesEps)
        req.demand.push_back({f.src, f.dst, f.bytes / bandwidth});
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
// replan. "circuit" plans with PlanJoint, the per-core "kcore" baseline
// with PlanPerCore.

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

    // Next event: a release or the earliest planned completion.
    Time t_next = s.HasPendingReleases() ? s.NextReleaseTime() : kTimeInf;
    for (const auto& sc : active) {
      auto it = plan.completion_time.find(sc.id);
      SUNFLOW_CHECK(it != plan.completion_time.end());
      t_next = std::min(t_next, t + it->second);
    }
    SUNFLOW_CHECK_MSG(t_next < kTimeInf && t_next > t,
                      StallState(name_, s, plan, t, t_next));

    ExecutePlanSpan(driver, active, plan, t, t_next, plane_rates_,
                    DrainRule::kCircuitDust);
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
      // (no carry-over — each span replans from scratch). ---
      SunflowSchedule plan =
          PlanActiveSet(driver, policy_, config_, PlanJoint, nullptr, t);

      Time t_next = std::min(span_end, t_arrival);
      for (const auto& sc : active)
        t_next = std::min(t_next, t + plan.completion_time.at(sc.id));
      SUNFLOW_CHECK_MSG(t_next > t, StallState(name(), s, plan, t, t_next));

      ExecutePlanSpan(driver, active, plan, t, t_next, plane_rates_,
                      DrainRule::kExactFinish);
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
          SimFlow* f = sc.FindFlow(i, j);
          if (f != nullptr && f->bytes > kBytesEps)
            flows.emplace_back(&sc, &f->bytes);
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
        for (const SimFlow& f : sc.flows) {
          if (f.bytes <= kBytesEps) continue;
          if (phi_.OutputOf(k, f.src) == f.dst) continue;
          driver.EmitBlockedSpan(t, t_next, sc.id, f.src, f.dst,
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
  Time last_traced_tau_ = -kTimeInf;
};

// --- "rotor": demand-oblivious blind Φ rotation. ------------------------

/// How long each Φ assignment stays up (excluding the δ to install it; the
/// rotor δ is `sunflow.delta`).
constexpr Time kRotorSlotDuration = Millis(90);

class RotorScenario final : public ScenarioPolicy {
 public:
  RotorScenario(PortId num_ports, const EngineConfig& config)
      : config_(config),
        phi_(num_ports),
        span_(config.sunflow.delta + kRotorSlotDuration) {
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
          SimFlow* f = sc.FindFlow(i, j);
          if (f != nullptr && f->bytes > kBytesEps)
            flows.emplace_back(&sc, &f->bytes);
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

// --- "varys" and "aalo": the fluid packet fabric of §5.4. ---------------
//
// Rates are piecewise constant between events. A span first reallocates if
// an admission, a completion or the allocator's own rule (a flow finished,
// an attained-service threshold crossed) asked for it, then drains until
// the next arrival, flow finish or threshold crossing. The bytes live in
// the ActiveCoflow, in trace order: Varys' MADD and a coflow's `sent` and
// total rate sum over the whole coflow in that order, so the SimCoflow's
// (in, out)-sorted flows could not stand in for them bit for bit. The
// SimCoflow keeps only its unfinished count, which the drain decrements,
// so the driver harvests a coflow at the end of the span that drains its
// last flow. With a timeline attached, each reallocation is timed and each
// span reports Σ rate / B busy ports per side.

class PacketScenario final : public ScenarioPolicy {
 public:
  PacketScenario(packet::RateAllocator& allocator, Bandwidth bandwidth)
      : allocator_(allocator), bandwidth_(bandwidth) {
    SUNFLOW_CHECK(bandwidth_ > 0);
  }
  // Owns its allocator ("varys" and "aalo").
  PacketScenario(std::unique_ptr<packet::RateAllocator> owned,
                 Bandwidth bandwidth)
      : PacketScenario(*owned, bandwidth) {
    owned_ = std::move(owned);
  }

  std::string name() const override {
    return std::string("packet/") + allocator_.name();
  }

  bool uses_flat_demand() const override { return false; }

  // Flows in trace order, coflows in admission order: the allocators'
  // tie-breaks and summation order depend on both. The TpL feeds the
  // timeline's idleness, as in the circuit scenarios.
  void OnAdmit(SimCoflow& sc, const Coflow& coflow, Time /*now*/) override {
    sc.static_tpl = PacketLowerBound(coflow, bandwidth_);
    active_.emplace_back(sc.id, sc.arrival, coflow.flows());
    reallocate_ = true;
  }

  void OnComplete(SimState& /*state*/, const SimCoflow& sc,
                  Time /*finish*/) override {
    std::erase_if(active_, [&](const auto& a) { return a.id == sc.id; });
    reallocate_ = true;
  }

  Time ExecuteSpan(ReplayDriver& driver, Time t) override {
    SimState& s = driver.state();
    auto& sims = s.active();
    SUNFLOW_CHECK(sims.size() == active_.size());
    const bool sampled = driver.timeline() != nullptr;
    if (reallocate_) {
      double allocate_ns = 0;
      {
        obs::ProfileScope scope("packet.allocate",
                                sampled ? &allocate_ns : nullptr);
        pointers_.clear();
        for (auto& a : active_) pointers_.push_back(&a);
        allocator_.Allocate(pointers_, s.num_ports(), bandwidth_, t);
        packet::CheckRates(pointers_, s.num_ports(), bandwidth_);
      }
      driver.NoteReallocation(t, allocate_ns);
    }
    SUNFLOW_PROFILE_SCOPE("packet.advance");

    // `flows` holds only unfinished flows (ActiveCoflow::Drain erases the
    // rest), so a positive rate is all a flow needs to drain.
    Time t_next = s.HasPendingReleases() ? s.NextReleaseTime() : kTimeInf;
    Bandwidth span_rate = 0;
    int blocked = 0;
    for (const auto& c : active_) {
      Bandwidth total_rate = 0;
      for (const auto& f : c.flows) {
        if (f.rate <= 0) continue;
        total_rate += f.rate;
        t_next = std::min(t_next, t + f.remaining / f.rate);
      }
      if (total_rate > 0) {
        const Bytes threshold = allocator_.NextServiceThreshold(c.sent);
        if (std::isfinite(threshold))
          t_next = std::min(t_next, t + (threshold - c.sent) / total_rate);
      }
      if (sampled) {
        span_rate += total_rate;
        if (total_rate <= 0) ++blocked;
      }
    }
    SUNFLOW_CHECK_MSG(t_next < kTimeInf,
                      "packet replay stalled: active coflows but no rates "
                      "and no arrivals: "
                          << StallState(t));
    if (sampled)
      driver.SampleFluidSpan(t, t_next, span_rate / bandwidth_, blocked);

    // Drain linearly until the event; a finished flow leaves both views.
    const Time dt = std::max(0.0, t_next - t);
    bool flow_finished = false;
    bool crossed = false;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      packet::ActiveCoflow& c = active_[i];
      const Bytes threshold = allocator_.NextServiceThreshold(c.sent);
      const std::size_t finished = c.Drain(dt);
      if (finished > 0) {
        SUNFLOW_CHECK(sims[i].id == c.id);
        sims[i].unfinished -= finished;
        flow_finished = true;
      }
      SUNFLOW_DCHECK(sims[i].unfinished == c.flows.size());
      crossed = crossed || allocator_.NextServiceThreshold(c.sent) != threshold;
    }
    reallocate_ =
        crossed || (flow_finished && allocator_.reallocates_on_flow_completion());
    return t_next;
  }

  std::size_t StepBudget(const SimState& state) const override {
    // Far above any event count a valid replay can produce.
    return 1000 * (state.total_released() + 1) *
               (static_cast<std::size_t>(state.num_ports()) + 1) +
           1000000;
  }
  const char* budget_message() const override {
    return "packet replay event explosion";
  }

 private:
  // What the stall CHECK prints: t at full precision (a stuck clock may
  // differ only in the last digits), the first active ids, the allocator.
  std::string StallState(Time t) const {
    std::ostringstream os;
    os.precision(17);
    os << "t=" << t << " s, " << active_.size() << " active coflows [";
    for (std::size_t i = 0; i < active_.size() && i < 8; ++i)
      os << (i > 0 ? " " : "") << active_[i].id;
    os << (active_.size() > 8 ? " ...]" : "]") << ", allocator "
       << allocator_.name();
    return os.str();
  }

  std::unique_ptr<packet::RateAllocator> owned_;
  packet::RateAllocator& allocator_;
  Bandwidth bandwidth_ = 0;
  std::vector<packet::ActiveCoflow> active_;  // index-aligned with s.active()
  std::vector<packet::ActiveCoflow*> pointers_;
  bool reallocate_ = false;  // EngineResult::replans counts reallocations
};

// Hybrid is a composite, not a span scenario: the trace is split by the
// offload rule and each side replays on its own (physically separate)
// fabric in its own kernel replay. The circuit side's result is the base
// (reservations, replans, queue stats); the packet side's coflows are
// merged into the per-coflow maps and the totals.
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

  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  EngineResult result;
  if (!circuit_side.coflows.empty())
    result = registry.Run("circuit", circuit_side, policy, config);
  result.offloaded = packet_side.coflows.size();
  result.circuit = circuit_side.coflows.size();
  if (!packet_side.coflows.empty()) {
    // The companion packet network is coflow-scheduled too (the offloaded
    // traffic is small, so SEBF+MADD is a natural choice there). Untraced:
    // the auditor cannot tell its coflows from the circuit side's.
    EngineConfig packet_config;
    packet_config.sunflow.bandwidth = config.packet_bandwidth;
    const EngineResult packet_result =
        registry.Run("varys", packet_side, nullptr, packet_config);
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

// --- The table. -----------------------------------------------------------

struct Builtin {
  const char* name;
  const char* description;
  bool needs_policy;
  // Null for "hybrid", which Run orchestrates (RunHybrid).
  std::unique_ptr<ScenarioPolicy> (*make)(PortId num_ports,
                                          const PriorityPolicy* policy,
                                          const EngineConfig& config);
};

template <typename S, typename... Args>
std::unique_ptr<ScenarioPolicy> New(Args&&... args) {
  return std::make_unique<S>(std::forward<Args>(args)...);
}

// Sorted by name. The packet baselines run at the link rate every
// single-fabric scenario reads; the allocator imposes its own order, so
// they take no policy.
constexpr Builtin kBuiltins[] = {
    {"aalo", "packet fabric, Aalo: D-CLAS queues (no policy)", false,
     [](PortId, const PriorityPolicy*, const EngineConfig& c) {
       return New<PacketScenario>(packet::MakeAaloAllocator(),
                                  c.sunflow.bandwidth);
     }},
    {"circuit",
     "Sunflow OCS replay: replan on arrivals/completions, carry-over; plans "
     "jointly across the planes of a K-plane fabric",
     true,
     [](PortId n, const PriorityPolicy* p, const EngineConfig& c) {
       return MakeCircuitScenario(n, *p, c);
     }},
    {"guarded", "circuit replay under the (T+tau) starvation guard", true,
     [](PortId n, const PriorityPolicy* p, const EngineConfig& c) {
       return New<GuardScenario>(n, *p, c);
     }},
    {"hybrid",
     "OCS for big coflows, companion packet fabric below the offload "
     "threshold",
     false, nullptr},
    {"kcore",
     "K-core per-core baseline: each coflow pinned to one core, Sunflow per "
     "core (joint K-plane planning is \"circuit\" on a K-plane fabric)",
     true,
     [](PortId, const PriorityPolicy* p, const EngineConfig& c) {
       return New<CircuitScenario>("kcore", PlanPerCore, *p, c, nullptr);
     }},
    {"rotor", "demand-oblivious blind Phi rotation (no policy)", false,
     [](PortId n, const PriorityPolicy*, const EngineConfig& c) {
       return New<RotorScenario>(n, c);
     }},
    {"varys", "packet fabric, Varys: SEBF + MADD (no policy)", false,
     [](PortId, const PriorityPolicy*, const EngineConfig& c) {
       return New<PacketScenario>(packet::MakeVarysAllocator(),
                                  c.sunflow.bandwidth);
     }},
};

const Builtin& Find(const std::string& name) {
  const Builtin* b = std::ranges::find(kBuiltins, name, &Builtin::name);
  if (b == std::end(kBuiltins)) {
    std::string names;
    for (const Builtin& row : kBuiltins) {
      if (!names.empty()) names += ", ";
      names += row.name;
    }
    SUNFLOW_CHECK_MSG(false, "unknown scenario '" << name
                                                  << "' — registered: "
                                                  << names);
  }
  return *b;
}

}  // namespace

std::unique_ptr<ScenarioPolicy> MakeCircuitScenario(
    PortId /*num_ports*/, const PriorityPolicy& policy,
    const EngineConfig& config, CompletionHook hook) {
  return std::make_unique<CircuitScenario>("circuit", PlanJoint, policy,
                                           config, std::move(hook));
}

std::unique_ptr<ScenarioPolicy> MakePacketScenario(
    packet::RateAllocator& allocator, Bandwidth bandwidth) {
  return std::make_unique<PacketScenario>(allocator, bandwidth);
}

std::unique_ptr<ScenarioPolicy> MakeScenario(const std::string& name,
                                             PortId num_ports,
                                             const PriorityPolicy* policy,
                                             const EngineConfig& config) {
  const Builtin& b = Find(name);
  SUNFLOW_CHECK_MSG(b.make != nullptr,
                    "\"" << name
                         << "\" is a composite of two replays and runs only "
                            "through ScenarioRegistry::Run");
  SUNFLOW_CHECK_MSG(!b.needs_policy || policy != nullptr,
                    "the " << name << " scenario needs a priority policy");
  return b.make(num_ports, policy, config);
}

const ScenarioRegistry& ScenarioRegistry::Global() {
  static const ScenarioRegistry registry{};
  return registry;
}

EngineResult ScenarioRegistry::Run(const std::string& name, const Trace& trace,
                                   const PriorityPolicy* policy,
                                   const EngineConfig& config) const {
  if (Find(name).make == nullptr) return RunHybrid(trace, policy, config);
  trace.Validate();
  const auto scenario = MakeScenario(name, trace.num_ports, policy, config);
  auto result =
      RunScenarioReplay(trace, *scenario, config.sink, config.timeline);
  SUNFLOW_CHECK(result.cct.size() == trace.coflows.size());
  return result;
}

std::vector<std::pair<std::string, std::string>> ScenarioRegistry::List()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Builtin& b : kBuiltins) out.emplace_back(b.name, b.description);
  return out;
}

}  // namespace sunflow::engine

namespace sunflow::packet {

PacketReplayResult ReplayPacketTrace(const Trace& trace,
                                     RateAllocator& allocator,
                                     const PacketReplayConfig& config) {
  trace.Validate();
  const auto scenario = engine::MakePacketScenario(allocator, config.bandwidth);
  engine::EngineResult r = engine::RunScenarioReplay(trace, *scenario, nullptr);
  SUNFLOW_CHECK(r.cct.size() == trace.coflows.size());
  return {std::move(r.cct), std::move(r.completion), r.makespan, r.replans};
}

}  // namespace sunflow::packet
