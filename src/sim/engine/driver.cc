#include "sim/engine/driver.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_sink.h"

namespace sunflow::engine {

namespace {

// "[id,id,…]": the first few active coflow ids, for CHECK messages.
std::string ActiveIds(const std::vector<SimCoflow>& active) {
  constexpr std::size_t kShown = 8;
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < active.size() && i < kShown; ++i)
    os << (i > 0 ? "," : "") << active[i].id;
  if (active.size() > kShown) os << ",…";
  os << ']';
  return os.str();
}

}  // namespace

EngineResult ReplayDriver::Run(ScenarioPolicy& scenario) {
  SUNFLOW_PROFILE_SCOPE("engine.replay");
  const auto wall_begin = std::chrono::steady_clock::now();
  SimState& s = state_;
  Time t = 0;
  std::size_t steps = 0;

  if (timeline_ != nullptr) timeline_->BeginRun(s.num_ports());
  while (!s.active().empty() || s.HasPendingReleases()) {
    // Every iteration consumes at least one release or strictly advances
    // time toward one; the budget trips non-advancing scenarios.
    SUNFLOW_CHECK_MSG(++steps < scenario.StepBudget(s),
                      scenario.budget_message()
                          << ": scenario=" << scenario.name()
                          << " t=" << std::setprecision(17) << t
                          << " steps=" << steps
                          << " active=" << s.active().size()
                          << " active_ids=" << ActiveIds(s.active())
                          << " pending_releases=" << s.releases().size()
                          << " wall_s=" << std::setprecision(6)
                          << std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - wall_begin)
                                 .count());

    if (s.active().empty()) {
      t = std::max(t, s.NextReleaseTime());
      scenario.OnIdleGap(s, t);
      // Close out the idle gap's windows before admissions land, so gap
      // samples carry active = 0 rather than the post-burst gauges.
      if (timeline_ != nullptr) {
        timeline_->Advance(t, 0, s.releases().size(),
                           s.releases().stats().pops);
      }
    }
    if (timeline_ != nullptr)
      timeline_->NoteQueueDepth(t, s.releases().size());
    {
      SUNFLOW_PROFILE_SCOPE("engine.admit");
      AdmitDue(scenario, t);
    }
    const Time span_begin = t;
    {
      SUNFLOW_PROFILE_SCOPE("engine.execute");
      t = scenario.ExecuteSpan(*this, t);
    }
    {
      SUNFLOW_PROFILE_SCOPE("engine.harvest");
      Harvest(scenario, t);
    }
    if (timeline_ != nullptr) {
      timeline_->NoteEngineSpan(span_begin, t);
      timeline_->Advance(t, static_cast<int>(s.active().size()),
                         s.releases().size(), s.releases().stats().pops);
    }
  }
  if (timeline_ != nullptr) timeline_->EndRun(t);

  s.result().queue = s.releases().stats();
  auto& metrics = obs::GlobalMetrics();
  metrics.GetCounter("engine.event_pushes").Increment(s.result().queue.pushes);
  metrics.GetCounter("engine.event_pops").Increment(s.result().queue.pops);
  return std::move(s.result());
}

void ReplayDriver::AdmitDue(ScenarioPolicy& scenario, Time t) {
  // Drain every due release into the reusable batch buffer first (one
  // PopDue call), then admit; (time, seq) order — and therefore the FIFO
  // tie-break contract — is preserved by the queue.
  due_.clear();
  state_.releases().PopDue(t + kTimeEps, due_);
  for (;;) {
    for (const auto& entry : due_) AdmitOne(scenario, entry, t);
    due_.clear();
    // Streaming mode: the release queue only ever holds a prefix of the
    // (arrival-ordered) source, so after draining it top up until the
    // next pending release is beyond t or the source is dry — laziness
    // must never change what counts as "due". Pulls assign the same
    // (time, seq) keys as whole-trace seeding, so admission order — and
    // every downstream scheduling decision — is identical.
    if (source_ == nullptr || state_.HasPendingReleases()) break;
    if (!PullOne()) break;
    state_.releases().PopDue(t + kTimeEps, due_);
    if (due_.empty()) break;
  }
}

void ReplayDriver::AdmitOne(ScenarioPolicy& scenario,
                            const EventQueue<const Coflow*>::Entry& entry,
                            Time t) {
  const Coflow& coflow = *entry.payload;
  SimCoflow sc;
  sc.id = coflow.id();
  sc.arrival = entry.t;
  sc.total = coflow.total_bytes();
  for (const Flow& f : coflow.flows()) {
    if (f.bytes > kBytesEps) ++sc.unfinished;
  }
  if (scenario.uses_flat_demand()) {
    sc.flows.reserve(coflow.size());
    for (const Flow& f : coflow.flows())
      sc.flows.push_back({f.src, f.dst, f.bytes});
    // A coflow holds each (in, out) pair once, so this order is total.
    std::sort(sc.flows.begin(), sc.flows.end(),
              [](const SimFlow& a, const SimFlow& b) {
                return std::pair{a.in, a.out} < std::pair{b.in, b.out};
              });
  }
  scenario.OnAdmit(sc, coflow, t);
  // static_tpl is set by OnAdmit; scenarios that leave it 0 (rotor)
  // contribute a zero-width demand interval — their idleness aggregate
  // is meaningless either way (no TpL model).
  if (timeline_ != nullptr)
    timeline_->NoteAdmitted(entry.t, sc.static_tpl);
  const CoflowId id = sc.id;
  state_.active().push_back(std::move(sc));
  // dur carries the admission queueing wait (admit instant minus release
  // instant), the pre-admission component of the CCT decomposition. Every
  // built-in scenario ends its span at the next release, so it is 0 there.
  obs::Emit(state_.sink(), {.type = obs::EventType::kCoflowAdmitted,
                            .t = std::max(t, entry.t),
                            .dur = std::max(0.0, t - entry.t),
                            .coflow = id});
  if (source_ != nullptr) {
    // Admissions consume the pulled window strictly FIFO (the queue pops
    // in (time, seq) = pull order); the coflow's bytes now live in the
    // SimCoflow or the scenario, so the storage can go.
    SUNFLOW_CHECK_MSG(!window_.empty() && entry.payload == &window_.front(),
                      "streamed admission out of window order");
    window_.pop_front();
  }
}

bool ReplayDriver::PullOne() {
  if (source_ == nullptr) return false;
  Coflow c;
  if (!source_->Next(c)) return false;
  SUNFLOW_CHECK_MSG(c.arrival() >= last_pulled_arrival_,
                    "streamed source is not arrival-ordered (run extsort)");
  last_pulled_arrival_ = c.arrival();
  window_.push_back(std::move(c));
  state_.PushRelease(window_.back().arrival(), &window_.back());
  return true;
}

void ReplayDriver::Harvest(ScenarioPolicy& scenario, Time now) {
  auto& active = state_.active();
  EngineResult& result = state_.result();
  for (auto it = active.begin(); it != active.end();) {
    SUNFLOW_DCHECK(it->flows.empty() ||
                   it->unfinished == it->CountUnfinished());
    if (it->done()) {
      // Fluid scenarios resolve exact finish instants mid-span
      // (last_finish); the circuit planner's dust semantics finish at the
      // span end.
      const Time finish = it->last_finish > 0 ? it->last_finish : now;
      if (completion_sink_) {
        // Out-of-core mode: hand the record off and keep the per-coflow
        // maps empty. The reservations entry NoteReplan accumulated is
        // drained here too — it is the one map that would otherwise grow
        // with the trace.
        CompletionRecord rec;
        rec.id = it->id;
        rec.arrival = it->arrival;
        rec.finish = finish;
        rec.cct = finish - it->arrival;
        rec.max_service_gap = it->max_gap;
        if (auto rit = result.reservations.find(it->id);
            rit != result.reservations.end()) {
          rec.reservations = rit->second;
          result.reservations.erase(rit);
        }
        completion_sink_(rec);
      } else {
        result.cct[it->id] = finish - it->arrival;
        result.completion[it->id] = finish;
        result.max_service_gap[it->id] = it->max_gap;
      }
      ++result.completed;
      result.cct_sum += finish - it->arrival;
      result.makespan = std::max(result.makespan, finish);
      obs::Emit(state_.sink(), {.type = obs::EventType::kCoflowCompleted,
                                .t = finish,
                                .coflow = it->id,
                                .value = finish - it->arrival});
      scenario.OnComplete(state_, *it, finish);
      it = active.erase(it);
    } else {
      ++it;
    }
  }
}

void ReplayDriver::NoteReplan(Time t, const SunflowSchedule& plan,
                              double plan_ns, std::size_t num_requests) {
  EngineResult& result = state_.result();
  ++result.replans;
  for (const auto& [id, count] : plan.reservation_count)
    result.reservations[id] += count;
  if (timeline_ != nullptr) {
    timeline_->NoteReplan(t, plan_ns);
  }
  obs::GlobalMetrics().GetHistogram("scheduler.compute_ns").Record(plan_ns);
  obs::GlobalMetrics().GetCounter("replay.replans").Increment();
  obs::Emit(state_.sink(),
            {.type = obs::EventType::kAssignmentComputed,
             .t = t,
             .value = plan_ns,
             .count = static_cast<std::int64_t>(num_requests)});
}

void ReplayDriver::NoteReallocation(Time t, double wall_ns) {
  ++state_.result().replans;
  if (timeline_ != nullptr) timeline_->NoteReplan(t, wall_ns);
}

void ReplayDriver::SampleFluidSpan(Time t, Time t_next, double busy_ports,
                                   int blocked) {
  circuit_uses_.assign(1, {.plane = 0, .begin = t, .end = t_next,
                           .ports = busy_ports});
  timeline_->IngestCircuits(t, t_next, circuit_uses_,
                            static_cast<int>(state_.active().size()), blocked);
}

void ReplayDriver::SampleExecutedPlan(const SunflowSchedule& plan, Time t,
                                      Time t_next) {
  circuit_uses_.clear();
  circuit_uses_.reserve(plan.reservations.size());
  // The served set mirrors EmitBlockedSpans' notion of "got circuit time
  // in the span", but at coflow granularity: a coflow with no overlapping
  // reservation at all spent the whole span blocked.
  std::set<CoflowId> served;
  for (const auto& r : plan.reservations) {
    const Time begin = std::max(r.start, t);
    const Time end = std::min(r.end, t_next);
    if (end - begin <= kTimeEps) continue;
    circuit_uses_.push_back({r.plane, begin, end});
    served.insert(r.coflow);
  }
  int blocked = 0;
  for (const auto& sc : state_.active()) {
    if (served.count(sc.id) == 0) ++blocked;
  }
  timeline_->IngestCircuits(t, t_next, circuit_uses_,
                            static_cast<int>(state_.active().size()), blocked);
}

void ReplayDriver::EmitExecutedPlan(const SunflowSchedule& plan,
                                    Time t, Time t_next) {
  if (timeline_ == nullptr && state_.sink() == nullptr) return;
  SUNFLOW_PROFILE_SCOPE("engine.emit");
  if (timeline_ != nullptr) SampleExecutedPlan(plan, t, t_next);
  if (state_.sink() == nullptr) return;
  for (const auto& r : plan.reservations) {
    if (r.start >= t_next - kTimeEps) continue;
    const Time end = std::min(r.end, t_next);
    if (end - r.start <= kTimeEps) continue;  // superseded at birth
    // A reservation cut off by the replan may have spent only part of its
    // δ before being abandoned; the span records what physically ran.
    obs::Emit(state_.sink(), {.type = obs::EventType::kCircuitSetup,
                              .t = r.start,
                              .dur = end - r.start,
                              .coflow = r.coflow,
                              .in = r.in,
                              .out = r.out,
                              .value = std::min(r.setup, end - r.start),
                              .plane = r.plane});
    if (r.end <= t_next + kTimeEps) {
      obs::Emit(state_.sink(), {.type = obs::EventType::kCircuitTeardown,
                                .t = r.end,
                                .coflow = r.coflow,
                                .in = r.in,
                                .out = r.out,
                                .plane = r.plane});
    }
  }
}

void ReplayDriver::NoteStarvationRound(Time span_begin, Time dur, int k) {
  obs::GlobalMetrics().GetCounter("starvation.rounds").Increment();
  obs::Emit(state_.sink(), {.type = obs::EventType::kStarvationRound,
                            .t = span_begin,
                            .dur = dur,
                            .count = k});
}

void ReplayDriver::EmitFlowFinished(Time t, CoflowId coflow, PortId in,
                                    PortId out) {
  obs::Emit(state_.sink(), {.type = obs::EventType::kFlowFinished,
                            .t = t,
                            .coflow = coflow,
                            .in = in,
                            .out = out});
}

void ReplayDriver::EmitBlockedSpan(Time t, Time t_next, CoflowId coflow,
                                   PortId in, PortId out,
                                   obs::BlockReason reason, CoflowId blamer) {
  obs::Emit(state_.sink(), {.type = obs::EventType::kFlowBlocked,
                            .t = t,
                            .coflow = coflow,
                            .in = in,
                            .out = out,
                            .value = static_cast<double>(blamer),
                            .count = static_cast<std::int64_t>(reason)});
  obs::Emit(state_.sink(), {.type = obs::EventType::kFlowUnblocked,
                            .t = t_next,
                            .dur = t_next - t,
                            .coflow = coflow,
                            .in = in,
                            .out = out,
                            .value = static_cast<double>(blamer),
                            .count = static_cast<std::int64_t>(reason)});
}

void ReplayDriver::EmitBlockedSpans(const SunflowSchedule& plan, Time t,
                                    Time t_next) {
  if (state_.sink() == nullptr || t_next <= t + kTimeEps) return;
  SUNFLOW_PROFILE_SCOPE("engine.emit");
  // One walk over the reservations up at any point in the span records the
  // flows they serve and, per port, the first of them in plan order: the
  // one a flow blocked on that port blames.
  const auto ports = static_cast<std::size_t>(state_.num_ports());
  std::vector<const CircuitReservation*> first_on_in(ports, nullptr);
  std::vector<const CircuitReservation*> first_on_out(ports, nullptr);
  std::vector<std::tuple<CoflowId, PortId, PortId>> served;
  for (const auto& r : plan.reservations) {
    if (r.start >= t_next - kTimeEps || r.end <= t + kTimeEps) continue;
    served.emplace_back(r.coflow, r.in, r.out);
    auto& on_in = first_on_in[static_cast<std::size_t>(r.in)];
    if (on_in == nullptr) on_in = &r;
    auto& on_out = first_on_out[static_cast<std::size_t>(r.out)];
    if (on_out == nullptr) on_out = &r;
  }
  std::sort(served.begin(), served.end());
  for (const auto& sc : state_.active()) {
    for (const SimFlow& f : sc.flows) {
      if (f.bytes <= kBytesEps) continue;
      // Was this flow's circuit up at any point in the span? If so its
      // wait, if any, is sub-span and the planner's own episode events
      // (when planning traced) carry the detail; the driver only derives
      // whole-span blocks.
      if (std::binary_search(served.begin(), served.end(),
                             std::tuple{sc.id, f.in, f.out}))
        continue;
      const CircuitReservation* in_blocker =
          first_on_in[static_cast<std::size_t>(f.in)];
      const CircuitReservation* out_blocker =
          first_on_out[static_cast<std::size_t>(f.out)];
      obs::BlockReason reason = obs::BlockReason::kCircuitConflict;
      CoflowId blamer = -1;
      if (in_blocker != nullptr) {
        reason = obs::BlockReason::kInputPortBusy;
        blamer = in_blocker->coflow;
      } else if (out_blocker != nullptr) {
        reason = obs::BlockReason::kOutputPortBusy;
        blamer = out_blocker->coflow;
      }
      EmitBlockedSpan(t, t_next, sc.id, f.in, f.out, reason, blamer);
    }
  }
}

EngineResult ReplayDriver::RunStream(ScenarioPolicy& scenario,
                                     CoflowSource& source) {
  SUNFLOW_CHECK_MSG(state_.num_ports() == source.num_ports(),
                    "source fabric size differs from the driver's");
  SUNFLOW_CHECK_MSG(!state_.HasPendingReleases(),
                    "RunStream on a driver with pre-seeded releases");
  source_ = &source;
  // Prime the release queue so Run's loop condition and NextReleaseTime
  // see the first arrival; AdmitDue keeps the queue topped up after that.
  PullOne();
  return Run(scenario);
}

EngineResult RunScenarioReplay(const Trace& trace, ScenarioPolicy& scenario,
                               obs::TraceSink* sink,
                               obs::TimelineSampler* timeline) {
  ReplayDriver driver(trace.num_ports, sink, timeline);
  for (const Coflow& c : trace.coflows)
    driver.state().PushRelease(c.arrival(), &c);
  return driver.Run(scenario);
}

EngineResult RunScenarioStream(CoflowSource& source, ScenarioPolicy& scenario,
                               obs::TraceSink* sink,
                               obs::TimelineSampler* timeline,
                               CompletionSink completion_sink) {
  ReplayDriver driver(source.num_ports(), sink, timeline);
  if (completion_sink) driver.set_completion_sink(std::move(completion_sink));
  return driver.RunStream(scenario, source);
}

}  // namespace sunflow::engine
