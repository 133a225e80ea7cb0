// ReplayDriver — the single plan → execute-until-next-event → replan loop
// behind every replay engine, and the only place obs events are emitted.
//
// Tie-break contract for simultaneous events (docs/engine.md):
//   1. Completions at instant t are processed before releases at t: the
//      driver harvests the active set after each executed span, then admits
//      releases due at the new time at the top of the next iteration — so a
//      replan at t sees the departures first and the arrivals second, which
//      is also when a dependency-gated release triggered *at* t is admitted.
//   2. Among releases at the same instant, admission is FIFO in push order
//      (the event queue's (time, seq) key) — trace order for initial
//      releases, hook order for gated ones.
//   3. "Due" is tolerance-inclusive: a release at r is admitted at t when
//      r ≤ t + kTimeEps, matching every other kTimeEps comparison.
#pragma once

#include <deque>
#include <functional>

#include "core/sunflow.h"
#include "obs/event.h"
#include "obs/timeline.h"
#include "sim/engine/scenario.h"
#include "sim/engine/state.h"
#include "trace/source.h"

namespace sunflow::engine {

/// One completed coflow, as delivered to a CompletionSink: everything the
/// per-coflow result maps would have recorded.
struct CompletionRecord {
  CoflowId id = -1;
  Time arrival = 0;
  Time finish = 0;
  Time cct = 0;
  Time max_service_gap = 0;
  /// Total circuit reservations issued for this coflow (planning
  /// scenarios; 0 otherwise).
  int reservations = 0;
};

/// Out-of-core results: with a sink installed, the driver streams each
/// completion out instead of growing EngineResult's per-coflow maps, so
/// replay memory is bounded by the *active* set, not the trace length.
using CompletionSink = std::function<void(const CompletionRecord&)>;

class ReplayDriver {
 public:
  ReplayDriver(PortId num_ports, obs::TraceSink* sink,
               obs::TimelineSampler* timeline = nullptr)
      : state_(num_ports, sink), timeline_(timeline) {}

  /// Seed releases via state().PushRelease(), then Run. Every pushed coflow
  /// appears in the result exactly once.
  SimState& state() { return state_; }

  /// The replan loop. Each iteration: fast-forward over an idle gap if the
  /// active set is empty, admit due releases, let the scenario execute one
  /// span, harvest completions at the span end. Consumes the driver.
  EngineResult Run(ScenarioPolicy& scenario);

  /// Streaming replay: instead of pre-seeded releases, admission pulls
  /// arrivals lazily from `source` (which must yield coflows in
  /// (arrival, id) order — a sorted stream file or TraceCoflowSource).
  /// At most one undelivered arrival is held at a time, so driver memory
  /// is O(active set), and the (time, seq) pop order — hence every
  /// scheduling decision — is byte-identical to the pre-seeded path.
  /// Dependency-gated scenarios (completion hooks pushing new releases)
  /// are not supported with a source. Consumes the driver.
  EngineResult RunStream(ScenarioPolicy& scenario, CoflowSource& source);

  /// Streams completions out instead of accumulating them (see
  /// CompletionSink). Install before Run/RunStream.
  void set_completion_sink(CompletionSink sink) {
    completion_sink_ = std::move(sink);
  }

  // --- Emission helpers (scenarios call these; they never emit directly,
  // so every scenario shares identical event + metrics semantics). -------

  /// One replan: bumps replans/reservation counts and the scheduler
  /// metrics, emits kAssignmentComputed.
  void NoteReplan(Time t, const SunflowSchedule& plan, double plan_ns,
                  std::size_t num_requests);

  /// kCircuitSetup/kCircuitTeardown spans for the executed portion of a
  /// plan ([t, t_next) only; reservations superseded by the next replan
  /// never ran).
  void EmitExecutedPlan(const SunflowSchedule& plan, Time t, Time t_next);

  /// One rate reallocation of a fluid (packet) scenario: bumps
  /// EngineResult::replans and feeds the timeline its wall ns. It plans no
  /// circuits, so it emits no kAssignmentComputed.
  void NoteReallocation(Time t, double wall_ns);

  /// A fluid span [t, t_next) into the timeline: `busy_ports` (Σ rate / B)
  /// busy on each side of the one plane, `blocked` active coflows with no
  /// rate. Call only with a timeline attached.
  void SampleFluidSpan(Time t, Time t_next, double busy_ports, int blocked);

  /// The attached telemetry sampler, or null; scenarios read the clock for
  /// it only when one is attached.
  const obs::TimelineSampler* timeline() const { return timeline_; }

  /// One τ round of the starvation guard: bumps `starvation.rounds`, emits
  /// kStarvationRound.
  void NoteStarvationRound(Time span_begin, Time dur, int k);

  /// A flow drained to zero at `t` on circuit (in → out).
  void EmitFlowFinished(Time t, CoflowId coflow, PortId in, PortId out);

  /// A flow held for the whole span [t, t_next) with no circuit: one
  /// kFlowBlocked at t plus the matching kFlowUnblocked at t_next
  /// (dur = span length). Scenarios use this for spans whose blocking
  /// cause they know directly (the starvation guard's τ hold).
  void EmitBlockedSpan(Time t, Time t_next, CoflowId coflow, PortId in,
                       PortId out, obs::BlockReason reason, CoflowId blamer);

  /// Derives blocked spans from an executed plan: every pending flow of
  /// the active set that got no circuit time in [t, t_next) is blocked for
  /// the span, blamed on the owner of the first overlapping reservation
  /// (in plan order) on its input, then its output, port. Call after
  /// ExecutePlanSpan so SimCoflow::flows reflects the drain — a flow that
  /// finished in the span is not blocked.
  void EmitBlockedSpans(const SunflowSchedule& plan, Time t, Time t_next);

 private:
  void AdmitDue(ScenarioPolicy& scenario, Time t);
  void AdmitOne(ScenarioPolicy& scenario,
                const EventQueue<const Coflow*>::Entry& entry, Time t);
  void Harvest(ScenarioPolicy& scenario, Time now);
  /// Pulls the next coflow off source_ into the window and pushes its
  /// release; false when the source is exhausted (or absent).
  bool PullOne();
  /// Feeds the executed portion of `plan` ([t, t_next) clips) plus the
  /// active/blocked gauges into the timeline sampler.
  void SampleExecutedPlan(const SunflowSchedule& plan, Time t, Time t_next);

  SimState state_;
  /// Optional telemetry sampler (obs/timeline.h); null in default runs.
  /// Not owned.
  obs::TimelineSampler* timeline_ = nullptr;
  /// Reusable batch buffer for AdmitDue's PopDue drain (allocated once,
  /// cleared per admission round).
  std::vector<EventQueue<const Coflow*>::Entry> due_;
  /// Reusable clipped-circuit buffer for SampleExecutedPlan.
  std::vector<obs::TimelineCircuitUse> circuit_uses_;
  /// Streaming mode (RunStream): the pull source and the FIFO of pulled
  /// but not-yet-admitted coflows the release queue points into. The
  /// invariant "releases non-empty unless source_ is dry" keeps
  /// NextReleaseTime()/AdmitDue oblivious to the laziness.
  CoflowSource* source_ = nullptr;
  std::deque<Coflow> window_;
  Time last_pulled_arrival_ = 0;
  CompletionSink completion_sink_;
};

/// Front door: seeds one release per trace coflow at its arrival and runs
/// `scenario`. Callers needing custom releases (DAG gating) drive a
/// ReplayDriver directly.
EngineResult RunScenarioReplay(const Trace& trace, ScenarioPolicy& scenario,
                               obs::TraceSink* sink,
                               obs::TimelineSampler* timeline = nullptr);

/// Streaming front door: pulls arrivals from `source` (arrival-ordered)
/// and — when `completion_sink` is given — streams completions out, so
/// the whole replay holds O(active coflows) regardless of trace length.
/// Scheduling output is byte-identical to RunScenarioReplay on the same
/// coflow sequence.
EngineResult RunScenarioStream(CoflowSource& source, ScenarioPolicy& scenario,
                               obs::TraceSink* sink,
                               obs::TimelineSampler* timeline = nullptr,
                               CompletionSink completion_sink = nullptr);

}  // namespace sunflow::engine
