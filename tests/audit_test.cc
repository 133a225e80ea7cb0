// The optical circuit switch's physics (§2.1, §6) as the trace auditor
// (obs/audit.h) checks it. The Ocs cases pin, on hand-built traces, one
// rule each that a not-all-stop switch imposes: a circuit pays its plane's
// δ before light passes, holds both its ports until torn down, carries
// (span − setup) × rate bytes, and keeps a carried-over circuit up without
// a second δ. The Driver cases trace real planner output and audit it
// against its demand, so a schedule is executable exactly when its trace
// audits clean.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sunflow.h"
#include "obs/audit.h"
#include "obs/trace_sink.h"

namespace sunflow {
namespace {

using obs::Event;
using obs::EventType;

constexpr Time kDelta = 0.01;
constexpr Bandwidth kRate = 1000;  // bytes per second

Event Span(CoflowId coflow, PortId in, PortId out, Time t, Time dur,
           Time setup, PlaneId plane = 0) {
  return {.type = EventType::kCircuitSetup, .t = t, .dur = dur,
          .coflow = coflow, .in = in, .out = out, .value = setup,
          .plane = plane};
}

Event Finished(CoflowId coflow, PortId in, PortId out, Time t) {
  return {.type = EventType::kFlowFinished, .t = t, .coflow = coflow,
          .in = in, .out = out};
}

obs::AuditDemand Demand(Time delta = kDelta) {
  obs::AuditDemand demand;
  demand.planes.push_back({delta, kRate});
  return demand;
}

// The invariants a trace violates, in report order.
std::vector<std::string> Violations(const std::vector<Event>& events,
                                    const obs::AuditDemand& demand,
                                    long long expected_setups = -1) {
  std::vector<std::string> out;
  for (const auto& v : obs::AuditTrace(events, expected_setups,
                                       obs::AuditScope::kSharedFabric, &demand)
                           .violations)
    out.push_back(v.invariant + ": " + v.detail);
  return out;
}

const std::vector<std::string> kClean;

bool Names(const std::vector<std::string>& violations, const char* rule) {
  for (const std::string& v : violations)
    if (v.rfind(std::string(rule) + ":", 0) == 0) return true;
  return false;
}

TEST(Ocs, ConnectTakesDelta) {
  // Light passes δ after the connect: a δ-paying span's setup is its
  // plane's δ, or all of a span cut short mid-reconfiguration. A replan
  // may cut a circuit mid-δ and re-point its input at once (the new
  // circuit pays a full δ of its own), so the device's refusal to re-point
  // an input still reconfiguring is deliberately not a trace rule.
  obs::AuditDemand demand = Demand();
  EXPECT_EQ(Violations({Span(1, 0, 1, 0.0, 1.0, kDelta),
                        Span(2, 2, 3, 0.0, kDelta / 2, kDelta / 2),
                        Span(2, 2, 0, kDelta / 2, 1.0, kDelta)},
                       demand),
            kClean);
  EXPECT_TRUE(Names(Violations({Span(1, 0, 1, 0.0, 1.0, kDelta / 2)}, demand),
                    "delta-length"));
  // Each plane pays its own δ: plane 1's is twice plane 0's.
  demand.planes.push_back({2 * kDelta, kRate});
  EXPECT_EQ(Violations({Span(1, 0, 1, 0.0, 1.0, 2 * kDelta, 1)}, demand),
            kClean);
  EXPECT_TRUE(Names(Violations({Span(1, 0, 1, 0.0, 1.0, kDelta, 1)}, demand),
                    "delta-length"));
  EXPECT_TRUE(Names(Violations({Span(1, 0, 1, 0.0, 1.0, kDelta, 2)}, demand),
                    "delta-length"));  // no plane 2
}

TEST(Ocs, NotAllStopIndependence) {
  // Reconfiguring input 0 must not darken circuit 1->2: the flow on it is
  // served in full while the other circuit pays its δ.
  obs::AuditDemand demand = Demand();
  demand.flow_bytes[{1, 1, 2}] = (1.0 - kDelta) * kRate;
  EXPECT_EQ(Violations({Span(1, 1, 2, 0.0, 1.0, kDelta),
                        Span(2, 0, 3, 0.5, 0.5, kDelta),
                        Finished(1, 1, 2, 1.0)},
                       demand),
            kClean);
}

TEST(Ocs, PortConstraintEnforced) {
  // Two inputs may not hold one output at once.
  const auto violations = Violations(
      {Span(1, 0, 2, 0.0, 1.0, kDelta), Span(2, 1, 2, 0.005, 1.0, kDelta)},
      Demand());
  EXPECT_TRUE(Names(violations, "port-exclusivity"));
}

TEST(Ocs, CommandDuringReconfigurationRejected) {
  // Input-side exclusivity: a second circuit may not claim an input while
  // the first still holds it, reconfiguring or not. (Re-pointing an input
  // whose circuit was cut mid-δ is legal; see Ocs.ConnectTakesDelta.)
  const auto violations = Violations(
      {Span(1, 0, 1, 0.0, 1.0, kDelta), Span(1, 0, 2, 0.005, 1.0, kDelta)},
      Demand());
  EXPECT_TRUE(Names(violations, "port-exclusivity"));
}

TEST(Ocs, TeardownFreesOutput) {
  // An output released at t can be claimed by another input at t.
  EXPECT_EQ(Violations({Span(1, 0, 2, 0.0, 1.0, kDelta),
                        Span(2, 1, 2, 1.0, 1.0, kDelta)},
                       Demand()),
            kClean);
}

TEST(Ocs, HistoryAndLightTime) {
  // A circuit up over [0, 2) carries light for 2 − δ seconds: exactly
  // enough for (2 − δ)·rate bytes, and a byte more is not served. The
  // coflow's completion finishes the flow when no FlowFinished is traced.
  const std::vector<Event> events = {
      {.type = EventType::kCoflowAdmitted, .t = 0.0, .coflow = 1},
      Span(1, 0, 1, 0.0, 2.0, kDelta),
      {.type = EventType::kCoflowCompleted, .t = 2.0, .coflow = 1,
       .value = 2.0},
  };
  obs::AuditDemand demand = Demand();
  demand.flow_bytes[{1, 0, 1}] = (2.0 - kDelta) * kRate;
  EXPECT_EQ(Violations(events, demand), kClean);
  demand.flow_bytes[{1, 0, 1}] += 2 * kBytesEps;
  EXPECT_TRUE(Names(Violations(events, demand), "bytes-served"));
}

TEST(Ocs, PreEstablishSkipsDelta) {
  // A circuit already up carries over without a second δ: the zero-setup
  // span continues it, transmits from its first instant, and only the
  // first span counts as a setup.
  obs::AuditDemand demand = Demand();
  demand.flow_bytes[{1, 0, 1}] = (2.0 - kDelta) * kRate;
  EXPECT_EQ(Violations({Span(1, 0, 1, 0.0, 1.0, kDelta),
                        Span(1, 0, 1, 1.0, 1.0, 0.0),
                        Finished(1, 0, 1, 2.0)},
                       demand, /*expected_setups=*/1),
            kClean);
}

TEST(Ocs, CarryOverClaimVerified) {
  // Claiming an established circuit that is not there skips a δ.
  const auto violations = Violations(
      {Span(1, 0, 1, 0.0, 1.0, kDelta), Span(1, 2, 3, 0.5, 1.0, 0.0)},
      Demand());
  EXPECT_TRUE(Names(violations, "delta-carryover"));
  // The plane's δ decides, not the rest of the trace: a lone zero-setup
  // span on a δ > 0 plane skipped its δ even though no span paid one.
  obs::AuditDemand demand = Demand();
  demand.flow_bytes[{1, 0, 1}] = kRate;
  EXPECT_TRUE(Names(
      Violations({Span(1, 0, 1, 0.0, 1.0, 0.0), Finished(1, 0, 1, 1.0)},
                 demand),
      "delta-carryover"));
}

TEST(Ocs, ZeroDeltaConnectsInstantly) {
  // With δ = 0 every circuit carries light from its first instant.
  obs::AuditDemand demand = Demand(0.0);
  demand.flow_bytes[{1, 0, 1}] = kRate;
  EXPECT_EQ(
      Violations({Span(1, 0, 1, 0.0, 1.0, 0.0), Finished(1, 0, 1, 1.0)},
                 demand),
      kClean);
  // Also on a δ = 0 plane beside one that pays δ.
  demand = Demand();
  demand.planes.push_back({0.0, kRate});
  EXPECT_EQ(Violations({Span(1, 0, 1, 0.0, 1.0, kDelta, 0),
                        Span(2, 2, 3, 0.0, 1.0, 0.0, 1)},
                       demand),
            kClean);
}

TEST(Audit, BytesServedCountsEachPlaneAtItsRateUpToTheFinish) {
  // One flow over two half-rate-apart planes: bytes after its FlowFinished
  // do not count, and each plane's seconds convert at that plane's rate.
  obs::AuditDemand demand = Demand();
  demand.planes.push_back({kDelta, kRate / 2});
  demand.flow_bytes[{1, 0, 1}] = 1.5 * kRate;
  const std::vector<Event> events = {
      Span(1, 0, 1, 0.0, 1.0 + kDelta, kDelta, 0),
      Span(1, 0, 1, 1.0 + kDelta, 1.0 + kDelta, kDelta, 1),
      Finished(1, 0, 1, 2 * (1.0 + kDelta)),
  };
  EXPECT_EQ(Violations(events, demand), kClean);
  std::vector<Event> early = events;
  early.back().t = 1.5 + kDelta;  // inside the second span, before its end
  EXPECT_TRUE(Names(Violations(early, demand), "bytes-served"));
}

TEST(Audit, BytesServedSkipsTracesWithStarvationRounds) {
  // τ rounds drain fluidly outside circuit spans, so the auditor cannot
  // count their bytes; delta-length still applies.
  obs::AuditDemand demand = Demand();
  demand.flow_bytes[{1, 0, 1}] = 10 * kRate;
  std::vector<Event> events = {Span(1, 0, 1, 0.0, 1.0, kDelta),
                               Finished(1, 0, 1, 1.0)};
  EXPECT_TRUE(Names(Violations(events, demand), "bytes-served"));
  events.push_back(
      {.type = EventType::kStarvationRound, .t = 2.0, .dur = 0.1});
  EXPECT_EQ(Violations(events, demand), kClean);
  events[0].value = kDelta / 2;
  EXPECT_TRUE(Names(Violations(events, demand), "delta-length"));
}

// ---- Planner output executes: traced plans audit clean with their demand.

SunflowConfig Config() {
  SunflowConfig c;
  c.bandwidth = Gbps(1);
  c.delta = Millis(10);
  return c;
}

std::vector<Event> TracePlan(const Coflow& coflow, PortId num_ports) {
  obs::MemorySink sink;
  ScheduleSingleCoflow(coflow, num_ports, Config(), &sink);
  return sink.events();
}

std::vector<std::string> AuditPlan(const Coflow& coflow, PortId num_ports,
                                   long long expected_setups) {
  const Trace trace{num_ports, {coflow}};
  return Violations(TracePlan(coflow, num_ports),
                    AuditDemandOf(trace, Config()), expected_setups);
}

TEST(Driver, SingleFlowDeliversExactly) {
  const Coflow c(1, 0, {{0, 1, MB(100)}});
  EXPECT_EQ(AuditPlan(c, 4, /*expected_setups=*/1), kClean);
}

TEST(Driver, SkippedDeltaIsCaught) {
  // The same plan with its one δ zeroed claims a circuit nothing set up.
  const Coflow c(1, 0, {{0, 1, MB(100)}});
  std::vector<Event> events = TracePlan(c, 4);
  for (Event& e : events)
    if (e.type == EventType::kCircuitSetup) e.value = 0;
  const Trace trace{4, {c}};
  EXPECT_TRUE(
      Names(Violations(events, AuditDemandOf(trace, Config())),
            "delta-carryover"));
}

TEST(Driver, Figure1ShuffleExecutes) {
  std::vector<Flow> flows;
  for (PortId i = 0; i < 5; ++i) {
    flows.push_back({i, 5, MB(10 + 7 * i)});
    flows.push_back({i, 6, MB(12 + 3 * i)});
  }
  const Coflow c(1, 0, std::move(flows));
  EXPECT_EQ(AuditPlan(c, 7, /*expected_setups=*/10), kClean);
}

TEST(Driver, InterCoflowPlanExecutes) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0, {{0, 2, MB(50)}, {1, 2, MB(30)}}));
  trace.coflows.push_back(Coflow(2, 0, {{0, 2, MB(100)}, {0, 3, MB(80)}}));
  obs::MemorySink sink;
  SunflowPlanner planner(4, Config());
  planner.SetTraceSink(&sink);
  const PlanRequest first =
      PlanRequest::FromCoflow(trace.coflows[0], Gbps(1), 0.0);
  const PlanRequest second =
      PlanRequest::FromCoflow(trace.coflows[1], Gbps(1), 0.0);
  planner.ScheduleAll({&first, &second});
  EXPECT_EQ(Violations(sink.events(), AuditDemandOf(trace, Config())),
            kClean);
}

TEST(Driver, EstablishedCircuitSkipsSetup) {
  // A carried-over circuit reserved at plan start pays no δ: its span has
  // zero setup and transmits all 100 MB. The trace holds the circuit's
  // prior span (coflow 0's, up until t = 0), as a replay trace holds the
  // previous replan's, and that span pays the trace's one δ.
  const Trace trace{4, {Coflow(1, 0, {{0, 1, MB(100)}})}};
  obs::MemorySink sink;
  sink.OnEvent(Span(0, 0, 1, -1.0, 1.0, Config().delta));
  SunflowPlanner planner(4, Config());
  planner.SetTraceSink(&sink);
  planner.SetEstablishedCircuits({{0, 1}}, 0.0);
  SunflowSchedule schedule;
  planner.ScheduleOne(PlanRequest::FromCoflow(trace.coflows[0], Gbps(1), 0.0),
                      schedule);
  ASSERT_EQ(planner.prt().reservations().size(), 1u);
  EXPECT_DOUBLE_EQ(planner.prt().reservations()[0].setup, 0.0);
  const obs::AuditDemand demand = AuditDemandOf(trace, Config());
  EXPECT_EQ(Violations(sink.events(), demand, /*expected_setups=*/1), kClean);
  // Without the prior span the zero setup claims a circuit nothing set up.
  const std::vector<Event> plan_only(sink.events().begin() + 1,
                                     sink.events().end());
  EXPECT_TRUE(Names(Violations(plan_only, demand), "delta-carryover"));
}

}  // namespace
}  // namespace sunflow
