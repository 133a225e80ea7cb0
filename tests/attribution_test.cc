// Causal CCT attribution (obs/attribution.h) and trace auditing
// (obs/audit.h) on a hand-built two-coflow trace whose decomposition is
// known in closed form:
//
//   coflow 2: admitted at 0, circuit 0->5 up over [0, 2) with a 0.25 s
//             setup prefix, finishes at 2.            cct = 2.0
//   coflow 1: admitted at 1.0, blocked behind coflow 2 on input port 0
//             over [1, 2), then a circuit 0->1 over [2, 4) with a 0.25 s
//             setup prefix.                           cct = 3.0
//
// so coflow 1 must decompose into contention 1.0 (blaming coflow 2) +
// δ 0.25 + transmit 1.75, with nothing unattributed — and the
// same trace must pass the physical audit, while corrupted variants fail
// it with the right invariant named.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/attribution.h"
#include "obs/audit.h"
#include "obs/event.h"

namespace sunflow {
namespace {

using obs::Event;
using obs::EventType;

constexpr auto kInBusy =
    static_cast<std::int64_t>(obs::BlockReason::kInputPortBusy);

std::vector<Event> HandBuiltTrace() {
  return {
      {.type = EventType::kCoflowAdmitted, .t = 0.0, .coflow = 2},
      {.type = EventType::kCircuitSetup, .t = 0.0, .dur = 2.0, .coflow = 2,
       .in = 0, .out = 5, .value = 0.25},
      {.type = EventType::kCoflowAdmitted, .t = 1.0, .coflow = 1},
      {.type = EventType::kFlowBlocked, .t = 1.0, .coflow = 1, .in = 0,
       .out = 1, .value = 2.0, .count = kInBusy},
      {.type = EventType::kFlowUnblocked, .t = 2.0, .dur = 1.0, .coflow = 1,
       .in = 0, .out = 1, .value = 2.0, .count = kInBusy},
      {.type = EventType::kFlowFinished, .t = 2.0, .coflow = 2, .in = 0,
       .out = 5},
      {.type = EventType::kCircuitTeardown, .t = 2.0, .coflow = 2, .in = 0,
       .out = 5},
      {.type = EventType::kCoflowCompleted, .t = 2.0, .coflow = 2,
       .value = 2.0},
      {.type = EventType::kCircuitSetup, .t = 2.0, .dur = 2.0, .coflow = 1,
       .in = 0, .out = 1, .value = 0.25},
      {.type = EventType::kFlowFinished, .t = 4.0, .coflow = 1, .in = 0,
       .out = 1},
      {.type = EventType::kCircuitTeardown, .t = 4.0, .coflow = 1, .in = 0,
       .out = 1},
      {.type = EventType::kCoflowCompleted, .t = 4.0, .coflow = 1,
       .value = 3.0},
  };
}

const obs::CoflowAttribution* RowOf(const obs::AttributionReport& report,
                                    CoflowId id) {
  for (const auto& a : report.coflows)
    if (a.coflow == id) return &a;
  return nullptr;
}

TEST(Attribution, ComponentsSumToMeasuredCct) {
  const auto events = HandBuiltTrace();
  const obs::AttributionReport report = obs::Attribute(events);
  ASSERT_EQ(report.coflows.size(), 2u);
  for (const auto& a : report.coflows) {
    EXPECT_NEAR(a.Sum(), a.cct, 1e-9) << "coflow " << a.coflow;
  }

  const obs::CoflowAttribution* c1 = RowOf(report, 1);
  ASSERT_NE(c1, nullptr);
  EXPECT_NEAR(c1->cct, 3.0, 1e-12);
  EXPECT_NEAR(c1->contention, 1.0, 1e-12);
  EXPECT_NEAR(c1->delta, 0.25, 1e-12);
  EXPECT_NEAR(c1->transmit, 1.75, 1e-12);
  EXPECT_NEAR(c1->starvation_hold, 0.0, 1e-12);
  EXPECT_NEAR(c1->unattributed, 0.0, 1e-12);

  const obs::CoflowAttribution* c2 = RowOf(report, 2);
  ASSERT_NE(c2, nullptr);
  EXPECT_NEAR(c2->cct, 2.0, 1e-12);
  EXPECT_NEAR(c2->delta, 0.25, 1e-12);
  EXPECT_NEAR(c2->transmit, 1.75, 1e-12);
  EXPECT_NEAR(c2->contention, 0.0, 1e-12);
}

TEST(Attribution, ContentionBlamesTheHoldingCoflow) {
  const auto events = HandBuiltTrace();
  const obs::AttributionReport report = obs::Attribute(events);
  const obs::CoflowAttribution* c1 = RowOf(report, 1);
  ASSERT_NE(c1, nullptr);
  ASSERT_EQ(c1->by_blamer.size(), 1u);
  EXPECT_EQ(c1->by_blamer[0].blamer, 2);
  EXPECT_NEAR(c1->by_blamer[0].seconds, 1.0, 1e-12);
}

TEST(Attribution, AggregateFractionsShareTotalCct) {
  const auto events = HandBuiltTrace();
  const obs::AttributionReport report = obs::Attribute(events);
  EXPECT_NEAR(report.total_cct, 5.0, 1e-12);
  EXPECT_NEAR(report.delta_fraction, 0.5 / 5.0, 1e-12);
  EXPECT_NEAR(report.contention_fraction, 1.0 / 5.0, 1e-12);
  EXPECT_NEAR(report.transmit_fraction, 3.5 / 5.0, 1e-12);
  EXPECT_NEAR(report.unattributed_fraction, 0.0, 1e-12);
}

TEST(Attribution, CriticalPathWalksBackFromCompletion) {
  const auto events = HandBuiltTrace();
  const obs::AttributionReport report = obs::Attribute(events);
  // Largest CCT wins the critical-path slot.
  EXPECT_EQ(report.critical_coflow, 1);
  ASSERT_FALSE(report.critical_path.empty());
  // Completion-first: the walk starts at t = 4 on the transmitting flow,
  // crosses its δ prefix, and ends on the blocked episode behind coflow 2.
  EXPECT_EQ(report.critical_path.front().kind,
            obs::CriticalPathStep::Kind::kTransmit);
  EXPECT_NEAR(report.critical_path.front().end, 4.0, 1e-12);
  bool saw_delta = false, saw_blocked = false;
  for (const auto& step : report.critical_path) {
    if (step.kind == obs::CriticalPathStep::Kind::kDelta) saw_delta = true;
    if (step.kind == obs::CriticalPathStep::Kind::kBlocked) {
      saw_blocked = true;
      EXPECT_EQ(step.blamer, 2);
      EXPECT_EQ(step.reason, obs::BlockReason::kInputPortBusy);
    }
  }
  EXPECT_TRUE(saw_delta);
  EXPECT_TRUE(saw_blocked);
}

TEST(Audit, PassesOnConsistentTrace) {
  const auto events = HandBuiltTrace();
  // expected_setups = 2: both circuit spans pay δ.
  const obs::AuditReport report = obs::AuditTrace(events, 2);
  EXPECT_TRUE(report.ok()) << report.violations.size() << " violation(s), "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations[0].detail);
  EXPECT_EQ(report.events, events.size());
  EXPECT_GT(report.checks, 0u);
}

TEST(Audit, FlagsDoubleBookedPort) {
  auto events = HandBuiltTrace();
  // Slide coflow 1's circuit into coflow 2's hold on input port 0.
  for (Event& e : events) {
    if (e.type == EventType::kCircuitSetup && e.coflow == 1) e.t = 1.5;
  }
  const obs::AuditReport report = obs::AuditTrace(events);
  ASSERT_FALSE(report.ok());
  bool named = false;
  for (const auto& v : report.violations) {
    if (v.invariant == "port-exclusivity") named = true;
  }
  EXPECT_TRUE(named);
}

TEST(Audit, FlagsCompletionDisagreeingWithLastFlow) {
  auto events = HandBuiltTrace();
  for (Event& e : events) {
    if (e.type == EventType::kCoflowCompleted && e.coflow == 1) e.t = 3.9;
  }
  const obs::AuditReport report = obs::AuditTrace(events);
  ASSERT_FALSE(report.ok());
  bool named = false;
  for (const auto& v : report.violations) {
    if (v.invariant == "completion") named = true;
  }
  EXPECT_TRUE(named);
}

TEST(Audit, FlagsSetupCountMismatch) {
  const auto events = HandBuiltTrace();
  const obs::AuditReport report = obs::AuditTrace(events, 7);
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].invariant, "setup-count");
}

}  // namespace
}  // namespace sunflow
