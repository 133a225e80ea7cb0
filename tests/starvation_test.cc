#include <gtest/gtest.h>

#include "core/policy.h"
#include "core/starvation.h"
#include "sim/engine/scenario.h"

namespace sunflow {
namespace {

StarvationGuardConfig Guard(Time big = 1.0, Time small_iv = 0.1) {
  StarvationGuardConfig g;
  g.big_interval = big;
  g.small_interval = small_iv;
  return g;
}

engine::EngineResult RunGuarded(const Trace& trace,
                                const PriorityPolicy& policy,
                                const StarvationGuardConfig& guard) {
  engine::EngineConfig config;
  config.sunflow.bandwidth = Gbps(1);
  config.sunflow.delta = Millis(10);
  config.guard = guard;
  return engine::ScenarioRegistry::Global().Run("guarded", trace, &policy,
                                                config);
}

// An adversarial stream: high-priority (class 0) coflows on ports (0 -> 1)
// arriving continuously, plus one low-priority (class 1) victim on the same
// ports.
Trace AdversarialTrace(int attackers, Bytes attacker_bytes,
                       Bytes victim_bytes) {
  Trace trace;
  trace.num_ports = 3;
  for (int k = 0; k < attackers; ++k) {
    trace.coflows.push_back(
        Coflow(k + 1, 0.4 * k, {{0, 1, attacker_bytes}}));
  }
  trace.coflows.push_back(Coflow(1000, 0.0, {{0, 1, victim_bytes}}));
  std::sort(trace.coflows.begin(), trace.coflows.end(),
            [](const Coflow& a, const Coflow& b) {
              return a.arrival() < b.arrival();
            });
  return trace;
}

std::unique_ptr<PriorityPolicy> VictimLastPolicy() {
  // Coflow 1000 is the regular user; everyone else is privileged.
  return MakeClassPolicy({{1000, 1}}, /*default_class=*/0);
}

TEST(StarvationGuard, VictimCompletesDespiteAdversary) {
  // 60 attackers, each with 440 ms of demand arriving every 400 ms: the
  // shared port stays oversubscribed by privileged coflows, so the victim
  // never wins priority during T spans and drains only during tau spans.
  const Trace trace = AdversarialTrace(60, MB(55), MB(40));
  const auto policy = VictimLastPolicy();
  const auto result = RunGuarded(trace, *policy, Guard());
  EXPECT_EQ(result.cct.size(), trace.coflows.size());
  EXPECT_GT(result.cct.at(1000), 0.0);
}

TEST(StarvationGuard, ServiceGapBoundedByNPeriod) {
  const Trace trace = AdversarialTrace(60, MB(55), MB(40));
  const auto policy = VictimLastPolicy();
  const StarvationGuardConfig guard = Guard();
  const auto result = RunGuarded(trace, *policy, guard);
  const StarvationGuardTimeline timeline(guard, trace.num_ports);
  // §4.2: all coflows receive non-zero service in every N(T+tau) window.
  EXPECT_LE(result.max_service_gap.at(1000),
            timeline.MaxServiceGap() + kTimeEps);
}

TEST(StarvationGuard, UncontendedCoflowUnharmed) {
  // Without contention the guard only inserts tau pauses; a small coflow
  // finishes within one T span at full speed.
  Trace trace;
  trace.num_ports = 3;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(20)}}));
  const auto policy = MakeShortestFirstPolicy();
  const auto result = RunGuarded(trace, *policy, Guard());
  EXPECT_NEAR(result.cct.at(1), Millis(10) + MB(20) / Gbps(1), 1e-6);
}

TEST(StarvationGuard, TauSharingSplitsBandwidth) {
  // Two coflows with demand on the same Phi circuit share B during tau.
  // Make everything happen inside tau: arrivals at the start of the first
  // tau span.
  StarvationGuardConfig guard = Guard(0.5, 0.2);
  Trace trace;
  trace.num_ports = 2;
  // Arrive right at the tau start (t = 0.5). A_0 connects 0->0 and 1->1.
  trace.coflows.push_back(Coflow(1, 0.5, {{0, 0, MB(2)}}));
  trace.coflows.push_back(Coflow(2, 0.5, {{0, 0, MB(2)}}));
  const auto policy = VictimLastPolicy();  // both privileged by default
  const auto result = RunGuarded(trace, *policy, guard);
  // Both complete; shared bandwidth during tau means the first finisher
  // needed at least 2 * bytes / B after the tau setup.
  EXPECT_EQ(result.cct.size(), 2u);
}

TEST(StarvationGuard, RequiresTauAboveDelta) {
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(1)}}));
  const auto policy = MakeShortestFirstPolicy();
  StarvationGuardConfig bad = Guard(1.0, 0.001);  // tau < delta
  EXPECT_THROW(RunGuarded(trace, *policy, bad), CheckFailure);
}

}  // namespace
}  // namespace sunflow
