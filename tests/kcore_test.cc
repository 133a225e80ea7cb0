// K-core OCS fabric: the per-core assignment layer (sched/kcore.h), the
// per-core "kcore" engine scenario, and the K=1 equivalence contract — with
// an empty fabric (or an explicit single full-rate plane) the per-core
// baseline must reproduce the classic "circuit" scenario exactly, and on
// K>1 fabrics every emitted trace, joint ("circuit") or per-core, must
// audit clean against its demand (per-plane port exclusivity and δ, every
// byte served).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/fabric.h"
#include "core/policy.h"
#include "obs/audit.h"
#include "obs/trace_sink.h"
#include "sched/kcore.h"
#include "sim/engine/scenario.h"
#include "trace/coflow.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

PlanRequest Request(CoflowId id, std::vector<FlowDemand> demand) {
  PlanRequest r;
  r.coflow = id;
  r.demand = std::move(demand);
  return r;
}

std::vector<const PlanRequest*> Pointers(
    const std::vector<PlanRequest>& requests) {
  std::vector<const PlanRequest*> out;
  for (const PlanRequest& r : requests) out.push_back(&r);
  return out;
}

TEST(KCoreAssignment, BottleneckIsMaxPortRowOrColumnSum) {
  // Port 0 sends 3 + 4 = 7 seconds of work; every other row/column sums
  // lower, so 7 is the single-core lower bound.
  const PlanRequest r = Request(
      1, {{0, 1, 3.0}, {0, 2, 4.0}, {3, 1, 2.0}});
  EXPECT_DOUBLE_EQ(BottleneckProcessing(r), 7.0);
}

TEST(KCoreAssignment, ShortestFirstOntoLeastLoadedCore) {
  // Uniform K=2: sizes 1, 2, 3 place as 1→core0, 2→core1, 3→core0
  // (loads 0/0 → 1/0 → 1/2 → 4/2).
  const std::vector<PlanRequest> requests = {
      Request(10, {{0, 1, 3.0}}),
      Request(11, {{2, 3, 1.0}}),
      Request(12, {{4, 5, 2.0}}),
  };
  const Bandwidth bandwidth = Gbps(1);
  const auto assignment = AssignCoflowsToCores(
      Pointers(requests), FabricSpec::Uniform(2, 0.01, bandwidth).planes,
      bandwidth);
  EXPECT_EQ(assignment.order, (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_EQ(assignment.plane_of, (std::vector<PlaneId>{0, 0, 1}));
  EXPECT_DOUBLE_EQ(assignment.plane_load[0], 4.0);
  EXPECT_DOUBLE_EQ(assignment.plane_load[1], 2.0);
}

TEST(KCoreAssignment, SlowCoreAbsorbsLessWork) {
  // Plane 0 at rate B, plane 1 at rate B/4: the same coflow costs 4x the
  // seconds on the slow core, so the greedy keeps feeding the fast one
  // until it has genuinely absorbed 4 units per slow unit.
  std::vector<PlanRequest> requests;
  for (int i = 0; i < 5; ++i) {
    requests.push_back(Request(i, {{0, 1, 1.0}}));
  }
  const Bandwidth bandwidth = Gbps(1);
  const std::vector<PlaneSpec> planes = {{0.01, bandwidth},
                                         {0.01, bandwidth / 4}};
  const auto assignment =
      AssignCoflowsToCores(Pointers(requests), planes, bandwidth);
  const auto slow = std::count(assignment.plane_of.begin(),
                               assignment.plane_of.end(), PlaneId{1});
  EXPECT_EQ(slow, 1);  // only the 4th unit ties the fast core's 4 seconds
}

TEST(KCoreAssignment, DeterministicUnderTies) {
  // Identical coflows: ties break by coflow id, planes by lower id, so
  // the assignment is a pure function of the request list.
  std::vector<PlanRequest> requests;
  for (int i = 0; i < 6; ++i) {
    requests.push_back(Request(100 + i, {{i, i + 1, 2.0}}));
  }
  const Bandwidth bandwidth = Gbps(1);
  const auto planes = FabricSpec::Uniform(3, 0.01, bandwidth).planes;
  const auto a = AssignCoflowsToCores(Pointers(requests), planes, bandwidth);
  const auto b = AssignCoflowsToCores(Pointers(requests), planes, bandwidth);
  EXPECT_EQ(a.plane_of, b.plane_of);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.plane_of, (std::vector<PlaneId>{0, 1, 2, 0, 1, 2}));
}

// ---- the "kcore" engine scenario ----------------------------------------

Trace SmallTrace() {
  Trace trace;
  trace.num_ports = 6;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(120)}, {1, 2, MB(60)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{0, 1, MB(40)}}));
  trace.coflows.push_back(Coflow(3, 0.3, {{3, 4, MB(200)}, {4, 5, MB(80)}}));
  trace.coflows.push_back(Coflow(4, 0.9, {{2, 0, MB(90)}}));
  return trace;
}

engine::EngineConfig BaseConfig() {
  engine::EngineConfig ec;
  ec.sunflow.bandwidth = Gbps(1);
  ec.sunflow.delta = Millis(10);
  return ec;
}

TEST(KCoreScenario, IsRegistered) {
  EXPECT_TRUE(engine::ScenarioRegistry::Global().Has("kcore"));
}

TEST(KCoreScenario, PerCoreOnOnePlaneMatchesCircuitExactly) {
  // The K=1 equivalence contract, engine side: on one plane the per-core
  // baseline pins every coflow to core 0 in priority order and plans it on
  // a Uniform(1, δ, B) planner, which is the joint planner. So "kcore" must
  // reproduce "circuit" exactly, not merely closely, on the empty fabric
  // and on an explicit single plane, through replans that carry circuits.
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 40;
  cfg.num_ports = 16;
  const Trace trace =
      PerturbFlowSizes(GenerateSyntheticTrace(cfg), 0.05, MB(1), cfg.seed + 1);
  const auto policy = MakeShortestFirstPolicy();
  const auto& registry = engine::ScenarioRegistry::Global();
  const auto circuit =
      registry.Run("circuit", trace, policy.get(), BaseConfig());
  engine::EngineConfig no_carry = BaseConfig();
  no_carry.carry_over_circuits = false;
  EXPECT_NE(registry.Run("circuit", trace, policy.get(), no_carry).cct,
            circuit.cct)
      << "no circuit is carried across a replan";

  engine::EngineConfig explicit_one = BaseConfig();
  explicit_one.sunflow.fabric = FabricSpec::Uniform(
      1, explicit_one.sunflow.delta, explicit_one.sunflow.bandwidth);
  for (const engine::EngineConfig& ec : {BaseConfig(), explicit_one}) {
    const auto kcore = registry.Run("kcore", trace, policy.get(), ec);
    EXPECT_EQ(kcore.cct, circuit.cct);
    EXPECT_EQ(kcore.completion, circuit.completion);
    EXPECT_EQ(kcore.reservations, circuit.reservations);
    EXPECT_EQ(kcore.makespan, circuit.makespan);
    EXPECT_EQ(kcore.replans, circuit.replans);
  }
}

TEST(KCoreScenario, ExplicitSinglePlaneMatchesDefaultFabric) {
  // FabricSpec::Uniform(1, δ, B) resolves to the same plane the empty
  // fabric defaults to, on both the joint and the per-core path.
  const Trace trace = SmallTrace();
  const auto policy = MakeShortestFirstPolicy();
  for (const char* scenario : {"circuit", "kcore"}) {
    const engine::EngineConfig base = BaseConfig();
    engine::EngineConfig explicit_one = base;
    explicit_one.sunflow.fabric =
        FabricSpec::Uniform(1, base.sunflow.delta, base.sunflow.bandwidth);
    const auto a = engine::ScenarioRegistry::Global().Run(scenario, trace,
                                                          policy.get(), base);
    const auto b = engine::ScenarioRegistry::Global().Run(
        scenario, trace, policy.get(), explicit_one);
    ASSERT_EQ(a.cct.size(), b.cct.size());
    for (const auto& [id, cct] : a.cct) {
      EXPECT_EQ(cct, b.cct.at(id)) << "coflow " << id << " " << scenario;
    }
  }
}

TEST(KCoreScenario, PerCoreUsesAllPlanesAndAuditsClean) {
  const Trace trace = SmallTrace();
  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec = BaseConfig();
  ec.sunflow.fabric =
      FabricSpec::Uniform(2, ec.sunflow.delta, ec.sunflow.bandwidth);
  obs::MemorySink sink;
  ec.sink = &sink;
  const auto result =
      engine::ScenarioRegistry::Global().Run("kcore", trace, policy.get(), ec);
  EXPECT_EQ(result.cct.size(), trace.coflows.size());

  std::set<PlaneId> planes_seen;
  for (const obs::Event& e : sink.events()) {
    if (e.type == obs::EventType::kCircuitSetup) planes_seen.insert(e.plane);
    EXPECT_GE(e.plane, 0);
    EXPECT_LT(e.plane, 2);
  }
  // Disjoint port sets and comparable sizes: the least-loaded greedy must
  // actually spread the coflows over both cores.
  EXPECT_EQ(planes_seen, (std::set<PlaneId>{0, 1}));

  const obs::AuditDemand demand = AuditDemandOf(trace, ec.sunflow);
  const obs::AuditReport audit = obs::AuditTrace(
      sink.events(), -1, obs::AuditScope::kSharedFabric, &demand);
  for (const auto& v : audit.violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
}

TEST(KCoreScenario, JointMultiPlaneAuditsCleanAndBeatsSplitPerCore) {
  // K=2 with the aggregate bandwidth split B/2 per plane. Joint planning
  // ("circuit") may interleave every coflow across both planes; the
  // per-core baseline ("kcore") pins each coflow to one half-rate core, so
  // its total CCT can only be worse or equal. Both traces must be
  // physically consistent per plane.
  const Trace trace = SmallTrace();
  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec = BaseConfig();
  ec.sunflow.fabric =
      FabricSpec::Uniform(2, ec.sunflow.delta, ec.sunflow.bandwidth / 2);

  double totals[2] = {0, 0};
  for (const bool joint : {true, false}) {
    obs::MemorySink sink;
    ec.sink = &sink;
    const auto result = engine::ScenarioRegistry::Global().Run(
        joint ? "circuit" : "kcore", trace, policy.get(), ec);
    EXPECT_EQ(result.cct.size(), trace.coflows.size());
    for (const auto& [id, cct] : result.cct) totals[joint ? 0 : 1] += cct;
    const obs::AuditDemand demand = AuditDemandOf(trace, ec.sunflow);
    const obs::AuditReport audit = obs::AuditTrace(
        sink.events(), -1, obs::AuditScope::kSharedFabric, &demand);
    for (const auto& v : audit.violations) {
      ADD_FAILURE() << "joint=" << joint << " [" << v.invariant << "] "
                    << v.detail;
    }
  }
  EXPECT_LE(totals[0], totals[1] + kTimeEps);
}

TEST(KCoreScenario, TwoFullRatePlanesRemoveCrossCoflowContention) {
  // Two identical coflows fighting over the same port pair: on one plane
  // the loser waits a full circuit; on two full-rate planes the per-core
  // baseline puts them on separate cores and both finish like solo runs.
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(100)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{0, 1, MB(100)}}));
  const Time solo = Millis(10) + MB(100) / Gbps(1);

  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec = BaseConfig();
  ec.sunflow.fabric =
      FabricSpec::Uniform(2, ec.sunflow.delta, ec.sunflow.bandwidth);
  const auto result =
      engine::ScenarioRegistry::Global().Run("kcore", trace, policy.get(), ec);
  EXPECT_NEAR(result.cct.at(1), solo, 1e-9);
  EXPECT_NEAR(result.cct.at(2), solo, 1e-9);

  engine::EngineConfig one_plane = BaseConfig();
  const auto serial = engine::ScenarioRegistry::Global().Run(
      "circuit", trace, policy.get(), one_plane);
  EXPECT_GT(serial.cct.at(1) + serial.cct.at(2),
            result.cct.at(1) + result.cct.at(2) + solo / 2);
}

}  // namespace
}  // namespace sunflow
