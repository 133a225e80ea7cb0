#include <gtest/gtest.h>

#include <string>

#include "core/policy.h"
#include "sim/dag_replay.h"
#include "sim/engine/scenario.h"
#include "trace/bounds.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

engine::EngineConfig Config() {
  engine::EngineConfig c;
  c.sunflow.bandwidth = Gbps(1);
  c.sunflow.delta = Millis(10);
  return c;
}

// A DAG replay measures CCT from each coflow's release.
Time ReleaseOf(const engine::EngineResult& result, CoflowId id) {
  return result.completion.at(id) - result.cct.at(id);
}

engine::EngineResult RunScenario(const std::string& scenario,
                                 const Trace& trace,
                                 const engine::EngineConfig& config) {
  const auto policy = MakeShortestFirstPolicy();
  return engine::ScenarioRegistry::Global().Run(scenario, trace, policy.get(),
                                                config);
}

// A two-stage map-reduce-merge job: stage-1 shuffle then a dependent
// aggregation coflow.
Trace TwoStageTrace() {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(
      Coflow(1, 0.0, {{0, 2, MB(100)}, {1, 2, MB(50)}}));  // stage 0
  trace.coflows.push_back(Coflow(2, 0.0, {{2, 3, MB(80)}}));  // stage 1
  return trace;
}

TEST(Dag, StageOfComputesTopologicalDepth) {
  const Trace trace = TwoStageTrace();
  CoflowDag dag;
  dag.AddDependency(2, 1);
  const auto stage = dag.StageOf(trace);
  EXPECT_EQ(stage.at(1), 0);
  EXPECT_EQ(stage.at(2), 1);
}

TEST(Dag, CycleDetected) {
  const Trace trace = TwoStageTrace();
  CoflowDag dag;
  dag.AddDependency(2, 1);
  dag.AddDependency(1, 2);
  EXPECT_THROW(dag.StageOf(trace), CheckFailure);
}

TEST(Dag, UnknownIdRejected) {
  const Trace trace = TwoStageTrace();
  CoflowDag dag;
  dag.AddDependency(2, 99);
  EXPECT_THROW(dag.StageOf(trace), CheckFailure);
}

TEST(Dag, DependentReleasesOnCompletion) {
  const Trace trace = TwoStageTrace();
  CoflowDag dag;
  dag.AddDependency(2, 1);
  const auto policy = MakeStagePolicy(dag.StageOf(trace));
  const auto result = ReplayDagTrace(trace, dag, *policy, Config());

  // Stage 0: two flows into out.2, serialized: 2δ + 1.2 s.
  const Time stage0 = 2 * Millis(10) + MB(150) / Gbps(1);
  EXPECT_NEAR(result.completion.at(1), stage0, 1e-9);
  // Stage 1 released exactly at stage 0's completion.
  EXPECT_NEAR(ReleaseOf(result, 2), stage0, 1e-9);
  EXPECT_NEAR(result.completion.at(2),
              stage0 + Millis(10) + MB(80) / Gbps(1), 1e-9);
  EXPECT_NEAR(result.makespan, result.completion.at(2), 1e-9);  // job span
}

TEST(Dag, DiamondDependencies) {
  Trace trace;
  trace.num_ports = 6;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(40)}}));  // root
  trace.coflows.push_back(Coflow(2, 0.0, {{2, 3, MB(40)}}));  // branch A
  trace.coflows.push_back(Coflow(3, 0.0, {{4, 5, MB(60)}}));  // branch B
  trace.coflows.push_back(Coflow(4, 0.0, {{0, 5, MB(20)}}));  // join
  CoflowDag dag;
  dag.AddDependency(2, 1);
  dag.AddDependency(3, 1);
  dag.AddDependency(4, 2);
  dag.AddDependency(4, 3);
  const auto policy = MakeStagePolicy(dag.StageOf(trace));
  const auto result = ReplayDagTrace(trace, dag, *policy, Config());
  // The join releases when the slower branch (B) finishes.
  EXPECT_NEAR(ReleaseOf(result, 4),
              std::max(result.completion.at(2), result.completion.at(3)),
              1e-9);
  EXPECT_EQ(result.cct.size(), 4u);
}

TEST(Dag, NominalArrivalStillRespected) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(10)}}));
  // Dependent whose own data is only ready at t = 5 s.
  trace.coflows.push_back(Coflow(2, 5.0, {{2, 3, MB(10)}}));
  CoflowDag dag;
  dag.AddDependency(2, 1);
  const auto policy = MakeStagePolicy(dag.StageOf(trace));
  const auto result = ReplayDagTrace(trace, dag, *policy, Config());
  EXPECT_NEAR(ReleaseOf(result, 2), 5.0, 1e-9);
}

TEST(Dag, ReleaseInterleavesWithFutureArrivals) {
  // A dependent stage is released *before* an already-pending future
  // arrival: the engine must re-sort its pending queue, not process the
  // later arrival first.
  Trace trace;
  trace.num_ports = 6;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(10)}}));   // root
  trace.coflows.push_back(Coflow(2, 0.0, {{2, 3, MB(10)}}));   // dependent
  trace.coflows.push_back(Coflow(3, 10.0, {{4, 5, MB(10)}}));  // late
  CoflowDag dag;
  dag.AddDependency(2, 1);
  const auto policy = MakeStagePolicy(dag.StageOf(trace));
  const auto result = ReplayDagTrace(trace, dag, *policy, Config());
  // Coflow 2 released at coflow 1's completion (~0.09 s), long before 10 s.
  EXPECT_LT(ReleaseOf(result, 2), 1.0);
  EXPECT_LT(result.completion.at(2), 1.0);
  EXPECT_NEAR(ReleaseOf(result, 3), 10.0, 1e-9);
}

TEST(Dag, EarlierStagePolicyBeatsScfForUpstream) {
  // A big stage-0 coflow vs a small independent coflow: SCF would preempt
  // the big one, the stage policy must not (stage 0 beats stage 0 by SCF
  // within stage — so give the small one a later stage).
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(500)}}));
  trace.coflows.push_back(Coflow(2, 0.1, {{0, 1, MB(5)}}));
  CoflowDag dag;  // no dependencies, but coflow 2 is marked later-stage
  const auto policy = MakeStagePolicy({{1, 0}, {2, 1}});
  const auto result = ReplayDagTrace(trace, dag, *policy, Config());
  // Coflow 1 must be unharmed by coflow 2's arrival (earlier stage first).
  EXPECT_NEAR(result.completion.at(1), Millis(10) + MB(500) / Gbps(1), 1e-9);
}

TEST(Hybrid, SplitsByThreshold) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(5)}}));    // offloaded
  trace.coflows.push_back(Coflow(2, 0.0, {{2, 3, MB(500)}}));  // circuit
  engine::EngineConfig cfg = Config();
  cfg.offload_threshold = MB(10);
  cfg.packet_bandwidth = Gbps(0.1);
  const auto result = RunScenario("hybrid", trace, cfg);
  EXPECT_EQ(result.offloaded, 1u);
  EXPECT_EQ(result.circuit, 1u);
  // Offloaded coflow: no δ, but only a tenth of the bandwidth.
  EXPECT_NEAR(result.cct.at(1), MB(5) / Gbps(0.1), 1e-6);
  EXPECT_NEAR(result.cct.at(2), Millis(10) + MB(500) / Gbps(1), 1e-9);
}

TEST(Hybrid, ShortCoflowsDodgeSetupPenalty) {
  // Many small coflows on shared ports: pure OCS pays δ each; the hybrid
  // serves them on the packet side without setup.
  Trace trace;
  trace.num_ports = 2;
  for (int k = 0; k < 10; ++k)
    trace.coflows.push_back(Coflow(k + 1, 0.05 * k, {{0, 1, MB(1)}}));
  const auto pure = RunScenario("circuit", trace, Config());
  engine::EngineConfig cfg = Config();
  cfg.offload_threshold = MB(2);
  cfg.packet_bandwidth = Gbps(0.5);
  const auto hybrid = RunScenario("hybrid", trace, cfg);

  double pure_avg = 0, hybrid_avg = 0;
  for (const auto& [id, cct] : pure.cct) pure_avg += cct;
  for (const auto& [id, cct] : hybrid.cct) hybrid_avg += cct;
  EXPECT_LT(hybrid_avg, pure_avg);
  EXPECT_EQ(hybrid.offloaded, 10u);
}

TEST(Hybrid, AllCoflowsAccountedFor) {
  SyntheticTraceConfig tc;
  tc.num_coflows = 30;
  tc.num_ports = 12;
  const Trace trace = GenerateSyntheticTrace(tc);
  const auto result = RunScenario("hybrid", trace, Config());
  EXPECT_EQ(result.cct.size(), trace.coflows.size());
  EXPECT_EQ(result.offloaded + result.circuit, trace.coflows.size());
}

}  // namespace
}  // namespace sunflow
