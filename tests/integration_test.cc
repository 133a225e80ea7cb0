// End-to-end checks that reproduce the paper's headline claims in
// miniature: Sunflow near the circuit lower bound and ahead of Solstice at
// δ = 10 ms, optimal switching counts, and inter-Coflow parity with packet
// scheduling under load.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "exp/classify.h"
#include "exp/inter_runner.h"
#include "exp/intra_runner.h"
#include "trace/generator.h"
#include "trace/idleness.h"

namespace sunflow::exp {
namespace {

using sunflow::stats::Mean;

Trace SmallTrace(int coflows = 60, PortId ports = 30) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = coflows;
  cfg.num_ports = ports;
  return PerturbFlowSizes(GenerateSyntheticTrace(cfg), 0.05, MB(1), 5);
}

TEST(Integration, SunflowNearOptimalOnTrace) {
  const Trace trace = SmallTrace();
  IntraRunConfig cfg;
  const auto result = RunIntra(trace, IntraAlgorithm::kSunflow, cfg);
  const auto ratios =
      result.Collect([](const IntraRecord& r) { return r.CctOverTcl(); });
  // Paper: 1.03x mean, always < 2.
  EXPECT_LT(Mean(ratios), 1.25);
  for (double r : ratios) {
    EXPECT_GE(r, 1.0 - 1e-9);
    EXPECT_LT(r, 2.0);
  }
}

TEST(Integration, SunflowBeatsSolsticeAtTenMs) {
  const Trace trace = SmallTrace(40, 20);
  IntraRunConfig cfg;
  const auto sunflow_run = RunIntra(trace, IntraAlgorithm::kSunflow, cfg);
  const auto solstice_run = RunIntra(trace, IntraAlgorithm::kSolstice, cfg);
  const auto sr = sunflow_run.Collect(
      [](const IntraRecord& r) { return r.CctOverTcl(); });
  const auto or_ = solstice_run.Collect(
      [](const IntraRecord& r) { return r.CctOverTcl(); });
  EXPECT_LT(Mean(sr), Mean(or_));
}

TEST(Integration, SunflowSwitchingCountIsOptimal) {
  const Trace trace = SmallTrace(40, 20);
  IntraRunConfig cfg;
  const auto run = RunIntra(trace, IntraAlgorithm::kSunflow, cfg);
  for (const auto& rec : run.records) {
    EXPECT_EQ(rec.switching_count, static_cast<int>(rec.num_flows));
  }
}

TEST(Integration, SolsticeSwitchingExceedsMinimumOnM2M) {
  const Trace trace = SmallTrace(40, 20);
  IntraRunConfig cfg;
  const auto run = RunIntra(trace, IntraAlgorithm::kSolstice, cfg);
  double total_norm = 0;
  int m2m = 0;
  for (const auto& rec : run.records) {
    if (rec.category != CoflowCategory::kManyToMany) continue;
    total_norm += rec.NormalizedSwitching();
    ++m2m;
  }
  ASSERT_GT(m2m, 0);
  EXPECT_GT(total_norm / m2m, 1.0);
}

TEST(Integration, OneSidedCoflowsHitLowerBoundForBothAlgorithms) {
  // O2O, O2M, M2O coflows: Sunflow achieves exactly TcL (paper §5.3.1).
  const Trace trace = SmallTrace(80, 30);
  IntraRunConfig cfg;
  const auto run = RunIntra(trace, IntraAlgorithm::kSunflow, cfg);
  for (const auto& rec : run.records) {
    if (rec.category == CoflowCategory::kManyToMany) continue;
    EXPECT_NEAR(rec.CctOverTcl(), 1.0, 1e-6)
        << "coflow " << rec.id << " " << ToString(rec.category);
  }
}

TEST(Integration, DeltaSensitivityMonotone) {
  // Smaller delta can only help Sunflow (same ordering, less overhead).
  const Trace trace = SmallTrace(30, 15);
  std::vector<double> means;
  for (Time delta : {Millis(100), Millis(10), Millis(1)}) {
    IntraRunConfig cfg;
    cfg.delta = delta;
    const auto run = RunIntra(trace, IntraAlgorithm::kSunflow, cfg);
    const auto ccts =
        run.Collect([](const IntraRecord& r) { return r.cct; });
    means.push_back(Mean(ccts));
  }
  EXPECT_GT(means[0], means[1]);
  EXPECT_GE(means[1], means[2]);
}

TEST(Integration, LongCoflowSplit) {
  const Trace trace = SmallTrace();
  IntraRunConfig cfg;
  const auto run = RunIntra(trace, IntraAlgorithm::kSunflow, cfg);
  int long_count = 0;
  for (const auto& rec : run.records)
    if (IsLongCoflow(rec, cfg.delta)) ++long_count;
  EXPECT_GT(long_count, 0);
  EXPECT_LT(long_count, static_cast<int>(run.records.size()));
}

TEST(Integration, InterComparisonRunsEndToEnd) {
  SyntheticTraceConfig tc;
  tc.num_coflows = 30;
  tc.num_ports = 12;
  const Trace trace = GenerateSyntheticTrace(tc);
  InterRunConfig cfg;
  const auto cmp = RunInterComparison(trace, cfg);
  EXPECT_EQ(cmp.sunflow.size(), trace.coflows.size());
  EXPECT_EQ(cmp.varys.size(), trace.coflows.size());
  EXPECT_EQ(cmp.aalo.size(), trace.coflows.size());
  // Every scheme respects the packet lower bound; Sunflow respects the
  // circuit one implicitly (checked elsewhere).
  for (const auto& [id, tpl] : cmp.tpl) {
    EXPECT_GE(cmp.varys.at(id), tpl - 1e-6);
    EXPECT_GE(cmp.aalo.at(id), tpl - 1e-6);
    EXPECT_GE(cmp.sunflow.at(id), tpl - 1e-6);
  }
}

TEST(Integration, SunflowComparableToVarysUnderLoad) {
  // §5.4: at modest idleness, Sunflow's average CCT is close to Varys'.
  SyntheticTraceConfig tc;
  tc.num_coflows = 40;
  tc.num_ports = 15;
  const Trace base = GenerateSyntheticTrace(tc);
  const auto scaled = ScaleTraceToIdleness(base, Gbps(1), 0.2, 0.02);
  InterRunConfig cfg;
  const auto cmp = RunInterComparison(scaled.trace, cfg);
  const double ratio = cmp.AvgCct(cmp.sunflow) / cmp.AvgCct(cmp.varys);
  // The paper reports 0.98-1.01x at 12-40% idleness; allow generous slack
  // for the synthetic trace.
  EXPECT_LT(ratio, 2.0);
  EXPECT_GT(ratio, 0.5);
}

}  // namespace
}  // namespace sunflow::exp
