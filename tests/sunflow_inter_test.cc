#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/policy.h"
#include "core/starvation.h"
#include "core/sunflow.h"
#include "obs/trace_sink.h"
#include "trace/bounds.h"

namespace sunflow {
namespace {

SunflowConfig Config() {
  SunflowConfig c;
  c.bandwidth = Gbps(1);
  c.delta = Millis(10);
  return c;
}

// InterCoflow over `requests` in the given order.
SunflowSchedule PlanInOrder(SunflowPlanner& planner,
                            const std::vector<PlanRequest>& requests) {
  std::vector<const PlanRequest*> pointers;
  for (const PlanRequest& r : requests) pointers.push_back(&r);
  return planner.ScheduleAll(pointers);
}

TEST(SunflowInter, HigherPriorityNeverBlocked) {
  // Two coflows competing for the same ports. The one scheduled first must
  // finish exactly as if it were alone.
  const Coflow high(1, 0, {{0, 2, MB(50)}, {1, 2, MB(30)}});
  const Coflow low(2, 0, {{0, 2, MB(100)}, {0, 3, MB(80)}});

  const auto alone = ScheduleSingleCoflow(high, 4, Config());

  SunflowPlanner planner(4, Config());
  const auto combined =
      PlanInOrder(planner, {PlanRequest::FromCoflow(high, Gbps(1), 0.0),
                            PlanRequest::FromCoflow(low, Gbps(1), 0.0)});

  EXPECT_NEAR(combined.completion_time.at(1),
              alone.completion_time.at(1), 1e-9);
  // The low-priority coflow still completes.
  EXPECT_GT(combined.completion_time.at(2), 0.0);
}

TEST(SunflowInter, AddingLowPriorityNeverHurtsAnyHigher) {
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    // Three coflows on overlapping ports.
    std::vector<Coflow> coflows;
    for (int k = 0; k < 3; ++k) {
      std::vector<Flow> flows;
      const int nf = 1 + static_cast<int>(rng.UniformInt(0, 4));
      for (int f = 0; f < nf; ++f) {
        const PortId s = static_cast<PortId>(rng.UniformInt(0, 4));
        const PortId d = static_cast<PortId>(rng.UniformInt(0, 4));
        bool dup = false;
        for (const auto& existing : flows)
          if (existing.src == s && existing.dst == d) dup = true;
        if (!dup) flows.push_back({s, d, MB(rng.Uniform(5, 60))});
      }
      coflows.emplace_back(k + 1, 0.0, std::move(flows));
    }
    // Plan first two, then all three; first two must be unchanged.
    SunflowPlanner p2(5, Config());
    const auto plan2 =
        PlanInOrder(p2, {PlanRequest::FromCoflow(coflows[0], Gbps(1), 0.0),
                         PlanRequest::FromCoflow(coflows[1], Gbps(1), 0.0)});
    SunflowPlanner p3(5, Config());
    const auto plan3 =
        PlanInOrder(p3, {PlanRequest::FromCoflow(coflows[0], Gbps(1), 0.0),
                         PlanRequest::FromCoflow(coflows[1], Gbps(1), 0.0),
                         PlanRequest::FromCoflow(coflows[2], Gbps(1), 0.0)});
    EXPECT_NEAR(plan2.completion_time.at(1), plan3.completion_time.at(1),
                1e-9);
    EXPECT_NEAR(plan2.completion_time.at(2), plan3.completion_time.at(2),
                1e-9);
  }
}

TEST(SunflowInter, PaperFigure2Shape) {
  // Fig 2: C1 = {p(1,6), p(3,6), p(5,6), p(5,7)}, C2 = {p(1,6), p(2,8),
  // p(5,7)}, C3 = {p(1,7)}. C2's reservation on [in.5, out.7] must not
  // delay C1 on [in.5, out.6].
  const Coflow c1(1, 0,
                  {{0, 5, MB(40)}, {2, 5, MB(30)}, {4, 5, MB(50)},
                   {4, 6, MB(20)}});
  const Coflow c2(2, 0, {{0, 5, MB(25)}, {1, 7, MB(35)}, {4, 6, MB(45)}});
  const Coflow c3(3, 0, {{0, 6, MB(15)}});

  const auto c1_alone = ScheduleSingleCoflow(c1, 8, Config());

  SunflowPlanner planner(8, Config());
  obs::MemorySink sink;
  planner.SetTraceSink(&sink);
  const auto plan =
      PlanInOrder(planner, {PlanRequest::FromCoflow(c1, Gbps(1), 0.0),
                            PlanRequest::FromCoflow(c2, Gbps(1), 0.0),
                            PlanRequest::FromCoflow(c3, Gbps(1), 0.0)});

  EXPECT_NEAR(plan.completion_time.at(1), c1_alone.completion_time.at(1),
              1e-9);
  // All three coflows complete with all demand served.
  EXPECT_EQ(sink.CountOf(obs::EventType::kFlowFinished),
            c1.size() + c2.size() + c3.size());
  planner.prt().CheckInvariants();
}

TEST(SunflowInter, LowerPriorityReservationsMaySplit) {
  // A low-priority flow squeezed before a high-priority future reservation
  // on the same port must split (the t_m mechanism, Algorithm 1 line 16).
  // high: long flow on (0 -> 1) and a second flow (2 -> 1) that keeps the
  // output port reserved later; low: flow (2 -> 3) fits before... construct
  // directly: plan high first, then low that shares in.0.
  const Coflow high(1, 0, {{0, 1, MB(50)}, {2, 1, MB(50)}});
  const Coflow low(2, 0, {{2, 3, MB(100)}});
  SunflowPlanner planner(4, Config());
  const auto plan =
      PlanInOrder(planner, {PlanRequest::FromCoflow(high, Gbps(1), 0.0),
                            PlanRequest::FromCoflow(low, Gbps(1), 0.0)});
  // in.2 serves high's (2->1) starting at 0.05+... low (2->3) must wait or
  // fit around it; in either case both complete and the PRT stays valid.
  EXPECT_GT(plan.reservation_count.at(2), 0);
  planner.prt().CheckInvariants();
  // Low-priority completion accounts for waiting behind high.
  EXPECT_GT(plan.completion_time.at(2), MB(100) / Gbps(1));
}

TEST(Policy, ShortestFirstOrdersByRemainingTpl) {
  const auto policy = MakeShortestFirstPolicy();
  std::vector<CoflowView> views = {
      {1, 0.0, 5.0, 5.0, MB(100), 4},
      {2, 1.0, 2.0, 2.0, MB(50), 2},
      {3, 2.0, 9.0, 9.0, MB(200), 8},
  };
  const auto order = policy->Order(views);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(views[order[0]].id, 2);
  EXPECT_EQ(views[order[1]].id, 1);
  EXPECT_EQ(views[order[2]].id, 3);
}

TEST(Policy, ShortestFirstTiesBreakByArrival) {
  const auto policy = MakeShortestFirstPolicy();
  std::vector<CoflowView> views = {
      {7, 3.0, 2.0, 2.0, MB(10), 1},
      {8, 1.0, 2.0, 2.0, MB(10), 1},
  };
  const auto order = policy->Order(views);
  EXPECT_EQ(views[order[0]].id, 8);
}

TEST(Policy, FifoOrdersByArrival) {
  const auto policy = MakeFifoPolicy();
  std::vector<CoflowView> views = {
      {1, 5.0, 1.0, 1.0, MB(10), 1},
      {2, 2.0, 9.0, 9.0, MB(90), 1},
  };
  const auto order = policy->Order(views);
  EXPECT_EQ(views[order[0]].id, 2);
}

TEST(Policy, ClassPolicyDominatesSize) {
  const auto policy = MakeClassPolicy({{1, 1}, {2, 0}}, /*default_class=*/2);
  std::vector<CoflowView> views = {
      {1, 0.0, 1.0, 1.0, MB(1), 1},   // class 1, tiny
      {2, 0.0, 50.0, 50.0, MB(500), 9},  // class 0 (privileged), huge
      {3, 0.0, 0.5, 0.5, MB(1), 1},   // default class 2
  };
  const auto order = policy->Order(views);
  EXPECT_EQ(views[order[0]].id, 2);
  EXPECT_EQ(views[order[1]].id, 1);
  EXPECT_EQ(views[order[2]].id, 3);
}

TEST(Policy, WeightedShortestFirstScalesByWeight) {
  // Coflow 1 is 3x longer but 10x more important: weighted key 0.3 beats
  // the unweighted coflow 2's key 1.0.
  const auto policy = MakeWeightedShortestFirstPolicy({{1, 10.0}});
  std::vector<CoflowView> views = {
      {1, 0.0, 3.0, 3.0, MB(300), 3},
      {2, 0.0, 1.0, 1.0, MB(100), 1},
  };
  const auto order = policy->Order(views);
  EXPECT_EQ(views[order[0]].id, 1);
  // With equal weights it degrades to plain shortest-first.
  const auto unweighted = MakeWeightedShortestFirstPolicy({});
  const auto order2 = unweighted->Order(views);
  EXPECT_EQ(views[order2[0]].id, 2);
}

TEST(Policy, WeightedPolicyRejectsNonPositiveWeights) {
  EXPECT_THROW(MakeWeightedShortestFirstPolicy({{1, 0.0}}), CheckFailure);
  EXPECT_THROW(MakeWeightedShortestFirstPolicy({{1, -2.0}}), CheckFailure);
}

TEST(Policy, CombineCoflowsMergesDemand) {
  const Coflow a(1, 2.0, {{0, 1, MB(10)}, {0, 2, MB(5)}});
  const Coflow b(2, 1.0, {{0, 1, MB(20)}, {3, 2, MB(7)}});
  const Coflow merged = CombineCoflows({&a, &b}, 99);
  EXPECT_EQ(merged.id(), 99);
  EXPECT_DOUBLE_EQ(merged.arrival(), 1.0);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_DOUBLE_EQ(merged.total_bytes(), MB(42));
  for (const Flow& f : merged.flows()) {
    if (f.src == 0 && f.dst == 1) {
      EXPECT_DOUBLE_EQ(f.bytes, MB(30));
    }
  }
}

TEST(Policy, CombineTraceByClass) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(10)}}));
  trace.coflows.push_back(Coflow(2, 2.0, {{0, 1, MB(20)}, {2, 3, MB(5)}}));
  trace.coflows.push_back(Coflow(3, 1.0, {{1, 2, MB(7)}}));  // unmapped
  const auto combined = CombineTraceByClass(trace, {{1, 5}, {2, 5}});
  ASSERT_EQ(combined.trace.coflows.size(), 2u);
  const CoflowId cid = kCombinedIdBase + 5;
  ASSERT_EQ(combined.members.count(cid), 1u);
  EXPECT_EQ(combined.members.at(cid), (std::vector<CoflowId>{1, 2}));
  // Earliest arrival, merged demand on the shared pair.
  bool found = false;
  for (const Coflow& c : combined.trace.coflows) {
    if (c.id() != cid) continue;
    found = true;
    EXPECT_DOUBLE_EQ(c.arrival(), 0.0);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_DOUBLE_EQ(c.total_bytes(), MB(35));
  }
  EXPECT_TRUE(found);
}

TEST(Policy, CombinedTraceReplays) {
  Trace trace;
  trace.num_ports = 3;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(50)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{0, 1, MB(50)}}));
  const auto combined = CombineTraceByClass(trace, {{1, 0}, {2, 0}});
  SunflowPlanner planner(3, Config());
  const auto plan = PlanInOrder(
      planner,
      {PlanRequest::FromCoflow(combined.trace.coflows[0], Gbps(1), 0.0)});
  // 100 MB merged on one circuit: one reservation, δ + 0.8 s.
  EXPECT_NEAR(plan.completion_time.at(kCombinedIdBase), Millis(10) + 0.8,
              1e-9);
}

TEST(Starvation, PhiCoversAllPairs) {
  const PhiAssignments phi(5);
  std::vector<std::vector<int>> covered(5, std::vector<int>(5, 0));
  for (int k = 0; k < 5; ++k) {
    const auto pairs = phi.Assignment(k);
    ASSERT_EQ(pairs.size(), 5u);
    std::vector<int> out_used(5, 0);
    for (const auto& [i, j] : pairs) {
      ++covered[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      ++out_used[static_cast<std::size_t>(j)];
    }
    for (int used : out_used) EXPECT_EQ(used, 1);  // each A_k is a matching
  }
  for (const auto& row : covered)
    for (int c : row) EXPECT_EQ(c, 1);  // all N^2 circuits covered once
}

TEST(Starvation, TimelinePhases) {
  StarvationGuardConfig cfg;
  cfg.big_interval = 1.0;
  cfg.small_interval = 0.1;
  const StarvationGuardTimeline tl(cfg, 4);
  EXPECT_FALSE(tl.InTauInterval(0.5));
  EXPECT_TRUE(tl.InTauInterval(1.05));
  EXPECT_FALSE(tl.InTauInterval(1.2));
  EXPECT_DOUBLE_EQ(tl.NextBoundaryAfter(0.5), 1.0);
  EXPECT_DOUBLE_EQ(tl.NextBoundaryAfter(1.05), 1.1);
  EXPECT_NEAR(tl.NextBoundaryAfter(1.2), 2.1, 1e-9);
  EXPECT_EQ(tl.AssignmentIndexAt(0.5), 0);
  EXPECT_EQ(tl.AssignmentIndexAt(1.15), 1);  // second (T+tau) interval
  EXPECT_EQ(tl.AssignmentIndexAt(4.5), 0);   // wraps modulo N=4
  EXPECT_DOUBLE_EQ(tl.MaxServiceGap(), 4 * 1.1);
}

}  // namespace
}  // namespace sunflow
