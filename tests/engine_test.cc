// Deterministic-ordering contract of the discrete-event kernel
// (sim/engine): heap tie-breaks, completion-vs-release ordering at the
// same instant, and the tolerance-inclusive due check. These pin the
// rules documented in sim/engine/driver.h so any future change to the
// kernel's event ordering fails loudly instead of silently perturbing
// replay results.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/policy.h"
#include "obs/trace_sink.h"
#include "sim/engine/driver.h"
#include "sim/engine/event_queue.h"
#include "sim/engine/scenario.h"
#include "trace/coflow.h"
#include "trace/generator.h"

namespace sunflow::engine {
namespace {

TEST(EventQueue, OrdersByTimeThenPushOrder) {
  EventQueue<int> q;
  q.Push(2.0, 20);
  q.Push(1.0, 10);
  q.Push(1.0, 11);  // same instant as the previous push: FIFO
  q.Push(3.0, 30);
  q.Push(1.0, 12);

  std::vector<int> popped;
  while (!q.empty()) popped.push_back(q.Pop().payload);
  EXPECT_EQ(popped, (std::vector<int>{10, 11, 12, 20, 30}));
}

TEST(EventQueue, SubEpsilonTimesStillOrderByRawTime) {
  // The queue itself is exact; tolerance lives in the driver's due check.
  EventQueue<int> q;
  q.Push(1.0 + kTimeEps / 2, 2);
  q.Push(1.0, 1);
  EXPECT_EQ(q.Pop().payload, 1);
  EXPECT_EQ(q.Pop().payload, 2);
}

TEST(EventQueue, CountsPushesAndPops) {
  EventQueue<int> q;
  q.Push(1.0, 1);
  q.Push(2.0, 2);
  q.Pop();
  EXPECT_EQ(q.stats().pushes, 2u);
  EXPECT_EQ(q.stats().pops, 1u);
  EXPECT_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, BatchOpsMatchElementWiseUnderRandomInterleavings) {
  // Property: a queue driven by PushBatch/PopDue pops the exact same
  // (time, payload) sequence as one driven element-wise, under randomized
  // interleavings of pushes and drains. (time, seq) is a total order —
  // seq is unique — so one make_heap over appended entries must be
  // indistinguishable from heapifying push by push.
  Rng rng(20161212);
  for (int trial = 0; trial < 40; ++trial) {
    EventQueue<int> element_wise;
    EventQueue<int> batched;
    std::vector<std::pair<Time, int>> popped_a, popped_b;
    std::vector<EventQueue<int>::Entry> due;
    int next_payload = 0;
    for (int step = 0; step < 30; ++step) {
      if (rng.UniformInt(0, 2) != 0) {
        // Push the same batch to both sides: element-wise to one, one
        // PushBatch (including possibly-empty batches) to the other.
        std::vector<std::pair<Time, int>> batch;
        const auto k = rng.UniformInt(0, 5);
        for (std::int64_t i = 0; i < k; ++i) {
          batch.emplace_back(rng.Uniform(0, 10), next_payload++);
        }
        for (const auto& [t, p] : batch) element_wise.Push(t, p);
        batched.PushBatch(batch);
      } else {
        // Drain everything due at a random cutoff from both sides.
        const Time cutoff = rng.Uniform(0, 12);
        while (!element_wise.empty() &&
               element_wise.next_time() <= cutoff) {
          const auto e = element_wise.Pop();
          popped_a.emplace_back(e.t, e.payload);
        }
        due.clear();
        batched.PopDue(cutoff, due);
        for (const auto& e : due) popped_b.emplace_back(e.t, e.payload);
      }
    }
    // Final full drain.
    while (!element_wise.empty()) {
      const auto e = element_wise.Pop();
      popped_a.emplace_back(e.t, e.payload);
    }
    due.clear();
    batched.PopDue(kTimeInf, due);
    for (const auto& e : due) popped_b.emplace_back(e.t, e.payload);

    ASSERT_EQ(popped_a, popped_b) << "trial " << trial;
    EXPECT_EQ(element_wise.stats().pushes, batched.stats().pushes);
    EXPECT_EQ(element_wise.stats().pops, batched.stats().pops);
  }
}

TEST(EventQueue, PopDueAppendsWithoutClearing) {
  // The driver reuses one due-buffer across admission rounds; PopDue must
  // append (the caller clears), and report how many entries it took.
  EventQueue<int> q;
  q.Push(1.0, 1);
  q.Push(2.0, 2);
  q.Push(3.0, 3);
  std::vector<EventQueue<int>::Entry> out;
  EXPECT_EQ(q.PopDue(1.5, out), 1u);
  EXPECT_EQ(q.PopDue(2.5, out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload, 1);
  EXPECT_EQ(out[1].payload, 2);
  EXPECT_EQ(q.PopDue(0.5, out), 0u);
  EXPECT_EQ(out.size(), 2u);
}

EngineConfig UnitConfig() {
  EngineConfig ec;
  ec.sunflow.bandwidth = Gbps(1);
  ec.sunflow.delta = Millis(10);
  return ec;
}

// A single 100 MB flow at 1 Gbps finishes at δ + p = 0.81 s. The engine
// computes the same instant through the planner, so test-side arithmetic
// agrees to within a ulp — far inside the kTimeEps admission tolerance.
const Time kSoloFinish = Millis(10) + MB(100) / Gbps(1);

std::vector<obs::Event> ReplayEvents(const Trace& trace) {
  obs::MemorySink sink;
  EngineConfig ec = UnitConfig();
  ec.sink = &sink;
  const auto policy = MakeShortestFirstPolicy();
  ScenarioRegistry::Global().Run("circuit", trace, policy.get(), ec);
  return sink.events();
}

std::size_t IndexOf(const std::vector<obs::Event>& events,
                    obs::EventType type, CoflowId coflow) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type == type && events[i].coflow == coflow) return i;
  }
  ADD_FAILURE() << "event not found for coflow " << coflow;
  return events.size();
}

TEST(ReplayDriver, CompletionPrecedesReleaseAtSameInstant) {
  // Coflow 1 finishes at δ + p; coflow 2 is released at that same
  // instant. Contract rule 1: the completion is harvested first, the
  // release admitted at the top of the next iteration — so the event
  // stream shows completed(1) before admitted(2), both stamped with the
  // finish instant.
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(100)}}));
  trace.coflows.push_back(Coflow(2, kSoloFinish, {{0, 1, MB(100)}}));
  const auto events = ReplayEvents(trace);

  const auto completed_1 =
      IndexOf(events, obs::EventType::kCoflowCompleted, 1);
  const auto admitted_2 = IndexOf(events, obs::EventType::kCoflowAdmitted, 2);
  ASSERT_LT(completed_1, events.size());
  ASSERT_LT(admitted_2, events.size());
  EXPECT_LT(completed_1, admitted_2);
  EXPECT_NEAR(events[completed_1].t, kSoloFinish, 1e-9);
  EXPECT_NEAR(events[admitted_2].t, kSoloFinish, 1e-9);
}

TEST(ReplayDriver, EqualReleasesAdmitInPushOrder) {
  // Contract rule 2: releases at the same instant admit FIFO by push
  // order (the seq tie-break), which for a trace replay is trace order —
  // regardless of coflow ids.
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(7, 0.0, {{0, 1, MB(100)}}));
  trace.coflows.push_back(Coflow(3, 0.0, {{1, 0, MB(100)}}));
  trace.coflows.push_back(Coflow(5, 0.0, {{0, 1, MB(50)}}));
  const auto events = ReplayEvents(trace);

  std::vector<CoflowId> admitted;
  for (const auto& e : events) {
    if (e.type == obs::EventType::kCoflowAdmitted) admitted.push_back(e.coflow);
  }
  EXPECT_EQ(admitted, (std::vector<CoflowId>{7, 3, 5}));
}

TEST(ReplayDriver, DueCheckIsToleranceInclusive) {
  // Contract rule 3: a release within kTimeEps of the current instant is
  // due now. Coflow 2's release lands kTimeEps/2 after coflow 1's finish;
  // it must be admitted in the same batch (immediately after the
  // completion), not deferred to a separate later iteration.
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(100)}}));
  trace.coflows.push_back(
      Coflow(2, kSoloFinish + kTimeEps / 2, {{0, 1, MB(100)}}));
  const auto events = ReplayEvents(trace);

  const auto completed_1 =
      IndexOf(events, obs::EventType::kCoflowCompleted, 1);
  const auto admitted_2 = IndexOf(events, obs::EventType::kCoflowAdmitted, 2);
  ASSERT_LT(completed_1, events.size());
  ASSERT_LT(admitted_2, events.size());
  EXPECT_LT(completed_1, admitted_2);
  // Nothing else happens between the harvest and the admission.
  EXPECT_EQ(admitted_2, completed_1 + 1);
}

// Advances time by one second per span and never drains a byte, so only
// the step budget can end the replay.
class NeverDrainsScenario final : public ScenarioPolicy {
 public:
  std::string name() const override { return "never-drains"; }
  Time ExecuteSpan(ReplayDriver& /*driver*/, Time now) override {
    return now + 1;
  }
  std::size_t StepBudget(const SimState& /*state*/) const override {
    return 8;
  }
};

TEST(ReplayDriver, StepBudgetCheckReportsScenarioAndState) {
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(100)}}));
  NeverDrainsScenario scenario;
  try {
    RunScenarioReplay(trace, scenario, nullptr);
    FAIL() << "a replay that never drains must trip the step budget";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    // Step 8 trips the budget at the start of the span beginning at t = 7.
    EXPECT_NE(what.find("never-drains"), std::string::npos) << what;
    EXPECT_NE(what.find("t=7 "), std::string::npos) << what;
    EXPECT_NE(what.find("steps=8"), std::string::npos) << what;
    EXPECT_NE(what.find("active=1"), std::string::npos) << what;
    EXPECT_NE(what.find("active_ids=[1]"), std::string::npos) << what;
    EXPECT_NE(what.find("wall_s="), std::string::npos) << what;
  }
}

TEST(ReplayDriver, ResultIsIndependentOfTraceCoflowOrder) {
  // The tie-break rules are about event-stream determinism; the physical
  // outcome for simultaneous arrivals is fixed by the priority policy, so
  // permuting the trace must not change any CCT.
  Trace a;
  a.num_ports = 3;
  a.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(200)}, {1, 2, MB(100)}}));
  a.coflows.push_back(Coflow(2, 0.0, {{0, 1, MB(50)}}));
  a.coflows.push_back(Coflow(3, 0.5, {{2, 0, MB(150)}}));
  Trace b = a;
  std::swap(b.coflows[0], b.coflows[1]);

  const auto policy = MakeShortestFirstPolicy();
  const auto ra =
      ScenarioRegistry::Global().Run("circuit", a, policy.get(), UnitConfig());
  const auto rb =
      ScenarioRegistry::Global().Run("circuit", b, policy.get(), UnitConfig());
  ASSERT_EQ(ra.cct.size(), rb.cct.size());
  for (const auto& [id, cct] : ra.cct) EXPECT_DOUBLE_EQ(cct, rb.cct.at(id));
}

TEST(ScenarioRegistry, ListsTheBuiltinScenarios) {
  auto& registry = ScenarioRegistry::Global();
  for (const char* name : {"circuit", "guarded", "rotor", "hybrid"}) {
    EXPECT_TRUE(registry.Has(name)) << name;
  }
  const auto listed = registry.List();
  EXPECT_GE(listed.size(), 4u);
  EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
}

TEST(ScenarioRegistry, RunExecutesByName) {
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(100)}}));
  const auto policy = MakeShortestFirstPolicy();
  const auto result = ScenarioRegistry::Global().Run("circuit", trace,
                                                     policy.get(),
                                                     UnitConfig());
  EXPECT_NEAR(result.cct.at(1), kSoloFinish, 1e-9);
  EXPECT_EQ(result.replans, 1);
  EXPECT_GT(result.queue.pushes, 0u);
  EXPECT_EQ(result.queue.pushes, result.queue.pops);
}

// Bitwise, not numeric, equality: the two runs must agree to the last bit.
void ExpectBitIdentical(const std::map<CoflowId, Time>& a,
                        const std::map<CoflowId, Time>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ia->second),
              std::bit_cast<std::uint64_t>(ib->second))
        << what << " coflow " << ia->first;
  }
}

// One registered scenario in one configuration. Every scenario-wide
// property test walks this table and fails if a registered scenario is
// missing from it.
struct ScenarioCase {
  std::string scenario;
  bool plans;  // records per-coflow reservations
  int planes;
  bool kcore_joint;

  std::string what() const {
    return scenario + (kcore_joint ? "" : " (per-core)");
  }
  EngineConfig Config() const {
    EngineConfig ec = UnitConfig();
    if (planes > 1) {
      ec.sunflow.fabric = FabricSpec::Uniform(planes, ec.sunflow.delta,
                                              ec.sunflow.bandwidth);
    }
    ec.kcore_joint = kcore_joint;
    return ec;
  }
};

const std::vector<ScenarioCase>& ScenarioCases() {
  static const std::vector<ScenarioCase> cases = {
      {"circuit", true, 1, true},  {"guarded", true, 1, true},
      {"rotor", false, 1, true},   {"hybrid", true, 1, true},
      {"kcore", true, 2, true},    {"kcore", true, 2, false},
  };
  return cases;
}

void ExpectEveryScenarioCovered(const std::set<std::string>& covered,
                                const std::string& property) {
  for (const auto& [name, description] : ScenarioRegistry::Global().List())
    EXPECT_TRUE(covered.contains(name)) << name << " is not " << property;
}

TEST(ScenarioRegistry, RepeatedReplayIsBitIdentical) {
  // Results are a pure function of (trace, policy, config): replaying one
  // trace twice in the same process through every registered scenario
  // must reproduce the first run bit for bit — no planner, cache or
  // registry state may carry from one run into the next.
  Trace trace;
  trace.num_ports = 6;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(120)}, {1, 2, MB(60)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{0, 1, MB(40)}, {2, 3, MB(30)}}));
  trace.coflows.push_back(Coflow(3, 0.3, {{3, 4, MB(200)}, {4, 5, MB(80)}}));
  trace.coflows.push_back(Coflow(4, 0.5, {{5, 0, MB(4)}}));  // hybrid offload
  trace.coflows.push_back(Coflow(5, 0.9, {{2, 0, MB(90)}, {0, 3, MB(30)}}));
  const auto policy = MakeShortestFirstPolicy();

  std::set<std::string> covered;
  for (const ScenarioCase& c : ScenarioCases()) {
    const EngineConfig ec = c.Config();
    const std::string what = c.what();
    const auto first =
        ScenarioRegistry::Global().Run(c.scenario, trace, policy.get(), ec);
    const auto second =
        ScenarioRegistry::Global().Run(c.scenario, trace, policy.get(), ec);
    ASSERT_EQ(first.cct.size(), trace.coflows.size()) << what;
    EXPECT_EQ(first.completed, first.cct.size()) << what;
    ExpectBitIdentical(first.cct, second.cct, what + " cct");
    ExpectBitIdentical(first.completion, second.completion,
                       what + " completion");
    if (c.plans) {
      EXPECT_FALSE(first.reservations.empty()) << what;
      EXPECT_EQ(first.reservations, second.reservations) << what;
    }
    EXPECT_EQ(first.replans, second.replans) << what;
    covered.insert(c.scenario);
  }
  ExpectEveryScenarioCovered(covered, "replayed twice");
}

// `trace` with every flow's bytes multiplied by `factor`.
Trace ScaleBytes(const Trace& trace, double factor) {
  Trace out;
  out.num_ports = trace.num_ports;
  for (const Coflow& c : trace.coflows) {
    std::vector<Flow> flows = c.flows();
    for (Flow& f : flows) f.bytes *= factor;
    out.coflows.emplace_back(c.id(), c.arrival(), std::move(flows));
  }
  return out;
}

// `ec` with every rate and byte threshold multiplied by `factor`: the
// planner bandwidth, each plane's rate, the hybrid packet fabric and its
// offload threshold. Times (δ, slot lengths, the guard cadence) stay.
EngineConfig ScaleRates(EngineConfig ec, double factor) {
  ec.sunflow.bandwidth *= factor;
  for (PlaneSpec& p : ec.sunflow.fabric.planes) p.rate *= factor;
  ec.packet_bandwidth *= factor;
  ec.offload_threshold *= factor;
  return ec;
}

TEST(ScenarioRegistry, CctsInvariantUnderByteAndRateScaling) {
  // Scaling every flow's bytes and every rate by the same power of two
  // leaves each bytes/rate quotient bit-exact, so every scenario must
  // reproduce its CCTs bit for bit: a divergence means some decision
  // compares bytes or rates against an absolute constant.
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 60;
  cfg.num_ports = 24;
  const Trace trace =
      PerturbFlowSizes(GenerateSyntheticTrace(cfg), 0.05, MB(1), cfg.seed + 1);
  const auto policy = MakeShortestFirstPolicy();

  std::set<std::string> covered;
  for (const ScenarioCase& c : ScenarioCases()) {
    const EngineConfig ec = c.Config();
    const auto base =
        ScenarioRegistry::Global().Run(c.scenario, trace, policy.get(), ec);
    ASSERT_EQ(base.cct.size(), trace.coflows.size()) << c.what();
    for (const double factor : {2.0, 0.5, 1024.0}) {
      const auto scaled = ScenarioRegistry::Global().Run(
          c.scenario, ScaleBytes(trace, factor), policy.get(),
          ScaleRates(ec, factor));
      ExpectBitIdentical(base.cct, scaled.cct,
                         c.what() + " x" + std::to_string(factor));
    }
    covered.insert(c.scenario);
  }
  ExpectEveryScenarioCovered(covered, "checked under scaling");
}

}  // namespace
}  // namespace sunflow::engine
