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
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/policy.h"
#include "exp/inter_runner.h"
#include "obs/audit.h"
#include "obs/trace_sink.h"
#include "packet/aalo.h"
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
  // Property: a queue drained by PopDue pops the exact same (time,
  // payload) sequence as one drained Pop by Pop, under randomized
  // interleavings of pushes and drains.
  Rng rng(20161212);
  for (int trial = 0; trial < 40; ++trial) {
    EventQueue<int> element_wise;
    EventQueue<int> batched;
    std::vector<std::pair<Time, int>> popped_a, popped_b;
    std::vector<EventQueue<int>::Entry> due;
    int next_payload = 0;
    for (int step = 0; step < 30; ++step) {
      if (rng.UniformInt(0, 2) != 0) {
        // Push the same (possibly empty) batch to both sides.
        const auto k = rng.UniformInt(0, 5);
        for (std::int64_t i = 0; i < k; ++i) {
          const Time t = rng.Uniform(0, 10);
          element_wise.Push(t, next_payload);
          batched.Push(t, next_payload++);
        }
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

// A span sums each flow's circuit time in plan order. The order shows only
// when one flow has three or more reservations on one plane inside one span
// and is still unfinished at its end. Here all three coflows arrive at 0 and
// FIFO plans them by id. Coflow 1 holds out.1/out.2/out.3 until 0.042,
// 0.166 and 0.306 s, so coflow 2 leaves three gaps on in.0. Coflow 3 fills
// all three before coflow 1's completion ends the span, and keeps 5 KB for
// after coflow 2. Summing its three gaps in any other order moves its CCT
// in the last bit.
TEST(ReplayDriver, SpanSumsEachFlowsGapsInPlanOrder) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(
      Coflow(1, 0.0, {{1, 1, MB(4)}, {2, 2, MB(19.5)}, {3, 3, MB(37)}}));
  trace.coflows.push_back(
      Coflow(2, 0.0, {{0, 1, MB(6)}, {0, 2, MB(6)}, {0, 3, MB(6)}}));
  trace.coflows.push_back(Coflow(3, 0.0, {{0, 0, 20005000}}));
  obs::MemorySink sink;
  EngineConfig ec = UnitConfig();
  ec.sink = &sink;
  const auto policy = MakeFifoPolicy();
  const EngineResult result =
      ScenarioRegistry::Global().Run("circuit", trace, policy.get(), ec);

  int gaps_in_first_span = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.type == obs::EventType::kCircuitSetup && e.coflow == 3 &&
        e.t < result.cct.at(1))
      ++gaps_in_first_span;
  }
  ASSERT_EQ(gaps_in_first_span, 3);
  EXPECT_EQ(result.cct.at(1), 0.30599999999999999);
  EXPECT_EQ(result.cct.at(2), 0.36399999999999999);
  EXPECT_EQ(result.cct.at(3), 0.37404000000000004);
}

// The per-pair map SimCoflow kept before its flows became a sorted vector,
// with the two readers as they were then: the flat demand must reproduce
// both bit for bit.
using PairBytes = std::map<std::pair<PortId, PortId>, Bytes>;

Bytes MapRemainingBytes(const PairBytes& remaining) {
  Bytes sum = 0;
  for (const auto& [pair, b] : remaining) sum += b;
  return sum;
}

Time MapRemainingTpl(const PairBytes& remaining, Bandwidth bandwidth) {
  std::map<PortId, Bytes> in_load, out_load;
  for (const auto& [pair, b] : remaining) {
    if (b <= kBytesEps) continue;
    in_load[pair.first] += b;
    out_load[pair.second] += b;
  }
  Bytes busiest = 0;
  for (const auto& [p, v] : in_load) busiest = std::max(busiest, v);
  for (const auto& [p, v] : out_load) busiest = std::max(busiest, v);
  return busiest / bandwidth;
}

TEST(SimCoflow, FlatDemandMatchesMapReference) {
  Rng rng(20161212);
  for (int trial = 0; trial < 400; ++trial) {
    // Sparse ports, a dense corner that piles many flows on a few ports,
    // and byte counts spread across zero, dust, the ε boundary and
    // magnitudes whose sums round.
    PairBytes remaining;
    const auto n = rng.UniformInt(0, 80);
    for (std::int64_t i = 0; i < n; ++i) {
      const bool dense = rng.UniformInt(0, 1) == 0;
      const auto in = static_cast<PortId>(rng.UniformInt(0, dense ? 3 : 2000));
      const auto out = static_cast<PortId>(rng.UniformInt(0, dense ? 3 : 2000));
      Bytes bytes = 0;
      switch (rng.UniformInt(0, 4)) {
        case 0: bytes = 0; break;
        case 1: bytes = rng.Uniform(0, kBytesEps); break;
        case 2: bytes = kBytesEps; break;
        case 3: bytes = kBytesEps + rng.Uniform(0, 1e-6); break;
        default: bytes = rng.Uniform(1, 1e9); break;
      }
      remaining[{in, out}] = bytes;
    }
    SimCoflow sc;
    for (const auto& [pair, b] : remaining) {
      sc.flows.push_back({pair.first, pair.second, b});
      if (b > kBytesEps) ++sc.unfinished;
    }
    EXPECT_EQ(sc.unfinished, sc.CountUnfinished());
    EXPECT_EQ(sc.done(), sc.unfinished == 0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sc.remaining_bytes()),
              std::bit_cast<std::uint64_t>(MapRemainingBytes(remaining)))
        << "trial " << trial;
    for (const Bandwidth bw : {Gbps(1), Gbps(40), 3.0}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sc.RemainingTpl(bw)),
                std::bit_cast<std::uint64_t>(MapRemainingTpl(remaining, bw)))
          << "trial " << trial;
    }
    for (const auto& [pair, b] : remaining) {
      const SimFlow* f = sc.FindFlow(pair.first, pair.second);
      ASSERT_NE(f, nullptr);
      EXPECT_EQ(f->bytes, b);
    }
    EXPECT_EQ(sc.FindFlow(2001, 0), nullptr);
  }
}

// Orders like shortest-first and, at every replan, checks each coflow's
// view against the driver's live state: remaining_flows counts exactly
// the flows with more than kBytesEps left, and the flows are sorted by
// (in, out).
class RecountingPolicy final : public PriorityPolicy {
 public:
  explicit RecountingPolicy(const SimState& state) : state_(state) {}
  std::vector<std::size_t> Order(
      const std::vector<CoflowView>& views) const override {
    const auto& active = state_.active();
    EXPECT_EQ(views.size(), active.size());
    for (std::size_t i = 0; i < views.size() && i < active.size(); ++i) {
      const auto& flows = active[i].flows;
      EXPECT_TRUE(std::is_sorted(flows.begin(), flows.end(),
                                 [](const SimFlow& a, const SimFlow& b) {
                                   return std::pair{a.src, a.dst} <
                                          std::pair{b.src, b.dst};
                                 }));
      std::size_t left = 0;
      for (const SimFlow& f : flows) {
        if (f.bytes > kBytesEps) ++left;
      }
      EXPECT_EQ(views[i].remaining_flows, left) << "coflow " << views[i].id;
      ++views_checked;
      if (left < flows.size()) ++views_with_finished_flows;
    }
    return shortest_first_->Order(views);
  }

  mutable int views_checked = 0;
  mutable int views_with_finished_flows = 0;

 private:
  const SimState& state_;
  std::unique_ptr<PriorityPolicy> shortest_first_ = MakeShortestFirstPolicy();
};

TEST(ReplayDriver, RemainingFlowsCountsOnlyUnfinishedFlows) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 40;
  cfg.num_ports = 16;
  const Trace trace =
      PerturbFlowSizes(GenerateSyntheticTrace(cfg), 0.05, MB(1), cfg.seed + 1);
  EngineConfig ec = UnitConfig();
  ec.guard.big_interval = 0.5;
  ec.guard.small_interval = 0.05;
  for (const std::string scenario_name : {"circuit", "guarded"}) {
    ReplayDriver driver(trace.num_ports, nullptr);
    RecountingPolicy policy(driver.state());
    const auto scenario =
        MakeScenario(scenario_name, trace.num_ports, &policy, ec);
    for (const Coflow& c : trace.coflows)
      driver.state().PushRelease(c.arrival(), &c);
    const EngineResult result = driver.Run(*scenario);
    EXPECT_EQ(result.cct.size(), trace.coflows.size()) << scenario_name;
    EXPECT_GT(policy.views_checked, 0) << scenario_name;
    // Coflows with finished flows were replanned, so the count was tested
    // where the number of flows and the number of unfinished ones differ.
    EXPECT_GT(policy.views_with_finished_flows, 0) << scenario_name;
  }
}

TEST(ScenarioRegistry, ListsTheBuiltinScenarios) {
  const auto& registry = ScenarioRegistry::Global();
  const std::vector<std::string> names = {"aalo",   "circuit", "guarded",
                                          "hybrid", "kcore",   "rotor",
                                          "varys"};
  const auto listed = registry.List();
  ASSERT_EQ(listed.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(listed[i].first, names[i]);
    EXPECT_FALSE(listed[i].second.empty()) << names[i];
  }
}

TEST(ScenarioRegistry, MakeScenarioNamesWhatItCannotBuild) {
  const auto policy = MakeShortestFirstPolicy();
  const EngineConfig ec = UnitConfig();
  const auto message = [&](const std::string& name,
                           const PriorityPolicy* p) -> std::string {
    try {
      MakeScenario(name, 4, p, ec);
    } catch (const CheckFailure& e) {
      return e.what();
    }
    ADD_FAILURE() << name << " was built";
    return "";
  };
  EXPECT_NE(message("joint", policy.get())
                .find("unknown scenario 'joint' — registered: aalo, circuit, "
                      "guarded, hybrid, kcore, rotor, varys"),
            std::string::npos);
  EXPECT_NE(message("hybrid", policy.get())
                .find("\"hybrid\" is a composite of two replays and runs "
                      "only through ScenarioRegistry::Run"),
            std::string::npos);
  for (const char* name : {"circuit", "guarded", "kcore"}) {
    EXPECT_NE(message(name, nullptr)
                  .find(std::string("the ") + name +
                        " scenario needs a priority policy"),
              std::string::npos)
        << name;
    EXPECT_EQ(MakeScenario(name, 4, policy.get(), ec)->name(), name);
  }
  for (const char* name : {"rotor", "varys", "aalo"})
    EXPECT_NE(MakeScenario(name, 4, nullptr, ec), nullptr) << name;
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

TEST(ScenarioRegistry, StallChecksNameTheStuckCoflow) {
  // A 5-byte flow needs 0.4 ns of a 100 Gbps circuit. The planner drops
  // demand of at most kTimeEps, but the replay keeps a flow pending while
  // more than kBytesEps is left, so coflow 1 is planned to finish at t = 0
  // and never does (a known gap between the two ε policies). Both
  // circuit-planning scenarios stall there; their CHECKs must say who is
  // stuck and with how many bytes.
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, 5}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{1, 2, MB(1)}}));
  EngineConfig circuit;
  circuit.sunflow.bandwidth = Gbps(100);
  circuit.sunflow.delta = 0;
  EngineConfig guarded = circuit;
  guarded.sunflow.delta = Micros(1);
  guarded.guard.small_interval = Millis(1);
  const auto policy = MakeShortestFirstPolicy();
  for (const auto& [name, ec] :
       {std::pair{"circuit", circuit}, std::pair{"guarded", guarded}}) {
    try {
      ScenarioRegistry::Global().Run(name, trace, policy.get(), ec);
      ADD_FAILURE() << name << " did not stall";
    } catch (const CheckFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(name) + " replay stalled: t=0 s"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("coflow 1: 5 bytes left, planned completion t=0 s"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("0 pending releases"), std::string::npos) << what;
    }
  }
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

// One built-in scenario in one configuration. Every scenario-wide
// property test walks this table and fails if a built-in is missing from
// it.
struct ScenarioCase {
  std::string scenario;
  bool plans;  // records per-coflow reservations
  int planes;

  std::string what() const {
    return scenario + (planes > 1 ? " on " + std::to_string(planes) +
                                        " planes"
                                  : "");
  }
  EngineConfig Config() const {
    EngineConfig ec = UnitConfig();
    if (planes > 1) {
      ec.sunflow.fabric = FabricSpec::Uniform(planes, ec.sunflow.delta,
                                              ec.sunflow.bandwidth);
    }
    return ec;
  }
};

// "circuit" on two planes plans jointly; "kcore" there is the per-core
// baseline.
const std::vector<ScenarioCase>& ScenarioCases() {
  static const std::vector<ScenarioCase> cases = {
      {"circuit", true, 1}, {"guarded", true, 1}, {"rotor", false, 1},
      {"hybrid", true, 1},  {"circuit", true, 2}, {"kcore", true, 2},
      {"varys", false, 1},  {"aalo", false, 1},
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
  // trace twice in the same process through every built-in scenario
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
      const Trace scaled_trace = ScaleBytes(trace, factor);
      const EngineConfig scaled_ec = ScaleRates(ec, factor);
      EngineResult scaled;
      if (c.scenario == "aalo") {
        // Aalo's queue limits (10 MB × 10^k) are byte thresholds too, so
        // they scale with the bytes; the "aalo" row keeps the default.
        packet::AaloConfig aalo_cfg;
        aalo_cfg.first_queue_limit *= factor;
        const auto aalo = packet::MakeAaloAllocator(aalo_cfg);
        const auto scenario =
            MakePacketScenario(*aalo, scaled_ec.sunflow.bandwidth);
        scaled = RunScenarioReplay(scaled_trace, *scenario, nullptr);
      } else {
        scaled = ScenarioRegistry::Global().Run(c.scenario, scaled_trace,
                                                policy.get(), scaled_ec);
      }
      ExpectBitIdentical(base.cct, scaled.cct,
                         c.what() + " x" + std::to_string(factor));
    }
    covered.insert(c.scenario);
  }
  ExpectEveryScenarioCovered(covered, "checked under scaling");
}

TEST(ScenarioRegistry, EveryTraceAuditsClean) {
  // Every scenario's trace is physically consistent against its demand
  // (obs/audit.h): ports held exclusively per plane, δ paid once and in
  // full, every finished flow served all its bytes. "guarded" keeps every
  // rule but bytes-served, which the auditor skips on traces with τ
  // rounds. "rotor" is left out: its fluid drains finish flows that no
  // circuit span carries (it emits none), so flow-in-circuit cannot hold.
  // "varys" and "aalo" hold no circuits either, so their traces carry only
  // the driver's admissions and completions and get the demand-free rules
  // alone: the demand rules check circuit spans against bytes.
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 60;
  cfg.num_ports = 24;
  const Trace trace =
      PerturbFlowSizes(GenerateSyntheticTrace(cfg), 0.05, MB(1), cfg.seed + 1);
  const auto policy = MakeShortestFirstPolicy();

  std::set<std::string> covered = {"rotor"};
  for (const ScenarioCase& c : ScenarioCases()) {
    if (c.scenario == "rotor") continue;
    EngineConfig ec = c.Config();
    obs::MemorySink sink;
    ec.sink = &sink;
    ScenarioRegistry::Global().Run(c.scenario, trace, policy.get(), ec);
    covered.insert(c.scenario);
    if (c.scenario == "varys" || c.scenario == "aalo") {
      for (const obs::Event& e : sink.events()) {
        EXPECT_TRUE(e.type == obs::EventType::kCoflowAdmitted ||
                    e.type == obs::EventType::kCoflowCompleted)
            << c.what();
      }
      const obs::AuditReport audit = obs::AuditTrace(sink.events());
      EXPECT_GT(audit.checks, 0u) << c.what();
      for (const auto& v : audit.violations)
        ADD_FAILURE() << c.what() << " [" << v.invariant << "] " << v.detail;
      continue;
    }
    const obs::AuditDemand demand = AuditDemandOf(trace, ec.sunflow);
    const obs::AuditReport audit = obs::AuditTrace(
        sink.events(), -1, obs::AuditScope::kSharedFabric, &demand);
    // The demand rules ran on top of the demand-free ones.
    EXPECT_GT(audit.checks, obs::AuditTrace(sink.events()).checks)
        << c.what();
    for (const auto& v : audit.violations)
      ADD_FAILURE() << c.what() << " [" << v.invariant << "] " << v.detail;
  }
  ExpectEveryScenarioCovered(covered, "audited");
}

TEST(InterComparison, ArmsBitIdenticalAtAnyThreadCount) {
  // At threads = 3 the circuit, Varys and Aalo arms run on three kernel
  // drivers at once; each arm must match its serial run bit for bit.
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 40;
  cfg.num_ports = 16;
  const Trace trace = GenerateSyntheticTrace(cfg);
  exp::InterRunConfig ic;
  ic.threads = 1;
  const exp::InterComparison serial = exp::RunInterComparison(trace, ic);
  ic.threads = 3;
  const exp::InterComparison parallel = exp::RunInterComparison(trace, ic);
  ASSERT_EQ(serial.aalo.size(), trace.coflows.size());
  ExpectBitIdentical(serial.sunflow, parallel.sunflow, "sunflow");
  ExpectBitIdentical(serial.varys, parallel.varys, "varys");
  ExpectBitIdentical(serial.aalo, parallel.aalo, "aalo");
}

}  // namespace
}  // namespace sunflow::engine
