// Golden-equivalence suite for the discrete-event simulation kernel.
//
// Replays the fig3/fig5/fig9/fig10 bench configurations (scaled-down
// workloads, same code paths) and compares the formatted results against
// goldens captured from the pre-refactor engines, at --threads 1 and
// --threads 8. Any numeric drift in the plan → execute → replan loop —
// a reordered float sum, a changed tie-break, a lost replan — shows up
// here as a byte-level diff.
//
// Regenerate (only when an intentional behavior change is made) with:
//   SUNFLOW_REGEN_GOLDEN=1 ./golden_equivalence_test
// which rewrites tests/golden/*.txt in the source tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/sunflow.h"
#include "exp/inter_runner.h"
#include "exp/intra_runner.h"
#include "obs/jsonl.h"
#include "obs/trace_sink.h"
#include "runtime/thread_pool.h"
#include "sim/dag_replay.h"
#include "sim/engine/scenario.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

#ifndef SUNFLOW_GOLDEN_DIR
#error "SUNFLOW_GOLDEN_DIR must point at tests/golden"
#endif

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The fig benches default to the §5.1-style synthetic workload; the golden
// suite uses the same generator at a size that keeps the suite fast.
Trace GoldenTrace(int coflows, PortId ports) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = coflows;
  cfg.num_ports = ports;
  const Trace base = GenerateSyntheticTrace(cfg);
  return PerturbFlowSizes(base, 0.05, MB(1), cfg.seed + 1);
}

void CompareOrRegen(const std::string& name, const std::string& actual) {
  const std::string path = std::string(SUNFLOW_GOLDEN_DIR) + "/" + name;
  if (std::getenv("SUNFLOW_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " (run with SUNFLOW_REGEN_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  // Byte-identical, not nearly-equal: the refactor contract.
  EXPECT_TRUE(expected == actual)
      << "output differs from " << path << "\n--- expected (" <<
      expected.size() << " bytes) vs actual (" << actual.size() << ")";
}

// --- fig3 + fig5: intra-Coflow CCT/TcL and switching counts. ---

std::string IntraSection(const Trace& trace, exp::IntraAlgorithm algorithm,
                         int threads) {
  exp::IntraRunConfig cfg;
  cfg.bandwidth = Gbps(1);
  cfg.delta = Millis(10);
  cfg.threads = threads;
  const auto run = exp::RunIntra(trace, algorithm, cfg);
  std::string out = "algorithm=" + run.algorithm + "\n";
  for (const auto& r : run.records) {
    out += std::to_string(r.id) + " cat=" +
           std::to_string(static_cast<int>(r.category)) +
           " flows=" + std::to_string(r.num_flows) +
           " bytes=" + Fmt(r.bytes) + " tcl=" + Fmt(r.tcl) +
           " tpl=" + Fmt(r.tpl) + " cct=" + Fmt(r.cct) +
           " switch=" + std::to_string(r.switching_count) + "\n";
  }
  return out;
}

TEST(GoldenEquivalence, Fig3Fig5IntraRecords) {
  const Trace trace = GoldenTrace(80, 40);
  std::string out;
  for (auto algorithm :
       {exp::IntraAlgorithm::kSunflow, exp::IntraAlgorithm::kSolstice}) {
    const std::string serial = IntraSection(trace, algorithm, 1);
    const std::string parallel = IntraSection(trace, algorithm, 8);
    ASSERT_EQ(serial, parallel) << "intra records depend on --threads";
    out += serial;
  }
  CompareOrRegen("fig3_fig5_intra.txt", out);
}

// --- fig9: inter-Coflow Sunflow vs Varys vs Aalo CCTs. ---

std::string InterSection(const Trace& trace, int threads) {
  exp::InterRunConfig cfg;
  cfg.bandwidth = Gbps(1);
  cfg.delta = Millis(10);
  cfg.threads = threads;
  const auto cmp = exp::RunInterComparison(trace, cfg);
  std::string out;
  for (const auto& [id, tpl] : cmp.tpl) {
    out += std::to_string(id) + " tpl=" + Fmt(tpl) +
           " sunflow=" + Fmt(cmp.sunflow.at(id)) +
           " varys=" + Fmt(cmp.varys.at(id)) +
           " aalo=" + Fmt(cmp.aalo.at(id)) + "\n";
  }
  return out;
}

TEST(GoldenEquivalence, Fig9InterComparison) {
  const Trace trace = GoldenTrace(60, 24);
  const std::string serial = InterSection(trace, 1);
  const std::string parallel = InterSection(trace, 8);
  ASSERT_EQ(serial, parallel) << "inter comparison depends on --threads";
  CompareOrRegen("fig9_inter.txt", serial);
}

// --- fig10: inter-Coflow δ sensitivity (whole-trace circuit replays). ---

std::string DeltaSection(const Trace& trace, int threads) {
  const auto policy = MakeShortestFirstPolicy();
  const std::vector<std::pair<std::string, Time>> deltas = {
      {"100ms", Millis(100)}, {"10ms", Millis(10)},   {"1ms", Millis(1)},
      {"100us", Micros(100)}, {"10us", Micros(10)},
  };
  std::vector<engine::EngineResult> results(deltas.size());
  runtime::ThreadPool pool(threads);
  pool.ParallelFor(0, deltas.size(), [&](std::size_t i) {
    engine::EngineConfig cfg;
    cfg.sunflow.bandwidth = Gbps(1);
    cfg.sunflow.delta = deltas[i].second;
    results[i] = engine::ScenarioRegistry::Global().Run("circuit", trace,
                                                        policy.get(), cfg);
  });
  std::string out;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    out += "delta=" + deltas[i].first +
           " replans=" + std::to_string(results[i].replans) +
           " makespan=" + Fmt(results[i].makespan) + "\n";
    for (const auto& [id, cct] : results[i].cct) {
      out += "  " + std::to_string(id) + " cct=" + Fmt(cct) + " res=" +
             std::to_string(results[i].reservations.at(id)) + "\n";
    }
  }
  return out;
}

TEST(GoldenEquivalence, Fig10DeltaSweep) {
  const Trace trace = GoldenTrace(60, 24);
  const std::string serial = DeltaSection(trace, 1);
  const std::string parallel = DeltaSection(trace, 8);
  ASSERT_EQ(serial, parallel) << "delta sweep depends on --threads";
  CompareOrRegen("fig10_delta.txt", serial);
}

// --- The planner's own event stream: which flows it retries at which
// instant shows only in the blocked episodes, so the whole stream is
// pinned, not just the CCTs. ---

// One ScheduleAll on 10 ports with δ > 0: a higher-priority O2M coflow
// (port 0 to ports 1-8) planned first, then an 8x8 M2M coflow (ports 0-7
// to ports 2-9) queued behind it and behind its own flows. Processing
// times come from a small grid, so many flows wake at one release.
TEST(GoldenEquivalence, PlannerTraceOnContendedCoflows) {
  SunflowConfig cfg;
  cfg.bandwidth = 1.0;  // processing times are given directly
  cfg.delta = 0.01;
  PlanRequest o2m;
  o2m.coflow = 1;
  o2m.start = 0;
  for (PortId dst = 1; dst <= 8; ++dst)
    o2m.demand.push_back({0, dst, 0.05 * (1 + dst % 3)});
  PlanRequest m2m;
  m2m.coflow = 2;
  m2m.start = 0;
  for (PortId src = 0; src < 8; ++src) {
    for (PortId dst = 2; dst < 10; ++dst)
      m2m.demand.push_back({src, dst, 0.1 * (1 + (src + 2 * dst) % 4)});
  }
  SunflowPlanner planner(10, cfg);
  obs::MemorySink sink;
  planner.SetTraceSink(&sink);
  planner.ScheduleAll({&o2m, &m2m});
  ASSERT_GT(sink.CountOf(obs::EventType::kFlowBlocked), 0u);
  std::ostringstream out;
  obs::WriteJsonl(out, sink.events());
  CompareOrRegen("planner_trace.jsonl", out.str());
}

// --- The replay driver's own blocked spans. Inside a replay the planner
// runs untraced, so every FlowBlocked comes from the driver: a whole span
// with no circuit, blamed on the first overlapping reservation on the
// flow's input port, else its output port (circuit), or held by the
// starvation guard's τ span (guarded). ---

std::string BlockedSpanLines(const std::vector<obs::Event>& events,
                             std::map<obs::BlockReason, int>& reasons) {
  std::string out;
  for (const obs::Event& e : events) {
    if (e.type != obs::EventType::kFlowBlocked) continue;
    const auto reason = static_cast<obs::BlockReason>(e.count);
    ++reasons[reason];
    out += "t=" + Fmt(e.t) + " coflow=" + std::to_string(e.coflow) +
           " in=" + std::to_string(e.in) + " out=" + std::to_string(e.out) +
           " reason=" + obs::ToString(reason) + " blamer=" +
           std::to_string(static_cast<CoflowId>(e.value)) + "\n";
  }
  return out;
}

TEST(GoldenEquivalence, DriverBlockedSpans) {
  auto& registry = engine::ScenarioRegistry::Global();
  const auto policy = MakeShortestFirstPolicy();
  std::string out;
  {
    // Many coflows on few ports: most flows wait behind another coflow's
    // circuit for whole spans.
    const Trace trace = GoldenTrace(60, 16);
    engine::EngineConfig cfg;
    cfg.sunflow.bandwidth = Gbps(1);
    cfg.sunflow.delta = Millis(10);
    obs::MemorySink sink;
    cfg.sink = &sink;
    registry.Run("circuit", trace, policy.get(), cfg);
    std::map<obs::BlockReason, int> reasons;
    const std::string lines = BlockedSpanLines(sink.events(), reasons);
    EXPECT_GE(reasons[obs::BlockReason::kInputPortBusy] +
                  reasons[obs::BlockReason::kOutputPortBusy],
              50);
    EXPECT_GT(reasons[obs::BlockReason::kInputPortBusy], 0);
    EXPECT_GT(reasons[obs::BlockReason::kOutputPortBusy], 0);
    out += "circuit\n" + lines;
  }
  {
    const Trace trace = GoldenTrace(12, 8);
    engine::EngineConfig cfg;
    cfg.guard.big_interval = 0.5;
    cfg.guard.small_interval = 0.05;
    obs::MemorySink sink;
    cfg.sink = &sink;
    registry.Run("guarded", trace, policy.get(), cfg);
    std::map<obs::BlockReason, int> reasons;
    const std::string lines = BlockedSpanLines(sink.events(), reasons);
    EXPECT_GT(reasons[obs::BlockReason::kStarvationHold], 0);
    out += "guarded\n" + lines;
  }
  CompareOrRegen("driver_blocked_spans.txt", out);
}

// --- The remaining engines (guarded / rotor / dag / hybrid) are not part
// of the fig golden contract but ride the same kernel; pinning them keeps
// the whole port honest. ---

TEST(GoldenEquivalence, AuxiliaryEngines) {
  auto& registry = engine::ScenarioRegistry::Global();
  const auto policy = MakeShortestFirstPolicy();
  std::string out;
  {
    const Trace trace = GoldenTrace(24, 12);
    engine::EngineConfig cfg;
    cfg.guard.big_interval = 0.5;
    cfg.guard.small_interval = 0.05;
    const auto r = registry.Run("guarded", trace, policy.get(), cfg);
    out += "guarded makespan=" + Fmt(r.makespan) + "\n";
    for (const auto& [id, cct] : r.cct) {
      out += "  " + std::to_string(id) + " cct=" + Fmt(cct) +
             " gap=" + Fmt(r.max_service_gap.at(id)) + "\n";
    }
  }
  {
    Trace trace;
    trace.num_ports = 6;
    trace.coflows.push_back(
        Coflow(1, 0.0, {{0, 2, MB(12)}, {1, 3, MB(6)}, {4, 5, MB(9)}}));
    trace.coflows.push_back(Coflow(2, 0.4, {{0, 3, MB(8)}, {2, 4, MB(5)}}));
    trace.coflows.push_back(Coflow(3, 1.1, {{5, 1, MB(15)}}));
    const auto r = registry.Run("rotor", trace, /*policy=*/nullptr,
                                engine::EngineConfig{});
    out += "rotor makespan=" + Fmt(r.makespan) + "\n";
    for (const auto& [id, cct] : r.cct)
      out += "  " + std::to_string(id) + " cct=" + Fmt(cct) + "\n";
  }
  {
    const Trace trace = GoldenTrace(16, 8);
    CoflowDag dag;
    // Chain a few coflows to exercise dependency-gated releases.
    for (std::size_t i = 2; i < trace.coflows.size(); i += 3) {
      dag.AddDependency(trace.coflows[i].id(), trace.coflows[i - 1].id());
    }
    const auto r =
        ReplayDagTrace(trace, dag, *policy, engine::EngineConfig{});
    Time first_arrival = kTimeInf;
    for (const Coflow& c : trace.coflows)
      first_arrival = std::min(first_arrival, c.arrival());
    out += "dag job_span=" + Fmt(r.makespan - first_arrival) + "\n";
    for (const auto& [id, cct] : r.cct) {
      out += "  " + std::to_string(id) + " cct=" + Fmt(cct) +
             " release=" + Fmt(r.completion.at(id) - cct) + "\n";
    }
  }
  {
    const Trace trace = GoldenTrace(40, 20);
    const auto r =
        registry.Run("hybrid", trace, policy.get(), engine::EngineConfig{});
    out += "hybrid offloaded=" + std::to_string(r.offloaded) +
           " circuit=" + std::to_string(r.circuit) + "\n";
    for (const auto& [id, cct] : r.cct)
      out += "  " + std::to_string(id) + " cct=" + Fmt(cct) + "\n";
  }
  CompareOrRegen("aux_engines.txt", out);
}

}  // namespace
}  // namespace sunflow
