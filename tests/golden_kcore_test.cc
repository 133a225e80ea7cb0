// K=1 golden-equivalence suite for the K-core fabric generalisation.
//
// Replays the fig3/fig5/fig9/fig10 golden configurations with the fabric
// spelled out explicitly — FabricSpec::Uniform(1, δ, B) instead of the
// empty default — and byte-compares against the SAME goldens the classic
// path is pinned to (tests/golden/*.txt), at --threads 1 and 8. This is
// the K=1 equivalence contract of core/fabric.h as a regression test:
// resolving one explicit plane must not change a single bit of any
// schedule, because plane-0 arithmetic rides the IEEE identities
// x * 1.0 == x and x / 1.0 == x. The fig9 section additionally runs
// through the per-core "kcore" scenario, pinning that at K=1 the per-core
// baseline (every coflow on core 0, planned on one Uniform(1, δ, B) plane)
// is the joint planner, bit for bit.
//
// Never regenerate goldens from this suite — it exists to be compared
// against the classic path's output (golden_equivalence_test.cc owns
// regeneration).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fabric.h"
#include "core/policy.h"
#include "exp/inter_runner.h"
#include "exp/intra_runner.h"
#include "runtime/thread_pool.h"
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

// Same generator and scale as golden_equivalence_test.cc — the suites
// must replay identical workloads for the byte-compare to mean anything.
Trace GoldenTrace(int coflows, PortId ports) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = coflows;
  cfg.num_ports = ports;
  const Trace base = GenerateSyntheticTrace(cfg);
  return PerturbFlowSizes(base, 0.05, MB(1), cfg.seed + 1);
}

std::string ReadGolden(const std::string& name) {
  const std::string path = std::string(SUNFLOW_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden " << path
                  << " (regenerate via golden_equivalence_test)";
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string IntraSection(const Trace& trace, exp::IntraAlgorithm algorithm,
                         int threads) {
  exp::IntraRunConfig cfg;
  cfg.bandwidth = Gbps(1);
  cfg.delta = Millis(10);
  cfg.fabric = FabricSpec::Uniform(1, cfg.delta, cfg.bandwidth);
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

TEST(GoldenKCore, Fig3Fig5IntraMatchesClassicGolden) {
  const Trace trace = GoldenTrace(80, 40);
  const std::string golden = ReadGolden("fig3_fig5_intra.txt");
  // The direct planner path must land on the classic bytes with one
  // explicit plane.
  std::string out;
  for (auto algorithm :
       {exp::IntraAlgorithm::kSunflow, exp::IntraAlgorithm::kSolstice}) {
    const std::string serial = IntraSection(trace, algorithm, 1);
    const std::string parallel = IntraSection(trace, algorithm, 8);
    ASSERT_EQ(serial, parallel) << "intra records depend on --threads";
    out += serial;
  }
  EXPECT_TRUE(out == golden)
      << "explicit K=1 fabric diverges from the classic golden";
}

std::string InterSection(const Trace& trace, int threads,
                         const std::string& engine) {
  exp::InterRunConfig cfg;
  cfg.bandwidth = Gbps(1);
  cfg.delta = Millis(10);
  cfg.fabric = FabricSpec::Uniform(1, cfg.delta, cfg.bandwidth);
  cfg.engine = engine;
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

TEST(GoldenKCore, Fig9InterMatchesClassicGolden) {
  const Trace trace = GoldenTrace(60, 24);
  const std::string golden = ReadGolden("fig9_inter.txt");
  for (const std::string& engine :
       {std::string("circuit"), std::string("kcore")}) {
    const std::string serial = InterSection(trace, 1, engine);
    const std::string parallel = InterSection(trace, 8, engine);
    ASSERT_EQ(serial, parallel) << "inter comparison depends on --threads";
    EXPECT_TRUE(serial == golden)
        << "explicit K=1 fabric diverges from the classic golden "
        << "(engine=" << engine << ")";
  }
}

TEST(GoldenKCore, Fig10DeltaSweepMatchesClassicGolden) {
  const Trace trace = GoldenTrace(60, 24);
  const std::string golden = ReadGolden("fig10_delta.txt");
  const auto policy = MakeShortestFirstPolicy();
  const std::vector<std::pair<std::string, Time>> deltas = {
      {"100ms", Millis(100)}, {"10ms", Millis(10)},   {"1ms", Millis(1)},
      {"100us", Micros(100)}, {"10us", Micros(10)},
  };
  for (const int threads : {1, 8}) {
    std::vector<engine::EngineResult> results(deltas.size());
    runtime::ThreadPool pool(threads);
    pool.ParallelFor(0, deltas.size(), [&](std::size_t i) {
      engine::EngineConfig cfg;
      cfg.sunflow.bandwidth = Gbps(1);
      cfg.sunflow.delta = deltas[i].second;
      cfg.sunflow.fabric =
          FabricSpec::Uniform(1, deltas[i].second, cfg.sunflow.bandwidth);
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
    EXPECT_TRUE(out == golden)
        << "explicit K=1 fabric diverges from the classic golden (threads="
        << threads << ")";
  }
}

}  // namespace
}  // namespace sunflow
