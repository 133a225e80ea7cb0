// Ablation (§2.1 / §3.1.2): how much the not-all-stop switch model matters.
//
// 1. The same Solstice schedules executed under not-all-stop vs all-stop:
//    the all-stop model pays a global δ at every assignment change.
// 2. Sunflow's inter-Coflow replay with and without circuit carry-over at
//    replan instants (DESIGN.md substitution #4).
#include <algorithm>
#include <iostream>
#include <map>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/policy.h"
#include "exp/intra_runner.h"
#include "runtime/thread_pool.h"
#include "sim/engine/scenario.h"
#include "trace/generator.h"

int main(int argc, char** argv) {
  using namespace sunflow;
  using namespace sunflow::exp;
  bench::BenchSession session(
      argc, argv,
      {.name = "ablation_allstop",
       .help = "Ablation: all-stop model and carry-over",
       .banner = "Ablation — switch model and replan carry-over"});
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const int threads = session.threads();

  {
    TextTable table("Solstice under the two switch models (CCT/TcL)");
    table.SetHeader({"executor", "mean", "p95", "max"});
    for (bool all_stop : {false, true}) {
      IntraRunConfig cfg;
      cfg.all_stop = all_stop;
      cfg.threads = threads;
      const auto run = RunIntra(w.trace, IntraAlgorithm::kSolstice, cfg);
      const auto ratios =
          run.Collect([](const IntraRecord& r) { return r.CctOverTcl(); });
      const auto s = stats::Summarize(ratios);
      table.AddRow({all_stop ? "all-stop" : "not-all-stop",
                    TextTable::Fmt(s.mean, 3), TextTable::Fmt(s.p95, 3),
                    TextTable::Fmt(s.max, 2)});
    }
    table.AddFootnote(
        "the all-stop model (classic TSA assumption) pays a global delta at "
        "every assignment change");
    table.Print(std::cout);
  }

  {
    TextTable table("Sunflow inter-Coflow replay: circuit carry-over");
    table.SetHeader({"carry-over", "avg CCT", "p95 CCT", "reservations"});
    const auto policy = MakeShortestFirstPolicy();
    // The two carry-over variants are independent replays — fan them out.
    const bool carry_options[] = {true, false};
    engine::EngineResult replays[2];
    {
      runtime::ThreadPool pool(std::min(threads, 2));
      pool.ParallelFor(0, 2, [&](std::size_t i) {
        engine::EngineConfig cfg;
        cfg.sunflow.bandwidth = Gbps(1);
        cfg.sunflow.delta = Millis(10);
        cfg.carry_over_circuits = carry_options[i];
        // --trace_out records the paper's replay, carry-over on.
        if (carry_options[i]) cfg.sink = session.sink();
        replays[i] = engine::ScenarioRegistry::Global().Run(
            "circuit", w.trace, policy.get(), cfg);
      });
    }
    for (std::size_t i = 0; i < 2; ++i) {
      const auto& result = replays[i];
      std::vector<double> ccts;
      for (const auto& [id, cct] : result.cct) ccts.push_back(cct);
      long long reservations = 0;
      for (const auto& [id, n] : result.reservations) reservations += n;
      table.AddRow({carry_options[i] ? "on" : "off",
                    TextTable::Fmt(stats::Mean(ccts), 3) + "s",
                    TextTable::Fmt(stats::Percentile(ccts, 95), 3) + "s",
                    std::to_string(reservations)});
    }
    table.AddFootnote(
        "without carry-over every replan re-pays delta for in-flight "
        "circuits");
    table.Print(std::cout);
  }
  {
    // Demand-aware scheduling vs blind Φ rotation, on a small workload
    // (rotor's 1/N duty cycle makes the full trace infeasible by design).
    SyntheticTraceConfig tc;
    tc.num_coflows = 30;
    tc.num_ports = 12;
    tc.horizon = 600.0;
    const Trace small = GenerateSyntheticTrace(tc);
    TextTable table("Demand-aware (Sunflow) vs blind rotation (rotor)");
    table.SetHeader({"scheduler", "avg CCT", "p95 CCT"});
    const auto policy = MakeShortestFirstPolicy();
    auto& registry = engine::ScenarioRegistry::Global();
    const engine::EngineConfig config;
    const auto sun = registry.Run("circuit", small, policy.get(), config);
    const auto rotor = registry.Run("rotor", small, /*policy=*/nullptr, config);
    for (const auto& [name, cct] :
         {std::pair{std::string("Sunflow (SCF)"), &sun.cct},
          std::pair{std::string("rotor (blind Φ rotation)"), &rotor.cct}}) {
      std::vector<double> values;
      for (const auto& [id, v] : *cct) values.push_back(v);
      table.AddRow({name, TextTable::Fmt(stats::Mean(values), 2) + "s",
                    TextTable::Fmt(stats::Percentile(values, 95), 2) + "s"});
    }
    table.AddFootnote(
        "rotor gives each port pair a 1/N duty cycle regardless of demand — "
        "the value of demand-aware circuit scheduling in one row");
    table.Print(std::cout);
  }
  return session.Finish();
}
