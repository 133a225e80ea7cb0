// Figure 10: inter-Coflow sensitivity to the reconfiguration delay δ,
// normalized per coflow to the δ = 10 ms baseline (full trace replay,
// shortest-Coflow-first policy).
//
// Paper: average (p95) normalized CCT is 4.91 (7.22) at δ = 100 ms,
// 1.00 (1.00) at 10 ms, 0.65 (0.98) at 1 ms, 0.61 (0.98) at 100 µs and
// 0.61 (0.98) at 10 µs.
#include <algorithm>
#include <iostream>
#include <map>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/policy.h"
#include "runtime/thread_pool.h"
#include "sim/engine/scenario.h"

int main(int argc, char** argv) {
  using namespace sunflow;
  bench::BenchSession session(
      argc, argv,
      {.name = "fig10_delta_inter",
       .help = "Figure 10: inter sensitivity to delta",
       .banner = "Figure 10 — inter-Coflow CCT vs delta (normalized to 10ms)",
       .engine_default = "circuit"});
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const int threads = session.threads();
  const std::string& engine_name = session.engine();

  const auto policy = MakeShortestFirstPolicy();

  // Each δ point is an independent whole-trace replay — fan them out and
  // normalize against the 10 ms entry once all points are in.
  const std::vector<std::pair<std::string, Time>> deltas = {
      {"100ms", Millis(100)}, {"10ms", Millis(10)},   {"1ms", Millis(1)},
      {"100us", Micros(100)}, {"10us", Micros(10)},
  };
  std::vector<engine::EngineResult> results(deltas.size());
  {
    runtime::ThreadPool pool(
        std::min<int>(threads, static_cast<int>(deltas.size())));
    pool.ParallelFor(0, deltas.size(), [&](std::size_t i) {
      engine::EngineConfig cfg;
      cfg.sunflow.bandwidth = Gbps(1);
      cfg.sunflow.delta = deltas[i].second;
      // Trace and sample only the paper's reference point (δ = 10 ms):
      // the other points run concurrently, and the sink and the sampler
      // each observe one replay.
      if (deltas[i].first == "10ms") {
        cfg.sink = session.sink();
        cfg.timeline = session.timeline();
      }
      results[i] = engine::ScenarioRegistry::Global().Run(
          engine_name, w.trace, policy.get(), cfg);
    });
  }
  const auto& base = results[1];  // the 10 ms point

  TextTable table("Sunflow inter-Coflow CCT w.r.t. 10ms baseline");
  table.SetHeader({"delta", "average", "p95"});
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    std::vector<double> normalized;
    for (const auto& [id, cct] : results[i].cct) {
      const double b = base.cct.at(id);
      if (b > 0) normalized.push_back(cct / b);
    }
    table.AddRow({deltas[i].first, TextTable::Fmt(stats::Mean(normalized), 2),
                  TextTable::Fmt(stats::Percentile(normalized, 95), 2)});
  }
  table.AddFootnote(
      "paper: avg 4.91 / 1.00 / 0.65 / 0.61 / 0.61; p95 7.22 / 1.00 / 0.98 "
      "/ 0.98 / 0.98");
  table.Print(std::cout);
  return session.Finish();
}
