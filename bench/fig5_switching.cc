// Figure 5: switching count normalized by the minimum necessary count
// (= |C|, the number of subflows) on many-to-many coflows.
//
// Paper: Sunflow's switching count is always exactly the minimum; Solstice
// schedules many switchings per subflow, and its normalized count grows
// with |C| (linear correlation coefficient 0.84).
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "exp/intra_runner.h"

int main(int argc, char** argv) {
  using namespace sunflow;
  using namespace sunflow::exp;
  bench::BenchSession session(
      argc, argv,
      {.name = "fig5_switching",
       .help = "Figure 5: normalized switching counts",
       .banner = "Figure 5 — switching count over minimum (M2M coflows)"});
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const int threads = session.threads();
  bench::BenchTracer& tracer = session.tracer();

  IntraRunConfig cfg;
  cfg.sink = tracer.sink();
  cfg.threads = threads;
  TextTable table("Normalized switching count (M2M)");
  table.SetHeader(
      {"algorithm", "mean", "p50", "p95", "max", "corr(norm, |C|)"});
  for (auto algorithm :
       {IntraAlgorithm::kSunflow, IntraAlgorithm::kSolstice}) {
    const std::size_t setups_before =
        tracer.enabled()
            ? static_cast<std::size_t>(std::count_if(
                  tracer.events().begin(), tracer.events().end(),
                  [](const obs::Event& e) {
                    return e.type == obs::EventType::kCircuitSetup &&
                           e.value > 0;
                  }))
            : 0;
    const auto run = RunIntra(w.trace, algorithm, cfg);
    std::vector<double> normalized, sizes;
    long long total_switching = 0;
    for (const auto& rec : run.records) {
      total_switching += rec.switching_count;
      if (rec.category != CoflowCategory::kManyToMany) continue;
      normalized.push_back(rec.NormalizedSwitching());
      sizes.push_back(static_cast<double>(rec.num_flows));
    }
    const auto s = stats::Summarize(normalized);
    table.AddRow({run.algorithm, TextTable::Fmt(s.mean, 3),
                  TextTable::Fmt(s.p50, 3), TextTable::Fmt(s.p95, 3),
                  TextTable::Fmt(s.max, 2),
                  TextTable::Fmt(
                      stats::PearsonCorrelation(normalized, sizes), 3)});
    PrintCdf(std::cout, run.algorithm + " switching/minimum (M2M)",
             normalized);
    if (tracer.enabled()) {
      // The trace is the same count the records report: every δ-paying
      // kCircuitSetup event corresponds to one switching event.
      const auto traced = static_cast<long long>(
          static_cast<std::size_t>(std::count_if(
              tracer.events().begin(), tracer.events().end(),
              [](const obs::Event& e) {
                return e.type == obs::EventType::kCircuitSetup && e.value > 0;
              })) -
          setups_before);
      std::printf("%s: traced %lld circuit setups, switching counts sum to "
                  "%lld (%s)\n\n",
                  run.algorithm.c_str(), traced, total_switching,
                  traced == total_switching ? "match" : "MISMATCH");
    }
  }
  table.AddFootnote(
      "paper: Sunflow always exactly 1.0; Solstice grows with |C|, "
      "correlation 0.84");
  table.Print(std::cout);
  return session.Finish();
}
