// Figure 6: intra-Coflow sensitivity to the reconfiguration delay δ,
// normalized per coflow to the δ = 10 ms baseline (Sunflow, B = 1 Gbps).
//
// Paper: average (p95) normalized CCT is 5.71 (13.12) at δ = 100 ms,
// 1.00 (1.00) at 10 ms, 0.65 (0.99) at 1 ms, 0.61 (0.99) at 100 µs and
// 0.61 (0.99) at 10 µs — a faster-than-1-ms switch buys almost nothing.
#include <iostream>
#include <map>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "exp/intra_runner.h"

int main(int argc, char** argv) {
  using namespace sunflow;
  using namespace sunflow::exp;
  bench::BenchSession session(
      argc, argv,
      {.name = "fig6_delta_intra",
       .help = "Figure 6: intra sensitivity to delta",
       .banner = "Figure 6 — intra-Coflow CCT vs delta (normalized to 10ms)"});
  const bool include_solstice = session.flags().GetBool(
      "solstice", true, "also sweep Solstice for the §5.3.1 comparison");
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const int threads = session.threads();

  const std::vector<std::pair<std::string, Time>> deltas = {
      {"100ms", Millis(100)}, {"10ms", Millis(10)},   {"1ms", Millis(1)},
      {"100us", Micros(100)}, {"10us", Micros(10)},
  };

  std::vector<IntraAlgorithm> algorithms = {IntraAlgorithm::kSunflow};
  if (include_solstice) algorithms.push_back(IntraAlgorithm::kSolstice);

  for (auto algorithm : algorithms) {
    // Baseline run at 10 ms.
    IntraRunConfig base_cfg;
    base_cfg.delta = Millis(10);
    base_cfg.threads = threads;
    // --trace_out records each algorithm once, at the paper's δ = 10 ms.
    base_cfg.sink = session.sink();
    const auto base = RunIntra(w.trace, algorithm, base_cfg);
    std::map<CoflowId, double> base_cct;
    for (const auto& rec : base.records) base_cct[rec.id] = rec.cct;

    TextTable table(base.algorithm +
                    " CCT w.r.t. 10ms baseline (per-coflow normalized)");
    table.SetHeader({"delta", "average", "p95"});
    for (const auto& [label, delta] : deltas) {
      IntraRunConfig cfg;
      cfg.delta = delta;
      cfg.threads = threads;
      const auto run = RunIntra(w.trace, algorithm, cfg);
      std::vector<double> normalized;
      for (const auto& rec : run.records) {
        const double b = base_cct.at(rec.id);
        if (b > 0) normalized.push_back(rec.cct / b);
      }
      table.AddRow({label, TextTable::Fmt(stats::Mean(normalized), 2),
                    TextTable::Fmt(stats::Percentile(normalized, 95), 2)});
    }
    if (algorithm == IntraAlgorithm::kSunflow) {
      table.AddFootnote(
          "paper (Sunflow): avg 5.71 / 1.00 / 0.65 / 0.61 / 0.61; p95 13.12 "
          "/ 1.00 / 0.99 / 0.99 / 0.99");
    }
    table.Print(std::cout);
  }
  return session.Finish();
}
