// Figure 4: distribution of CCT/TcL and CCT/TpL on many-to-many coflows
// for Sunflow and Solstice (B = 1 Gbps, δ = 10 ms).
//
// Paper: Sunflow CCT/TcL on M2M is 1.10 mean / 1.46 p95 (bounded by 2);
// Solstice 2.81 mean / 7.70 p95. All Sunflow CCT/TpL < 4.5 (Lemma 2 with
// α = 1.25).
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
      {.name = "fig4_m2m_cdf",
       .help = "Figure 4: M2M CDFs of CCT over bounds",
       .banner = "Figure 4 — CCT over lower bounds on many-to-many coflows"});
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const int threads = session.threads();

  IntraRunConfig cfg;
  cfg.threads = threads;
  // --trace_out records both algorithms' runs, as fig5 does.
  cfg.sink = session.sink();
  TextTable table("M2M summary");
  table.SetHeader({"series", "mean", "p50", "p95", "max"});
  for (auto algorithm :
       {IntraAlgorithm::kSunflow, IntraAlgorithm::kSolstice}) {
    const auto run = RunIntra(w.trace, algorithm, cfg);
    std::vector<double> over_tcl, over_tpl;
    for (const auto& rec : run.records) {
      if (rec.category != CoflowCategory::kManyToMany) continue;
      over_tcl.push_back(rec.CctOverTcl());
      over_tpl.push_back(rec.CctOverTpl());
    }
    for (const auto& [name, data] :
         {std::pair{std::string(" CCT/TcL"), &over_tcl},
          std::pair{std::string(" CCT/TpL"), &over_tpl}}) {
      const auto s = stats::Summarize(*data);
      table.AddRow({run.algorithm + name, TextTable::Fmt(s.mean, 3),
                    TextTable::Fmt(s.p50, 3), TextTable::Fmt(s.p95, 3),
                    TextTable::Fmt(s.max, 2)});
    }
    PrintCdf(std::cout, run.algorithm + " CCT/TcL (M2M)", over_tcl);
    PrintCdf(std::cout, run.algorithm + " CCT/TpL (M2M)", over_tpl);
    PrintCdfAscii(std::cout, run.algorithm + " CCT/TcL (M2M)", over_tcl, 1.0,
                  8.0);
  }
  table.AddFootnote("paper: Sunflow CCT/TcL 1.10 mean / 1.46 p95 (< 2)");
  table.AddFootnote("paper: Solstice CCT/TcL 2.81 mean / 7.70 p95");
  table.Print(std::cout);
  return session.Finish();
}
