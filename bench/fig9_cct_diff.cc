// Figure 9: per-coflow CCT difference between Sunflow (circuit switched)
// and Varys / Aalo (packet switched) at the original trace load, as a
// function of the coflow's TpL.
//
// Paper: small-TpL coflows finish slower under Sunflow (circuit setup
// penalty); large-TpL coflows often finish *quicker* than under Varys
// (which strands bandwidth between reschedules) and Aalo (which starves
// long subflows).
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "exp/csv_export.h"
#include "exp/inter_runner.h"

int main(int argc, char** argv) {
  using namespace sunflow;
  using namespace sunflow::exp;
  bench::BenchSession session(
      argc, argv,
      {.name = "fig9_cct_diff",
       .help = "Figure 9: per-coflow delta-CCT vs TpL",
       .banner = "Figure 9 — Sunflow CCT minus Varys/Aalo CCT by TpL",
       .engine_default = "circuit",
       .use_timeline = true});
  const double delta_ms =
      session.flags().GetDouble("delta_ms", 10.0, "δ in ms");
  const std::string csv_out = session.flags().GetString(
      "csv_out", "", "write per-coflow (tpl, dcct_varys, dcct_aalo) here");
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const int threads = session.threads();
  const std::string& engine = session.engine();

  InterRunConfig cfg;
  cfg.delta = Millis(delta_ms);
  cfg.engine = engine;
  cfg.threads = threads;  // Sunflow/Varys/Aalo replays fan out
  cfg.sink = session.sink();  // traces the Sunflow circuit replay
  cfg.timeline = session.timeline();  // samples the Sunflow circuit replay
  const auto cmp = RunInterComparison(w.trace, cfg);

  // Bucket coflows by TpL quintile and report ΔCCT stats per bucket.
  std::vector<std::pair<double, CoflowId>> by_tpl;
  for (const auto& [id, tpl] : cmp.tpl) by_tpl.push_back({tpl, id});
  std::sort(by_tpl.begin(), by_tpl.end());

  for (const auto& [name, other] :
       {std::pair{std::string("Varys"), &cmp.varys},
        std::pair{std::string("Aalo"), &cmp.aalo}}) {
    TextTable table("ΔCCT = Sunflow − " + name + " (seconds), by TpL bucket");
    table.SetHeader({"TpL bucket", "count", "mean Δ", "p50 Δ", "frac Δ<0"});
    const std::size_t buckets = 5;
    const std::size_t per = (by_tpl.size() + buckets - 1) / buckets;
    for (std::size_t b = 0; b < buckets; ++b) {
      std::vector<double> diffs;
      double lo = 1e30, hi = 0;
      for (std::size_t i = b * per;
           i < std::min(by_tpl.size(), (b + 1) * per); ++i) {
        const auto [tpl, id] = by_tpl[i];
        diffs.push_back(cmp.sunflow.at(id) - other->at(id));
        lo = std::min(lo, tpl);
        hi = std::max(hi, tpl);
      }
      if (diffs.empty()) continue;
      table.AddRow({TextTable::Fmt(lo, 2) + "s–" + TextTable::Fmt(hi, 2) +
                        "s",
                    std::to_string(diffs.size()),
                    TextTable::Fmt(stats::Mean(diffs), 3),
                    TextTable::Fmt(stats::Median(diffs), 3),
                    TextTable::FmtPct(
                        stats::FractionAtMost(diffs, -1e-12), 0)});
    }
    const auto all = InterComparison::Differences(cmp.sunflow, *other);
    table.AddFootnote("overall: mean Δ = " +
                      TextTable::Fmt(stats::Mean(all), 3) + "s, " +
                      TextTable::FmtPct(stats::FractionAtMost(all, -1e-12),
                                        0) +
                      " of coflows faster under Sunflow");
    table.AddFootnote(
        "paper shape: Δ>0 for small TpL (circuit setup), increasingly Δ<0 "
        "for large TpL");
    table.Print(std::cout);
  }

  if (!csv_out.empty()) {
    CsvColumn tpl_col{"tpl_seconds", {}}, dv{"delta_vs_varys", {}},
        da{"delta_vs_aalo", {}};
    for (const auto& [id, tpl] : cmp.tpl) {
      tpl_col.values.push_back(tpl);
      dv.values.push_back(cmp.sunflow.at(id) - cmp.varys.at(id));
      da.values.push_back(cmp.sunflow.at(id) - cmp.aalo.at(id));
    }
    WriteCsv(csv_out, {tpl_col, dv, da});
    std::cout << "per-coflow data written to " << csv_out << "\n";
  }
  return session.Finish();
}
