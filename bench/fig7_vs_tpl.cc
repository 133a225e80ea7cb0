// Figure 7: Sunflow CCT against the packet-switched lower bound TpL, split
// into long and short coflows (long: p_avg > 40 δ).
//
// Paper: long coflows (25.2% of coflows, 98.8% of bytes) achieve
// CCT/TpL = 1.09 mean / 1.25 p95; overall 1.86 mean / 2.31 p95; everything
// within the 4.5x Lemma-2 bound (α = 1.25); rank correlation between p_avg
// and CCT/TpL is -0.96.
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "exp/csv_export.h"
#include "exp/intra_runner.h"
#include "trace/bounds.h"

int main(int argc, char** argv) {
  using namespace sunflow;
  using namespace sunflow::exp;
  bench::BenchSession session(
      argc, argv,
      {.name = "fig7_vs_tpl",
       .help = "Figure 7: Sunflow CCT vs TpL",
       .banner = "Figure 7 — Sunflow CCT vs packet lower bound"});
  const double delta_ms =
      session.flags().GetDouble("delta_ms", 10.0, "δ in ms");
  const std::string csv_out = session.flags().GetString(
      "csv_out", "", "write per-coflow (tpl, cct, pavg, long) rows here");
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const int threads = session.threads();

  IntraRunConfig cfg;
  cfg.delta = Millis(delta_ms);
  cfg.threads = threads;
  cfg.sink = session.sink();
  const auto run = RunIntra(w.trace, IntraAlgorithm::kSunflow, cfg);

  std::vector<double> all_r, long_r, short_r, pavg, lemma2_bound;
  Bytes long_bytes = 0, total_bytes = 0;
  int long_count = 0;
  for (const auto& rec : run.records) {
    const double r = rec.CctOverTpl();
    all_r.push_back(r);
    pavg.push_back(rec.pavg);
    total_bytes += rec.bytes;
    if (IsLongCoflow(rec, cfg.delta)) {
      long_r.push_back(r);
      long_bytes += rec.bytes;
      ++long_count;
    } else {
      short_r.push_back(r);
    }
  }
  // Per-coflow Lemma 2 check: CCT <= 2(1+α)·TpL.
  int lemma2_violations = 0;
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    const auto& rec = run.records[i];
    const Coflow& coflow = w.trace.coflows[i];
    const double alpha = LemmaTwoAlpha(coflow, cfg.bandwidth, cfg.delta);
    if (rec.cct > 2 * (1 + alpha) * rec.tpl + 1e-9) ++lemma2_violations;
  }

  TextTable table("Sunflow CCT/TpL");
  table.SetHeader({"coflows", "count", "bytes%", "mean", "p50", "p95", "max"});
  auto add = [&](const std::string& name, const std::vector<double>& data,
                 double bytes_pct) {
    if (data.empty()) return;
    const auto s = stats::Summarize(data);
    table.AddRow({name, std::to_string(s.count),
                  TextTable::Fmt(bytes_pct, 1), TextTable::Fmt(s.mean, 3),
                  TextTable::Fmt(s.p50, 3), TextTable::Fmt(s.p95, 3),
                  TextTable::Fmt(s.max, 2)});
  };
  add("long (pavg>40δ)", long_r, 100.0 * long_bytes / total_bytes);
  add("short", short_r, 100.0 * (total_bytes - long_bytes) / total_bytes);
  add("all", all_r, 100.0);
  table.AddFootnote("paper: long 1.09 mean / 1.25 p95; all 1.86 / 2.31");
  table.AddFootnote(
      "paper: long coflows are 25.2% of coflows, 98.8% of bytes (here " +
      TextTable::Fmt(100.0 * long_count /
                         static_cast<double>(run.records.size()),
                     1) +
      "% / " + TextTable::Fmt(100.0 * long_bytes / total_bytes, 1) + "%)");
  table.AddFootnote(
      "rank corr(pavg, CCT/TpL) = " +
      TextTable::Fmt(stats::SpearmanCorrelation(pavg, all_r), 3) +
      " (paper: -0.96)");
  table.AddFootnote("Lemma-2 violations: " +
                    std::to_string(lemma2_violations) + " (must be 0)");
  table.Print(std::cout);

  PrintCdf(std::cout, "Sunflow CCT/TpL (all coflows)", all_r);

  if (!csv_out.empty()) {
    CsvColumn tpl_col{"tpl_seconds", {}}, cct_col{"cct_seconds", {}},
        pavg_col{"pavg_seconds", {}}, long_col{"is_long", {}};
    for (const auto& rec : run.records) {
      tpl_col.values.push_back(rec.tpl);
      cct_col.values.push_back(rec.cct);
      pavg_col.values.push_back(rec.pavg);
      long_col.values.push_back(IsLongCoflow(rec, cfg.delta) ? 1 : 0);
    }
    WriteCsv(csv_out, {tpl_col, cct_col, pavg_col, long_col});
    std::cout << "per-coflow data written to " << csv_out << "\n";
  }
  return session.Finish();
}
