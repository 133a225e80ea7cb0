// Figure 8 (and the §5.4 ratio paragraphs): inter-Coflow scheduling.
//
// Part 1 — per-coflow CCT ratios at the original trace load:
//   paper: Sunflow/Varys 1.87x mean (2.52x p95); Sunflow/Aalo 1.69x (2.37x);
//   short coflows 2.16x / 1.96x; long coflows 1.07x / 0.90x.
// Part 2 — network efficiency (average CCT) across idleness levels:
//   paper: Sunflow's avg CCT is 0.98-1.01x of Varys and 0.48-0.83x of Aalo
//   at 12-40% idleness, degrading to 3.27x / 2.40x at 98% idleness.
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "exp/inter_runner.h"
#include "exp/intra_runner.h"
#include "trace/idleness.h"

int main(int argc, char** argv) {
  using namespace sunflow;
  using namespace sunflow::exp;
  bench::BenchSession session(
      argc, argv,
      {.name = "fig8_inter_idleness",
       .help = "Figure 8: inter-Coflow avg CCT vs idleness",
       .banner = "Figure 8 — inter-Coflow comparison with Varys and Aalo",
       .engine_default = "circuit",
       .use_timeline = true});
  const double delta_ms =
      session.flags().GetDouble("delta_ms", 10.0, "δ in ms");
  const bool all_bandwidths = session.flags().GetBool(
      "all_bandwidths", false, "also sweep B = 10 and 100 Gbps");
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const int threads = session.threads();
  const std::string& engine = session.engine();
  bench::BenchTracer& tracer = session.tracer();

  InterRunConfig cfg;
  cfg.delta = Millis(delta_ms);
  cfg.engine = engine;
  cfg.threads = threads;  // the 3 replays per comparison run fan out
  // Trace and sample only the original-load Sunflow replay (Part 1); the
  // idleness sweep below reuses cfg without the sink or sampler — so the
  // manifest's idle.fraction aggregate describes the same run as the
  // NetworkIdleness() print below (they must agree within 1%).
  cfg.sink = tracer.sink();
  cfg.timeline = session.timeline();

  // ---- Part 1: per-coflow CCT ratios at the original load. ----
  const double original_idleness = NetworkIdleness(w.trace, cfg.bandwidth);
  std::printf("original trace idleness at 1 Gbps: %.0f%% (paper: 12%%)\n\n",
              original_idleness * 100);
  const auto cmp = RunInterComparison(w.trace, cfg);
  cfg.sink = nullptr;
  cfg.timeline = nullptr;

  TextTable ratios("Per-coflow CCT ratios (original load)");
  ratios.SetHeader({"pair", "coflows", "mean", "p50", "p95"});
  auto add_ratio = [&](const std::string& name,
                       const std::map<CoflowId, Time>& a,
                       const std::map<CoflowId, Time>& b, bool long_only,
                       bool short_only) {
    std::vector<double> rs;
    for (const auto& [id, va] : a) {
      const double tpl = cmp.tpl.at(id);
      const double pavg = cmp.pavg.at(id);
      const bool is_long = IsLongCoflow(pavg, cfg.delta);
      if (long_only && !is_long) continue;
      if (short_only && is_long) continue;
      const double vb = b.at(id);
      if (vb > 0 && tpl >= 0) rs.push_back(va / vb);
    }
    if (rs.empty()) return;
    const auto s = stats::Summarize(rs);
    ratios.AddRow({name, std::to_string(s.count), TextTable::Fmt(s.mean, 2),
                   TextTable::Fmt(s.p50, 2), TextTable::Fmt(s.p95, 2)});
  };
  add_ratio("Sunflow/Varys (all)", cmp.sunflow, cmp.varys, false, false);
  add_ratio("Sunflow/Varys (short)", cmp.sunflow, cmp.varys, false, true);
  add_ratio("Sunflow/Varys (long)", cmp.sunflow, cmp.varys, true, false);
  add_ratio("Sunflow/Aalo  (all)", cmp.sunflow, cmp.aalo, false, false);
  add_ratio("Sunflow/Aalo  (short)", cmp.sunflow, cmp.aalo, false, true);
  add_ratio("Sunflow/Aalo  (long)", cmp.sunflow, cmp.aalo, true, false);
  ratios.AddFootnote(
      "paper: Sunflow/Varys 1.87 mean, 2.52 p95 (short 2.16, long 1.07)");
  ratios.AddFootnote(
      "paper: Sunflow/Aalo 1.69 mean, 2.37 p95 (short 1.96, long 0.90)");
  ratios.Print(std::cout);

  // ---- Part 2: average CCT across idleness levels (Fig 8 proper). ----
  TextTable fig8("Normalized average CCT vs network idleness");
  fig8.SetHeader({"idleness", "factor", "avgCCT Sunflow", "avgCCT Varys",
                  "avgCCT Aalo", "Sun/Varys", "Sun/Aalo"});
  auto add_row = [&](const std::string& label, const InterComparison& c,
                     double factor) {
    const double sun = c.AvgCct(c.sunflow);
    const double varys = c.AvgCct(c.varys);
    const double aalo = c.AvgCct(c.aalo);
    fig8.AddRow({label, TextTable::Fmt(factor, 3),
                 TextTable::Fmt(sun, 2) + "s", TextTable::Fmt(varys, 2) + "s",
                 TextTable::Fmt(aalo, 2) + "s",
                 TextTable::Fmt(sun / varys, 2),
                 TextTable::Fmt(sun / aalo, 2)});
  };
  // The original-load row is Part 1's comparison: its sink and sampler
  // only observed, so its numbers are those of an untraced replay.
  add_row("original (" + TextTable::FmtPct(original_idleness, 0) + ")", cmp,
          1.0);
  for (double target : {0.20, 0.40, 0.81, 0.98}) {
    const auto scaled =
        ScaleTraceToIdleness(w.trace, cfg.bandwidth, target, 0.01);
    add_row(TextTable::FmtPct(scaled.achieved_idleness, 0),
            RunInterComparison(scaled.trace, cfg), scaled.factor);
  }
  // Paper Fig 8 repeats the sweep at 10 and 100 Gbps (byte sizes re-scaled
  // to the same idleness levels at each B); pass --all_bandwidths to run
  // them — each extra B roughly doubles the runtime.
  if (all_bandwidths) {
    for (double gbps : {10.0, 100.0}) {
      InterRunConfig bcfg = cfg;
      bcfg.bandwidth = Gbps(gbps);
      for (double target : {0.20, 0.40, 0.81, 0.98}) {
        const auto scaled =
            ScaleTraceToIdleness(w.trace, bcfg.bandwidth, target, 0.01);
        const auto c = RunInterComparison(scaled.trace, bcfg);
        const double sun = c.AvgCct(c.sunflow);
        fig8.AddRow({TextTable::FmtPct(scaled.achieved_idleness, 0) + " @" +
                         TextTable::Fmt(gbps, 0) + "G",
                     TextTable::Fmt(scaled.factor, 3),
                     TextTable::Fmt(sun, 2) + "s",
                     TextTable::Fmt(c.AvgCct(c.varys), 2) + "s",
                     TextTable::Fmt(c.AvgCct(c.aalo), 2) + "s",
                     TextTable::Fmt(sun / c.AvgCct(c.varys), 2),
                     TextTable::Fmt(sun / c.AvgCct(c.aalo), 2)});
      }
    }
  }
  fig8.AddFootnote(
      "paper Sun/Varys: 0.98 / 1.00 / 1.01 (12-40%), 1.24 (81%), 3.27 "
      "(98%)");
  fig8.AddFootnote(
      "paper Sun/Aalo: 0.48-0.83 (12-40%), 0.95 (81%), 2.40 (98%)");
  fig8.Print(std::cout);
  return session.Finish();
}
