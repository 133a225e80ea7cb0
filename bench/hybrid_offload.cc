// §6 extension: hybrid circuit/packet operation (REACToR-style).
//
// Sweeps the offload threshold: coflows at or below it are served by a
// small companion packet network, the rest by Sunflow on the OCS. Shows
// the §5.4/Fig 9 short-coflow setup penalty being bought back with a
// fraction of the bandwidth.
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
      {.name = "hybrid_offload",
       .help = "Hybrid circuit/packet offload sweep",
       .banner = "Hybrid OCS + packet offload (§6 deployment discussion)"});
  const double packet_gbps = session.flags().GetDouble(
      "packet_gbps", 0.1, "companion packet network bandwidth");
  const double delta_ms =
      session.flags().GetDouble("delta_ms", 10.0, "δ in ms");
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const int threads = session.threads();

  const auto policy = MakeShortestFirstPolicy();

  // One replay per threshold — four independent whole-trace simulations,
  // fanned out over the pool. The 0 MB replay offloads nothing, so it is
  // the pure-OCS baseline: per-threshold rows compare the *offloaded
  // subset's* average CCT against what the same coflows saw there.
  const std::vector<double> thresholds_mb = {0.0, 10.0, 50.0, 200.0};
  std::vector<engine::EngineResult> sweeps(thresholds_mb.size());
  {
    runtime::ThreadPool pool(
        std::min<int>(threads, static_cast<int>(thresholds_mb.size())));
    pool.ParallelFor(0, thresholds_mb.size(), [&](std::size_t i) {
      engine::EngineConfig cfg;
      cfg.sunflow.bandwidth = Gbps(1);
      cfg.sunflow.delta = Millis(delta_ms);
      cfg.packet_bandwidth = Gbps(packet_gbps);
      cfg.offload_threshold = MB(thresholds_mb[i]);
      // --trace_out records the circuit side of the 10 MB replay (the
      // scenario's default threshold); its packet side stays untraced,
      // as in every hybrid replay.
      if (thresholds_mb[i] == 10.0) cfg.sink = session.sink();
      sweeps[i] = engine::ScenarioRegistry::Global().Run("hybrid", w.trace,
                                                         policy.get(), cfg);
    });
  }
  const std::map<CoflowId, Time>& baseline = sweeps[0].cct;

  TextTable table("Offload-threshold sweep (packet side " +
                  TextTable::Fmt(packet_gbps, 2) + " Gbps)");
  table.SetHeader({"threshold", "offloaded", "on OCS", "avg CCT (all)",
                   "avg CCT offloaded set", "same set on pure OCS"});
  for (std::size_t t = 0; t < thresholds_mb.size(); ++t) {
    const double threshold_mb = thresholds_mb[t];
    const auto& result = sweeps[t];
    const Bytes offload_threshold = MB(threshold_mb);
    std::vector<double> all, offloaded_set, same_set_pure;
    for (const Coflow& c : w.trace.coflows) {
      all.push_back(result.cct.at(c.id()));
      if (c.total_bytes() <= offload_threshold) {
        offloaded_set.push_back(result.cct.at(c.id()));
        same_set_pure.push_back(baseline.at(c.id()));
      }
    }
    table.AddRow(
        {TextTable::Fmt(threshold_mb, 0) + " MB",
         std::to_string(result.offloaded), std::to_string(result.circuit),
         TextTable::Fmt(stats::Mean(all), 3) + "s",
         offloaded_set.empty()
             ? "-"
             : TextTable::Fmt(stats::Mean(offloaded_set), 3) + "s",
         same_set_pure.empty()
             ? "-"
             : TextTable::Fmt(stats::Mean(same_set_pure), 3) + "s"});
  }
  table.AddFootnote(
      "threshold 0 = pure OCS baseline; offloaded coflows dodge the circuit "
      "setup penalty but run at a fraction of the bandwidth");
  table.AddFootnote(
      "at δ = 10 ms the SCF-prioritized OCS already serves small coflows "
      "well, so whole-coflow offload only pays at larger δ (try "
      "--delta_ms=100) — consistent with §6 reserving the packet side for "
      "leftover traffic, not whole coflows");
  table.Print(std::cout);
  return session.Finish();
}
