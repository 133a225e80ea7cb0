// Microbenchmark of the discrete-event kernel's plan/execute/replan loop
// (sim/engine): wall-clock replans/sec for a whole-trace replay, plus the
// event-queue traffic the run generated. Throughput lands in the metrics
// registry as engine.replans_per_sec next to the driver-maintained
// engine.event_pushes / engine.event_pops counters, and the run manifest
// carries the phase breakdown (engine.plan / engine.execute / ...), so
// one run yields everything a regression dashboard needs.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/policy.h"
#include "obs/metrics.h"
#include "sim/engine/scenario.h"
#include "trace/generator.h"

namespace {

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

// Full-precision CCT dump, one "<label> <coflow> <cct>" line per coflow in
// id order. Wall-clock never enters the file, so two runs of the same
// workload must produce byte-identical dumps — the cross-process
// determinism contract CI enforces by diffing a --threads=1 run against a
// --threads=8 run (every replan plans serially, so --threads must not
// matter either).
void DumpCcts(std::ofstream& out, const std::string& label,
              const std::map<sunflow::CoflowId, sunflow::Time>& cct) {
  char buf[64];
  for (const auto& [id, t] : cct) {
    std::snprintf(buf, sizeof(buf), "%.17g", t);
    out << label << " " << id << " " << buf << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sunflow;
  bench::BenchSession session(
      argc, argv,
      {.name = "engine_replan",
       .help = "Microbench: kernel replans/sec and queue traffic",
       .engine_default = "circuit"});
  const auto repeat = session.flags().GetInt(
      "repeat", 3, "timed whole-trace replay repetitions");
  const std::string sweep_csv = session.flags().GetString(
      "sweep_coflows", "",
      "comma-separated coflow counts (e.g. 20,40,80,160): additionally "
      "replay a regenerated synthetic workload at each count and record "
      "sweep.N<k>.replans_per_sec in the manifest");
  const std::string cct_out = session.flags().GetString(
      "cct_out", "",
      "write per-coflow CCTs (full precision, deterministic order) to this "
      "file; byte-identical across --threads values");
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const std::string& engine_name = session.engine();

  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec;

  std::ofstream cct_file;
  if (!cct_out.empty()) {
    cct_file.open(cct_out);
    if (!cct_file) {
      std::cerr << "cannot open --cct_out file: " << cct_out << "\n";
      return 1;
    }
  }

  TextTable table("replan-loop throughput (" + engine_name + ")");
  table.SetHeader({"run", "replans", "wall ms", "replans/sec", "evq pushes",
                   "evq pops", "evq hwm"});
  auto& throughput =
      obs::GlobalMetrics().GetHistogram("engine.replans_per_sec");
  double best_rps = 0;
  for (int r = 0; r < repeat; ++r) {
    // Sample and trace only the first timed replay — BeginRun resets the
    // sampler, so attaching every repetition would keep just the last and
    // charge its windows a second warm-cache pass, and a second replay
    // would repeat every event in the trace.
    ec.timeline = r == 0 ? session.timeline() : nullptr;
    ec.sink = r == 0 ? session.sink() : nullptr;
    const auto begin = std::chrono::steady_clock::now();
    const engine::EngineResult result =
        engine::ScenarioRegistry::Global().Run(engine_name, w.trace,
                                               policy.get(), ec);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    const double rps = seconds > 0 ? result.replans / seconds : 0;
    throughput.Record(rps);
    best_rps = std::max(best_rps, rps);
    table.AddRow({std::to_string(r), std::to_string(result.replans),
                  TextTable::Fmt(seconds * 1e3, 2), TextTable::Fmt(rps, 0),
                  std::to_string(result.queue.pushes),
                  std::to_string(result.queue.pops),
                  std::to_string(result.queue.depth_high_water)});
    if (cct_file.is_open() && r == 0) DumpCcts(cct_file, "main", result.cct);
  }
  table.AddFootnote(
      "engine.event_pushes / engine.event_pops accumulate in the metrics "
      "registry (--metrics / --metrics_csv)");
  table.Print(std::cout);
  session.AddManifestValue("replans_per_sec_best", best_rps);

  // Scaling sweep: regenerate the synthetic workload at each requested
  // coflow count (same ports / seed / perturbation as the main run) and
  // record per-N throughput, so a regression harness can check that
  // replan cost stays sub-quadratic in the active-set size. Its replays
  // are neither sampled nor traced.
  ec.timeline = nullptr;
  ec.sink = nullptr;
  if (!sweep_csv.empty()) {
    const auto ports = session.flags().GetInt("ports", 150);
    const auto seed = session.flags().GetInt("seed", 20161212);
    const double perturb = session.flags().GetDouble("perturb", 0.05);
    TextTable sweep_table("replan scaling sweep (" + engine_name + ")");
    sweep_table.SetHeader({"coflows", "replans", "best replans/sec"});
    for (const int n : ParseIntList(sweep_csv)) {
      SyntheticTraceConfig cfg;
      cfg.num_coflows = n;
      cfg.num_ports = static_cast<PortId>(ports);
      cfg.seed = static_cast<std::uint64_t>(seed);
      Trace trace = GenerateSyntheticTrace(cfg);
      if (perturb > 0) {
        trace = PerturbFlowSizes(trace, perturb, MB(1),
                                 static_cast<std::uint64_t>(seed) + 1);
      }
      double best = 0;
      int replans = 0;
      for (int r = 0; r < repeat; ++r) {
        const auto begin = std::chrono::steady_clock::now();
        const engine::EngineResult result =
            engine::ScenarioRegistry::Global().Run(engine_name, trace,
                                                   policy.get(), ec);
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - begin)
                                   .count();
        best = std::max(best, seconds > 0 ? result.replans / seconds : 0);
        replans = result.replans;
        if (cct_file.is_open() && r == 0) {
          DumpCcts(cct_file, "sweep.N" + std::to_string(n), result.cct);
        }
      }
      sweep_table.AddRow({std::to_string(n), std::to_string(replans),
                          TextTable::Fmt(best, 0)});
      session.AddManifestValue(
          "sweep.N" + std::to_string(n) + ".replans_per_sec", best);
    }
    sweep_table.Print(std::cout);
  }
  return session.Finish();
}
