// Full cluster trace replay: Sunflow (optical circuit switch) head-to-head
// with Varys and Aalo (packet switch) and a FIFO circuit baseline.
//
// Replays a Facebook-like coflow trace (or a real coflow-benchmark file
// via --trace=...) and reports average / p95 CCT per scheme plus the
// slowdown distribution relative to the per-coflow packet lower bound.
//
//   ./cluster_replay [--coflows=200] [--ports=150] [--delta_ms=10]
//                    [--trace=FB2010-1Hr-150-0.txt]
#include <iostream>
#include <vector>

#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/policy.h"
#include "exp/inter_runner.h"
#include "packet/aalo.h"
#include "packet/fair_share.h"
#include "packet/replay.h"
#include "packet/varys.h"
#include "sim/engine/scenario.h"
#include "trace/bounds.h"
#include "trace/generator.h"
#include "trace/idleness.h"
#include "trace/parser.h"

using namespace sunflow;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string path = flags.GetString("trace", "", "trace file");
  const auto coflows = flags.GetInt("coflows", 200, "synthetic coflows");
  const auto ports = flags.GetInt("ports", 150, "fabric ports");
  const double delta_ms = flags.GetDouble("delta_ms", 10, "reconfig delay");
  if (flags.help_requested()) {
    flags.PrintHelp("Cluster replay: Sunflow vs Varys vs Aalo vs FIFO");
    return 0;
  }

  Trace trace;
  if (!path.empty()) {
    trace = ParseCoflowBenchmarkFile(path);
  } else {
    SyntheticTraceConfig cfg;
    cfg.num_coflows = static_cast<int>(coflows);
    cfg.num_ports = static_cast<PortId>(ports);
    trace = PerturbFlowSizes(GenerateSyntheticTrace(cfg), 0.05, MB(1), 7);
  }
  std::printf("replaying %zu coflows on %d ports, idleness %.0f%%\n\n",
              trace.coflows.size(), trace.num_ports,
              NetworkIdleness(trace, Gbps(1)) * 100);

  struct Scheme {
    std::string name;
    std::map<CoflowId, Time> cct;
  };
  std::vector<Scheme> schemes;

  {
    auto& registry = engine::ScenarioRegistry::Global();
    engine::EngineConfig cfg;
    cfg.sunflow.delta = Millis(delta_ms);
    const auto scf = MakeShortestFirstPolicy();
    schemes.push_back({"Sunflow (OCS, SCF)",
                       registry.Run("circuit", trace, scf.get(), cfg).cct});
    const auto fifo = MakeFifoPolicy();
    schemes.push_back({"Sunflow (OCS, FIFO)",
                       registry.Run("circuit", trace, fifo.get(), cfg).cct});
  }
  {
    packet::PacketReplayConfig cfg;
    auto varys = packet::MakeVarysAllocator();
    schemes.push_back(
        {"Varys (packet)", packet::ReplayPacketTrace(trace, *varys, cfg).cct});
    auto aalo = packet::MakeAaloAllocator();
    schemes.push_back(
        {"Aalo (packet)", packet::ReplayPacketTrace(trace, *aalo, cfg).cct});
    auto fair = packet::MakeFairShareAllocator();
    schemes.push_back({"per-flow fair (packet)",
                       packet::ReplayPacketTrace(trace, *fair, cfg).cct});
  }

  std::map<CoflowId, Time> tpl;
  for (const Coflow& c : trace.coflows)
    tpl[c.id()] = PacketLowerBound(c, Gbps(1));

  TextTable table("Coflow completion times");
  table.SetHeader(
      {"scheme", "avg CCT", "p50", "p95", "avg CCT/TpL", "p95 CCT/TpL"});
  for (const auto& scheme : schemes) {
    std::vector<double> ccts, slowdowns;
    for (const auto& [id, cct] : scheme.cct) {
      ccts.push_back(cct);
      if (tpl.at(id) > 0) slowdowns.push_back(cct / tpl.at(id));
    }
    table.AddRow({scheme.name, TextTable::Fmt(stats::Mean(ccts), 2) + "s",
                  TextTable::Fmt(stats::Percentile(ccts, 50), 2) + "s",
                  TextTable::Fmt(stats::Percentile(ccts, 95), 2) + "s",
                  TextTable::Fmt(stats::Mean(slowdowns), 2),
                  TextTable::Fmt(stats::Percentile(slowdowns, 95), 2)});
  }
  table.AddFootnote(
      "Sunflow pays circuit setup on short coflows but matches packet "
      "switching on the heavy ones (§5.4)");
  table.Print(std::cout);
  return 0;
}
