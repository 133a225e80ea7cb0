// Inter-Coflow experiment runner (§5.4).
//
// Replays the full trace (arrival times included) under Sunflow with the
// shortest-Coflow-first policy on the circuit switch, and under Varys and
// Aalo on the packet switch, and aligns the per-coflow CCTs for ratio /
// difference analysis (Figs 8–10 and the §5.4 ratio paragraphs).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "trace/coflow.h"

namespace sunflow::obs {
class TimelineSampler;
class TraceSink;
}  // namespace sunflow::obs

namespace sunflow::exp {

struct InterRunConfig {
  Bandwidth bandwidth = Gbps(1);
  Time delta = Millis(10);
  /// Switch-plane layout for the optical arm (core/fabric.h). Empty =
  /// classic single-plane fabric; Uniform(1, delta, bandwidth) is
  /// byte-identical to empty (the K=1 equivalence contract).
  FabricSpec fabric;
  /// Named kernel scenario (sim/engine registry) for the optical-switch
  /// arm of the comparison. "circuit" is the paper's Sunflow replay;
  /// other registered scenarios ("guarded", "rotor", "hybrid") slot in
  /// unchanged for ablations. Benches wire the shared --engine flag here.
  std::string engine = "circuit";
  /// Optional structured event tracer for the Sunflow circuit replay
  /// (packet baselines are not traced).
  obs::TraceSink* sink = nullptr;
  /// Optional sim-time telemetry sampler for the Sunflow circuit replay
  /// (obs/timeline.h; packet baselines are not sampled). Not owned.
  obs::TimelineSampler* timeline = nullptr;
  /// Worker threads. The three replays (Sunflow circuit, Varys, Aalo) are
  /// independent whole-trace simulations, so they fan out across up to
  /// three workers; each writes its own CCT map, keeping the comparison
  /// bit-identical at any thread count. 1 (default) runs serially inline,
  /// <= 0 uses all hardware threads. Benches wire the --threads flag here.
  int threads = 1;
};

struct InterComparison {
  /// Per-coflow CCT under each scheme (same key set: all trace coflows).
  std::map<CoflowId, Time> sunflow;
  std::map<CoflowId, Time> varys;
  std::map<CoflowId, Time> aalo;
  /// Per-coflow static TpL at the run bandwidth (Fig 7/9 x-axis; long/short
  /// split) and pavg.
  std::map<CoflowId, Time> tpl;
  std::map<CoflowId, Time> pavg;

  double AvgCct(const std::map<CoflowId, Time>& cct) const;
  /// Per-coflow differences a−b (Fig 9's ΔCCT).
  static std::vector<double> Differences(const std::map<CoflowId, Time>& a,
                                         const std::map<CoflowId, Time>& b);
};

InterComparison RunInterComparison(const Trace& trace,
                                   const InterRunConfig& config);

}  // namespace sunflow::exp
