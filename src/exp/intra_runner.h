// Intra-Coflow experiment runner (§5.3).
//
// Evaluates each coflow of a trace in isolation ("a Coflow arrives only
// after the previous one is finished"): for each coflow it records the
// lower bounds, the CCT achieved by the chosen algorithm, and the circuit
// switching count. These records feed Figs 3–7 and the ordering and
// all-stop ablations.
#pragma once

#include <string>
#include <vector>

#include "core/fabric.h"
#include "core/sunflow.h"
#include "obs/trace_sink.h"
#include "trace/coflow.h"

namespace sunflow::exp {

enum class IntraAlgorithm { kSunflow, kSolstice, kTms, kEdmonds };

const char* ToString(IntraAlgorithm a);

struct IntraRunConfig {
  Bandwidth bandwidth = Gbps(1);
  Time delta = Millis(10);
  /// Sunflow only: switch-plane layout (core/fabric.h). Empty = classic
  /// single-plane fabric; Uniform(1, delta, bandwidth) is byte-identical
  /// to empty (the K=1 equivalence contract the golden suite pins).
  FabricSpec fabric;
  /// Sunflow only: reservation ordering (§5.3.1 sensitivity).
  ReservationOrder order = ReservationOrder::kOrderedPort;
  std::uint64_t shuffle_seed = 1;
  /// Baselines only: execute the assignment sequence under the all-stop
  /// switch model instead of not-all-stop (ablation of §3.1.2).
  bool all_stop = false;
  /// Optional structured event tracer. Intra evaluation runs coflows
  /// back-to-back ("a Coflow arrives only after the previous one is
  /// finished"), so each coflow's events are shifted onto a shared
  /// sequential clock before emission.
  obs::TraceSink* sink = nullptr;
  /// Worker threads for the per-coflow fan-out (runtime::SweepRunner).
  /// Coflows are evaluated in isolation, so records, metrics counts and
  /// the merged event stream are bit-identical at any thread count;
  /// 1 (default) runs inline on the caller, <= 0 uses all hardware
  /// threads. Benches wire this to the shared --threads flag.
  int threads = 1;
};

/// Per-coflow record: identity, bounds and measured performance.
struct IntraRecord {
  CoflowId id = -1;
  CoflowCategory category = CoflowCategory::kOneToOne;
  std::size_t num_flows = 0;
  Bytes bytes = 0;
  Time pavg = 0;  ///< average processing time (long/short split, §5.3.2)
  Time tcl = 0;   ///< circuit-switched lower bound
  Time tpl = 0;   ///< packet-switched lower bound
  Time cct = 0;
  int switching_count = 0;

  double CctOverTcl() const { return tcl > 0 ? cct / tcl : 1.0; }
  double CctOverTpl() const { return tpl > 0 ? cct / tpl : 1.0; }
  /// Fig 5's normalization: switching events over the minimum (=|C|).
  double NormalizedSwitching() const {
    return num_flows > 0
               ? static_cast<double>(switching_count) /
                     static_cast<double>(num_flows)
               : 1.0;
  }
};

struct IntraRunResult {
  std::string algorithm;
  IntraRunConfig config;
  std::vector<IntraRecord> records;

  /// Extracts one field across records (for stats::Summarize).
  std::vector<double> Collect(double (*fn)(const IntraRecord&)) const;
};

/// Runs the algorithm over every coflow of the trace independently.
IntraRunResult RunIntra(const Trace& trace, IntraAlgorithm algorithm,
                        const IntraRunConfig& config);

/// Paper §5.3.2: a coflow is "long" if its average processing time exceeds
/// `multiple`·δ. The paper's text says 40×δ but parenthetically equates
/// this to "an average subflow size of ≥ 5 MB", which at B = 1 Gbps and
/// δ = 10 ms is 4×δ — and only the 4×δ reading reproduces the stated
/// 25.2%-of-coflows / 98.8%-of-bytes long split, so 4 is the default.
bool IsLongCoflow(const IntraRecord& record, Time delta,
                  double multiple = 4.0);

/// The same split keyed on avg processing time directly (for inter runs).
bool IsLongCoflow(Time pavg, Time delta, double multiple = 4.0);

}  // namespace sunflow::exp
