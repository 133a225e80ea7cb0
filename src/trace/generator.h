// Synthetic workload generation.
//
// The paper's workload is a one-hour Facebook Hive/MapReduce trace
// (~526 coflows, 150 ports) that is not redistributable offline. This
// generator produces a seeded synthetic trace calibrated to the published
// statistics (Table 4 category mix, MB-rounded sizes with a 1 MB floor,
// heavy-tailed many-to-many coflows carrying ~99.9% of bytes) so every
// experiment exercises the same code paths as the real trace.
//
// It also provides the two trace transforms used by §5:
//  - PerturbFlowSizes: ±p% size jitter, re-floored at 1 MB (gives the
//    α = 1.25 → 4.5× Lemma-2 bound in the paper's setup), and
//  - building back-to-back (intra-evaluation) arrival schedules.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "trace/coflow.h"

namespace sunflow {

struct SyntheticTraceConfig {
  PortId num_ports = 150;
  int num_coflows = 526;
  Time horizon = 3600.0;  ///< arrivals spread over one hour
  std::uint64_t seed = 20161212;  ///< CoNEXT'16 dates make a fine seed
  // The category mix, fan widths and flow sizes are fixed calibration
  // constants (generator.cc).

  /// Draw arrivals i.i.d. Uniform(0, horizon) instead of cumulative
  /// Poisson gaps. The *streamed* emission order is then generation
  /// order, NOT arrival order — the input shape the external sorter
  /// (trace/extsort.h) exists for. The whole-trace overload sorts before
  /// validating, so its result is still a valid Trace.
  bool iid_arrivals = false;
};

/// Generates a trace: Poisson arrivals over the horizon, category-labelled
/// coflows, MB-rounded flow sizes with a 1 MB floor. Deterministic per seed.
Trace GenerateSyntheticTrace(const SyntheticTraceConfig& config);

/// Streaming variant: emits each generated coflow to `sink` and never
/// materializes the trace — generation memory is O(one coflow), so
/// million-coflow traces generate straight to disk (wire the sink to a
/// TraceWriter). Identical coflow sequence to the whole-trace overload
/// (same seed ⇒ same draws, pre-sort).
void GenerateSyntheticTrace(const SyntheticTraceConfig& config,
                            const std::function<void(Coflow&&)>& sink);

/// §5.1: adds ±fraction perturbation to each flow size, re-floors at
/// min_bytes, keeps structure. Deterministic per seed.
Trace PerturbFlowSizes(const Trace& trace, double fraction, Bytes min_bytes,
                       std::uint64_t seed);

/// Intra-Coflow evaluation arrival model (§5.1): "a Coflow arrives only
/// after the previous one is finished" — i.e. arrival times are ignored.
/// Returns the same coflows with arrival 0, preserving order.
Trace ToBackToBack(const Trace& trace);

}  // namespace sunflow
