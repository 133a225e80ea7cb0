// Causal CCT attribution — decompose each coflow's completion time into
// additive components from a structured event trace.
//
// The analyzer partitions every coflow's [admitted, completed) interval
// into elementary segments and labels each by priority: transmit (a
// circuit of this coflow was up and past its setup prefix) > δ stall (a
// setup prefix was in progress) > contention (every pending flow blocked
// behind other reservations, attributed per blaming coflow) > starvation
// hold (the §4.2 guard owned the fabric) > unattributed (nothing in the
// trace explains the gap). Segment lengths telescope, and a coflow is
// admitted at its release instant, so the components sum to the measured
// CCT up to floating-point rounding — the "explain every coflow's completion time" contract that
// tools/trace_inspect --attribution surfaces and tests pin down.
//
// Inputs are the events of obs/event.h, typically read back with
// obs/jsonl.h; the analysis is offline and allocation-heavy by design
// (nothing here runs inside a replay loop).
#pragma once

#include <map>
#include <span>
#include <vector>

#include "common/units.h"
#include "obs/event.h"

namespace sunflow::obs {

/// Contention seconds a coflow spent blocked behind one blaming coflow
/// (-1 when the trace names no single owner).
struct ContentionShare {
  CoflowId blamer = -1;
  Time seconds = 0;
};

/// One step of the critical path walked backwards from a coflow's
/// completion: the span [begin, end) and what the coflow was doing in it.
struct CriticalPathStep {
  enum class Kind { kTransmit, kDelta, kBlocked, kGap };
  Kind kind = Kind::kTransmit;
  Time begin = 0;
  Time end = 0;
  PortId in = -1;   ///< the flow the step rides on (-1 for kGap)
  PortId out = -1;
  /// kBlocked only: who was in the way and why.
  CoflowId blamer = -1;
  BlockReason reason = BlockReason::kInputPortBusy;
};

/// Additive decomposition of one coflow's CCT. All components are
/// simulation seconds except planner_compute_ns (wall-clock nanoseconds,
/// informational: planning is instantaneous in simulation time, so it can
/// never be part of the sim-time sum).
struct CoflowAttribution {
  CoflowId coflow = -1;
  Time admitted = 0;
  Time completed = 0;
  Time cct = 0;  ///< measured CCT (CoflowCompleted value, else derived)

  Time delta = 0;            ///< δ reconfiguration stalls
  Time contention = 0;       ///< blocked behind other reservations
  Time starvation_hold = 0;  ///< held by the starvation guard's τ spans
  Time transmit = 0;         ///< a circuit was up and transmitting
  Time unattributed = 0;     ///< residual the trace does not explain

  /// Contention split per blaming coflow, largest share first. Sums to
  /// `contention` (simultaneously blocked flows with different blamers
  /// split their segment equally).
  std::vector<ContentionShare> by_blamer;

  double planner_compute_ns = 0;  ///< informational, out of the sum

  /// The additive components; equals `cct` up to rounding on any trace
  /// that passes the audit.
  Time Sum() const {
    return delta + contention + starvation_hold + transmit + unattributed;
  }
};

/// Whole-trace attribution: per-coflow rows plus the aggregate fractions
/// the run manifest records (attr.delta_fraction etc. — each component's
/// share of the summed CCT seconds across all completed coflows).
struct AttributionReport {
  std::vector<CoflowAttribution> coflows;  ///< sorted by cct, largest first

  Time total_cct = 0;  ///< denominator of the fractions below
  double delta_fraction = 0;
  double contention_fraction = 0;
  double starvation_fraction = 0;
  double transmit_fraction = 0;
  double unattributed_fraction = 0;

  /// Critical path of the largest-CCT coflow, completion first.
  CoflowId critical_coflow = -1;
  std::vector<CriticalPathStep> critical_path;

  /// Physical δ seconds paid per switch plane: the setup prefixes of every
  /// circuit span, summed over the whole trace and keyed by the span's
  /// plane. Single-plane traces carry one entry under plane 0; on a K-core
  /// fabric this shows which planes absorb the reconfiguration cost.
  std::map<PlaneId, Time> delta_seconds_by_plane;
};

/// Runs the decomposition over a trace. Coflows without a CoflowCompleted
/// event are skipped (they never finished; there is no CCT to explain).
AttributionReport Attribute(std::span<const Event> events);

const char* ToString(CriticalPathStep::Kind kind);

}  // namespace sunflow::obs
