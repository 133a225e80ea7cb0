// Starvation avoidance (§4.2).
//
// Priority scheduling can starve low-priority coflows. Sunflow's guard
// divides time into recurring (T + τ) intervals: during T, InterCoflow runs
// as usual; during τ, one fixed assignment A_k from Φ = {A_1 … A_N} is
// installed (round-robin over intervals) and all coflows with demand on an
// A_k circuit share its bandwidth. Φ covers all N² circuits, so every
// coflow receives non-zero service within every N(T + τ) window.
#pragma once

#include <vector>

#include "common/units.h"

namespace sunflow {

struct StarvationGuardConfig {
  Time big_interval = 1.0;     ///< T — priority-scheduled span
  Time small_interval = 0.05;  ///< τ — fixed-assignment span (τ > δ required)
};

/// The fixed assignment family Φ: A_k connects in.i -> out.((i + k) mod N).
/// The N shifts cover every (i, j) pair exactly once.
class PhiAssignments {
 public:
  explicit PhiAssignments(PortId num_ports);

  PortId num_ports() const { return num_ports_; }

  /// Output port that input `i` connects to in assignment A_k (k in [0,N)).
  PortId OutputOf(int k, PortId i) const;

 private:
  PortId num_ports_;
};

/// Interval bookkeeping for the (T+τ) cadence starting at time 0.
class StarvationGuardTimeline {
 public:
  StarvationGuardTimeline(const StarvationGuardConfig& config,
                          PortId num_ports);

  /// Is `t` inside a τ (fixed-assignment) interval?
  bool InTauInterval(Time t) const;

  /// Index k of the Φ assignment active for the τ-interval containing or
  /// next-following `t` (round-robin, wraps modulo N).
  int AssignmentIndexAt(Time t) const;

  /// Start of the next interval boundary strictly after t (either a τ start
  /// or a T start).
  Time NextBoundaryAfter(Time t) const;

  /// Bound on the service gap: any coflow gets service within N(T+τ).
  Time MaxServiceGap() const;

 private:
  Time period_;  // T + τ
  StarvationGuardConfig config_;
  PortId num_ports_;
};

}  // namespace sunflow
