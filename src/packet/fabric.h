// Fluid-flow packet fabric model (§2.1, "Electrical Packet Switch").
//
// At any instant each flow has a rate; the per-port constraints
// Σ_i b_ij ≤ B and Σ_j b_ij ≤ B must hold. Rate allocators (Varys, Aalo)
// set rates at rescheduling instants; between instants flows drain
// linearly. This is the same flow-level abstraction the paper's simulator
// uses for the packet-switched comparisons.
#pragma once

#include <limits>
#include <vector>

#include "common/units.h"
#include "trace/coflow.h"

namespace sunflow::packet {

/// Mutable per-flow state during a replay.
struct FlowState {
  PortId src = 0;
  PortId dst = 0;
  Bytes total = 0;
  Bytes remaining = 0;
  Bandwidth rate = 0;

  bool done() const { return remaining <= kBytesEps; }
};

/// Mutable per-coflow state during a replay.
struct ActiveCoflow {
  CoflowId id = -1;
  Time arrival = 0;
  /// The packet scenario (sim/engine) erases each flow in the drain that
  /// finishes it.
  std::vector<FlowState> flows;
  Bytes sent = 0;  ///< total bytes already delivered (Aalo's queue key)

  /// Remaining packet lower bound: busiest-port remaining time at full B.
  Time RemainingTpl(Bandwidth bandwidth) const;
};

/// Tracks leftover capacity per port during one allocation round.
class PortCapacity {
 public:
  PortCapacity(PortId num_ports, Bandwidth bandwidth);

  Bandwidth in(PortId p) const { return in_[static_cast<std::size_t>(p)]; }
  Bandwidth out(PortId p) const { return out_[static_cast<std::size_t>(p)]; }

  /// Consumes `rate` on both ports; checks non-negative leftovers.
  void Consume(PortId src, PortId dst, Bandwidth rate);

 private:
  std::vector<Bandwidth> in_;
  std::vector<Bandwidth> out_;
};

/// Interface implemented by Varys and Aalo: assigns flow rates for all
/// active coflows, and says when to assign them again: the replay re-runs
/// Allocate on every coflow arrival and completion, plus what the two hooks
/// below add. The defaults add nothing, which is Varys' discipline (§5.4).
class RateAllocator {
 public:
  virtual ~RateAllocator() = default;
  virtual const char* name() const = 0;
  /// `active` is ordered by arrival; implementations impose their own
  /// service order internally. `now` supports attained-service policies.
  virtual void Allocate(std::vector<ActiveCoflow*>& active, PortId num_ports,
                        Bandwidth bandwidth, Time now) = 0;
  /// Whether a single flow finishing (not its whole coflow) triggers a
  /// reallocation; otherwise its bandwidth idles until the next one.
  virtual bool reallocates_on_flow_completion() const { return false; }
  /// The attained-service count above `sent` at which a coflow must be
  /// re-ranked (a reallocation fires when it is crossed); +inf for none.
  virtual Bytes NextServiceThreshold(Bytes /*sent*/) const {
    return std::numeric_limits<Bytes>::infinity();
  }
};

/// Verifies the port constraints over the current rates; throws on
/// violation beyond tolerance.
void CheckRates(const std::vector<ActiveCoflow*>& active, PortId num_ports,
                Bandwidth bandwidth);

}  // namespace sunflow::packet
