// Fluid-flow packet fabric model (§2.1, "Electrical Packet Switch").
//
// At any instant each flow has a rate; the per-port constraints
// Σ_i b_ij ≤ B and Σ_j b_ij ≤ B must hold. Rate allocators (Varys, Aalo)
// set rates at rescheduling instants; between instants flows drain
// linearly. This is the same flow-level abstraction the paper's simulator
// uses for the packet-switched comparisons.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <vector>

#include "common/assert.h"
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

/// Mutable per-coflow state during a replay, from admission to completion.
///
/// `flows` holds the unfinished flows in trace order. `wave` holds the same
/// flows in wavefront order: level(f) = 1 + max(level of the previous flow
/// on f's input port, level of the previous flow on f's output port), and
/// `wave` lists level 1, then level 2, ..., each level in trace order. Flows
/// of one level share no port, and each port's flows keep their trace order,
/// so a pass in which each flow reads and writes only its own two ports'
/// state gives the same bits in `wave` order as in trace order, while the
/// CPU overlaps the flows of a level.
struct ActiveCoflow {
  /// Keeps the flows of more than kBytesEps bytes, counts them per port and
  /// builds `wave`. The per-port arrays span the coflow's own largest port.
  ActiveCoflow(CoflowId id, Time arrival, const std::vector<Flow>& flows);

  CoflowId id = -1;
  Time arrival = 0;
  std::vector<FlowState> flows;
  /// Indices into `flows`, in wavefront order.
  std::vector<std::uint32_t> wave;
  /// Flows per input / output port.
  std::vector<int> in_count, out_count;
  Bytes sent = 0;  ///< total bytes already delivered (Aalo's queue key)

  /// Moves each flow's rate × dt bytes (at most what it has left) and adds
  /// them to `sent` in trace order. The flows it finishes leave in the same
  /// compaction pass, which decrements their ports' counts and records the
  /// survivors' new indices; `wave` then drops their entries and renumbers
  /// the rest. Erasing keeps each port's flows in trace order, so `wave`
  /// is never rebuilt. Returns the number of flows finished.
  std::size_t Drain(Time dt);

  /// Remaining packet lower bound: busiest-port remaining time at full B.
  Time RemainingTpl(Bandwidth bandwidth) const;

  /// Flows on input / output port `p`.
  int in(PortId p) const { return in_count[static_cast<std::size_t>(p)]; }
  int out(PortId p) const { return out_count[static_cast<std::size_t>(p)]; }

 private:
  /// Whether the counts match a recount of `flows` and `wave` lists every
  /// flow once with each port's flows in trace order (SUNFLOW_DCHECKed).
  bool Consistent() const;
};

/// Tracks leftover capacity per port during one allocation round.
class PortCapacity {
 public:
  PortCapacity(PortId num_ports, Bandwidth bandwidth);

  Bandwidth in(PortId p) const { return in_[static_cast<std::size_t>(p)]; }
  Bandwidth out(PortId p) const { return out_[static_cast<std::size_t>(p)]; }

  /// Consumes `rate` on both ports; checks non-negative leftovers. Inline,
  /// so the flows of one wavefront level overlap in the allocators' loops.
  void Consume(PortId src, PortId dst, Bandwidth rate) {
    SUNFLOW_CHECK(rate >= 0);
    Bandwidth& i = in_[static_cast<std::size_t>(src)];
    Bandwidth& o = out_[static_cast<std::size_t>(dst)];
    // Tolerate tiny FP overshoot, clamp at zero.
    SUNFLOW_CHECK_MSG(rate <= i * (1 + 1e-9) + 1e-6 &&
                          rate <= o * (1 + 1e-9) + 1e-6,
                      "rate exceeds port capacity: flow "
                          << src << " -> " << dst << std::setprecision(17)
                          << ", rate " << rate << ", input left " << i
                          << ", output left " << o);
    i = std::max(0.0, i - rate);
    o = std::max(0.0, o - rate);
  }

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
/// violation beyond tolerance. Each coflow's rates are summed in `wave`
/// order, which keeps each port's sum in trace order.
void CheckRates(const std::vector<ActiveCoflow*>& active, PortId num_ports,
                Bandwidth bandwidth);

}  // namespace sunflow::packet
