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
/// `flows` holds the coflow's flows in trace order. A flow that finishes
/// keeps its entry at rate 0, counted on neither port, until a compaction
/// drops the finished entries; allocators must leave finished flows at
/// rate 0 (the packet replay checks it). `wave` holds the same entries in
/// wavefront order: level(f) = 1 + max(level of the previous flow on f's
/// input port, level of the previous flow on f's output port), and `wave`
/// lists level 1, then level 2, ..., each level in trace order. Flows of
/// one level share no port, and each port's flows keep their trace order,
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
  /// Indices into `flows`, in wavefront order; finished entries included.
  std::vector<std::uint32_t> wave;
  /// Unfinished flows per input / output port.
  std::vector<int> in_count, out_count;
  Bytes sent = 0;  ///< total bytes already delivered (Aalo's queue key)

  /// Moves each flow's rate × dt bytes (at most what it has left) and adds
  /// them to `sent` in trace order. A flow it finishes drops to rate 0 and
  /// leaves its ports' counts. Once more than 1/32 of `flows` are
  /// finished, one compaction pass erases them and renumbers `wave`;
  /// erasing keeps each port's flows in trace order, so `wave` is never
  /// rebuilt. Returns the number of flows finished.
  std::size_t Drain(Time dt);

  /// Remaining packet lower bound: busiest-port remaining time at full B.
  Time RemainingTpl(Bandwidth bandwidth) const;

  /// Unfinished flows on input / output port `p`.
  int in(PortId p) const { return in_count[static_cast<std::size_t>(p)]; }
  int out(PortId p) const { return out_count[static_cast<std::size_t>(p)]; }
  /// Unfinished flows.
  std::size_t live() const { return flows.size() - finished_; }

 private:
  /// Erases the finished entries of `flows` and `wave`, renumbering `wave`.
  void Compact();
  /// Whether the counts match a recount of the unfinished flows, finished
  /// entries sit at rate 0 and number `finished_`, and `wave` lists every
  /// entry once with each port's entries in trace order (SUNFLOW_DCHECKed).
  bool Consistent() const;

  std::size_t finished_ = 0;  ///< finished entries still in `flows`
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

/// Per-port sums of the flows' rates, checked against the link rate. The
/// packet replay adds every positive rate after each reallocation, coflow
/// by coflow and each coflow's flows in trace order.
class PortRateSums {
 public:
  /// Zeroes the sums of ports [0, num_ports).
  void Reset(PortId num_ports) {
    in_.assign(static_cast<std::size_t>(num_ports), 0);
    out_.assign(static_cast<std::size_t>(num_ports), 0);
  }
  void Add(const FlowState& f) {
    in_[static_cast<std::size_t>(f.src)] += f.rate;
    out_[static_cast<std::size_t>(f.dst)] += f.rate;
  }
  /// Throws, naming the port, its sum and the limit, if a port's sum
  /// exceeds `bandwidth` beyond tolerance.
  void Check(Bandwidth bandwidth) const;

 private:
  std::vector<Bandwidth> in_, out_;
};

}  // namespace sunflow::packet
