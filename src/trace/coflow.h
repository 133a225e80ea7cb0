// Coflow traffic model (§2.2 of the paper).
//
// A Coflow is a set of flows sharing a performance objective; each flow
// moves `bytes` from an input port to an output port of the abstract
// N-port non-blocking fabric. The demand matrix D of §2.2 is represented
// sparsely by the flow list; dense views are built on demand for the
// matrix-decomposition schedulers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/units.h"

namespace sunflow {

/// One subflow f_{i,j}: d_{i,j} bytes from input port src to output port dst.
struct Flow {
  PortId src = 0;
  PortId dst = 0;
  Bytes bytes = 0;

  friend bool operator==(const Flow&, const Flow&) = default;
};

/// Sender-to-receiver-ratio classification (paper Table 4).
enum class CoflowCategory {
  kOneToOne,    ///< one sender, one receiver, one flow
  kOneToMany,   ///< one sender, >1 receivers
  kManyToOne,   ///< >1 senders, one receiver (in-cast)
  kManyToMany,  ///< >1 senders, >1 receivers
};

const char* ToString(CoflowCategory c);

/// A Coflow: id, arrival time, and its non-zero flows.
class Coflow {
 public:
  Coflow() = default;
  Coflow(CoflowId id, Time arrival, std::vector<Flow> flows);

  CoflowId id() const { return id_; }
  Time arrival() const { return arrival_; }
  const std::vector<Flow>& flows() const { return flows_; }

  /// |C| — the number of subflows (non-zero demand entries).
  std::size_t size() const { return flows_.size(); }
  bool empty() const { return flows_.empty(); }

  Bytes total_bytes() const { return total_bytes_; }

  CoflowCategory category() const;

  /// Largest port index referenced + 1 (a lower bound on fabric size).
  PortId max_port() const { return max_port_; }

  /// Average data processing time p_avg = sum(d_ij/B) / |C| (§5.3.2).
  Time AvgProcessingTime(Bandwidth b) const;

  /// Smallest flow size (defines α in Lemma 2).
  Bytes min_flow_bytes() const;

  /// Returns a copy with all flow sizes multiplied by `factor` (idleness
  /// scaling, §5.4 — preserves structure).
  Coflow ScaledBytes(double factor) const;

  /// Returns a copy with the given arrival time.
  Coflow WithArrival(Time arrival) const;

  std::string DebugString() const;

 private:
  CoflowId id_ = -1;
  Time arrival_ = 0;
  std::vector<Flow> flows_;
  // Cached aggregates (flows_ is immutable after construction).
  Bytes total_bytes_ = 0;
  PortId max_port_ = 0;
  // Whether every flow shares the first flow's src / dst.
  bool one_sender_ = true;
  bool one_receiver_ = true;
};

/// A trace: fabric size plus coflows sorted by arrival time.
struct Trace {
  PortId num_ports = 0;
  std::vector<Coflow> coflows;

  Bytes total_bytes() const;
  /// Verifies port bounds and arrival ordering; throws CheckFailure if bad.
  void Validate() const;
};

}  // namespace sunflow
