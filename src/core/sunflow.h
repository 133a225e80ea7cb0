// Sunflow — the paper's scheduling algorithm (Algorithm 1).
//
// Intra-Coflow: non-preemptive circuit reservations on a Port Reservation
// Table; a circuit with non-zero demand is set up once and stays active
// until the demand is finished (Lemma 1: CCT ≤ 2·TcL for any δ, any coflow,
// any reservation ordering). Inter-Coflow: IntraCoflow applied to coflows
// in priority order on a shared PRT, so higher-priority coflows are never
// blocked by lower-priority ones.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/units.h"
#include "core/fabric.h"
#include "core/prt.h"
#include "core/reservation.h"
#include "trace/coflow.h"

namespace sunflow::obs {
struct AuditDemand;
class TraceSink;
}  // namespace sunflow::obs

namespace sunflow {

/// "Shuffle P if desired" (Algorithm 1 line 3): the order in which demand
/// entries are considered. Lemma 1 holds for every ordering; §5.3.1 measures
/// the (small) performance differences.
enum class ReservationOrder {
  kOrderedPort,       ///< sort by (src, dst) — the paper's default
  kRandom,            ///< uniformly shuffled
  kSortedDemandDesc,  ///< biggest demand first
  kSortedDemandAsc,   ///< smallest demand first
};

const char* ToString(ReservationOrder order);

struct SunflowConfig {
  Bandwidth bandwidth = Gbps(1);
  Time delta = Millis(10);  ///< circuit reconfiguration delay δ
  ReservationOrder order = ReservationOrder::kOrderedPort;
  std::uint64_t shuffle_seed = 1;  ///< used only for kRandom
  /// The switch planes the planner may assign circuits to (core/fabric.h).
  /// Empty (the default) means one plane inheriting (delta, bandwidth)
  /// from this config — the classic single-switch fabric, byte-identical
  /// to FabricSpec::Uniform(1, delta, bandwidth).
  FabricSpec fabric;
};

/// A circuit (in → out) that is already established (set up and
/// transmitting) at the instant planning starts; reservations for this pair
/// beginning exactly at plan start need no setup δ. Used by the replay
/// engine to carry circuits across replans.
using EstablishedCircuits = std::map<PortId, PortId>;

/// Established circuits per plane, indexed by PlaneId. The single-plane
/// fabric uses a one-element vector (everything on plane 0).
using FabricEstablished = std::vector<EstablishedCircuits>;

/// Result of planning one or more coflows.
struct SunflowSchedule {
  /// Planned CCT per coflow id: max flow finish − coflow start time.
  std::map<CoflowId, Time> completion_time;
  /// Number of reservations (== circuit setups when no carry-over) per
  /// coflow — Fig 5's switching count.
  std::map<CoflowId, int> reservation_count;

  /// All reservations, in the order they were created.
  std::vector<CircuitReservation> reservations;
};

/// Remaining demand of one flow, in processing-time units.
struct FlowDemand {
  PortId src = 0;
  PortId dst = 0;
  Time processing = 0;  ///< p_ij = remaining bytes / B
};

/// A unit of work for the planner: a coflow id, its start time (arrival or
/// replan instant), and its remaining per-flow processing times.
struct PlanRequest {
  CoflowId coflow = -1;
  Time start = 0;
  std::vector<FlowDemand> demand;

  /// Builds a request from a whole coflow (all bytes remaining).
  static PlanRequest FromCoflow(const Coflow& coflow, Bandwidth bandwidth,
                                std::optional<Time> start = std::nullopt);
};

class SunflowPlanner {
 public:
  SunflowPlanner(PortId num_ports, SunflowConfig config);

  /// Algorithm 1, IntraCoflow: reserves circuits for one request on the
  /// shared PRT, never disturbing existing reservations. Returns the
  /// absolute finish time of the request (kTimeInf never — always finite).
  Time ScheduleOne(const PlanRequest& request, SunflowSchedule& out);

  /// Reference implementation of ScheduleOne: the paper-literal loop that
  /// rescans every pending flow at every release instant (a flow whose own
  /// truncated reservation is still running is not retried). Both loops
  /// drive one shared reservation step; ScheduleOne produces byte-identical
  /// output by sleeping each flow until its wakeup instant, or on one
  /// untraced plane in the wait queue of the port that blocks it (see
  /// docs/engine.md, "Planner complexity"). This path is retained as
  /// the oracle the differential tests compare against, and as the
  /// fallback for established circuits declared after the request start
  /// (where a mid-plan instant could zero a setup).
  Time ScheduleOneRescan(const PlanRequest& request, SunflowSchedule& out);

  /// Algorithm 1, InterCoflow: schedules requests in the given order
  /// (callers sort by priority policy first). Earlier requests are planned
  /// first and therefore never blocked by later ones. Pointers let a caller
  /// plan a subset of its requests (e.g. one core's share) without copying
  /// demand vectors.
  SunflowSchedule ScheduleAll(const std::vector<const PlanRequest*>& requests);

  /// Declares circuits already up at plan start (replay carry-over).
  /// SetEstablishedCircuits places everything on plane 0; the ByPlane
  /// variant declares per-plane carry-over and must pass exactly
  /// num_planes() maps. (Distinct names, not overloads: a braced list of
  /// pairs would be ambiguous between the map and the vector of maps.)
  void SetEstablishedCircuits(EstablishedCircuits circuits, Time at);
  void SetEstablishedCircuitsByPlane(FabricEstablished by_plane, Time at);

  /// Attaches a structured event tracer (obs/trace_sink.h). The planner
  /// emits kCircuitSetup / kCircuitTeardown for every reservation and
  /// kFlowFinished when a flow's demand drains; null (the default)
  /// disables tracing at the cost of one branch per reservation.
  void SetTraceSink(obs::TraceSink* sink) { sink_ = sink; }
  obs::TraceSink* trace_sink() const { return sink_; }

  const PortReservationTable& prt() const { return prt_; }

  /// The effective plane list (FabricSpec::EffectivePlanes).
  const std::vector<PlaneSpec>& planes() const { return planes_; }
  int num_planes() const { return static_cast<int>(planes_.size()); }

 private:
  /// True iff any plane has established circuits.
  bool has_established() const;
  /// The request's demand, permuted per config().order.
  std::vector<FlowDemand> Ordered(const PlanRequest& request) const;
  /// Maps the earliest pending wakeup onto the exact instant the rescan's
  /// release-chain walk would visit next (see docs/engine.md).
  Time NextWakeInstant(Time t, Time wake, CoflowId coflow) const;
  /// One request's reservation step, shared by both loops (sunflow.cc).
  class Walk;

  PortReservationTable prt_;
  SunflowConfig config_;
  std::vector<PlaneSpec> planes_;
  /// Canonical-demand scale per plane: bandwidth / planes_[p].rate. A
  /// flow's remaining demand is kept in processing units at the config
  /// bandwidth; plane p transmits it in remaining * plane_scale_[p]
  /// seconds. Exactly 1.0 on the default fabric (x*1.0 == x bitwise).
  std::vector<double> plane_scale_;
  FabricEstablished established_;
  Time established_at_ = -1;
  obs::TraceSink* sink_ = nullptr;
  /// ScheduleOne's port → wait-queue slot map, indexed by side × ports +
  /// port and sized on first use. An entry is valid only while the slot it
  /// names belongs to that port in the current call, so no call clears it.
  std::vector<std::uint32_t> wait_queue_slot_;
};

/// Convenience wrapper: schedules a single coflow from an empty PRT and
/// returns its schedule (the paper's intra-Coflow evaluation mode).
/// `sink` optionally receives the planner's trace events.
SunflowSchedule ScheduleSingleCoflow(const Coflow& coflow, PortId num_ports,
                                     const SunflowConfig& config,
                                     obs::TraceSink* sink = nullptr);

/// The auditor's demand input (obs/audit.h) for traces of `trace`'s
/// coflows on `config`'s planes: each effective plane's (δ, rate) and each
/// flow's bytes.
obs::AuditDemand AuditDemandOf(const Trace& trace, const SunflowConfig& config);

}  // namespace sunflow
