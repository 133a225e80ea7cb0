// Trace auditor — prove a structured event trace is physically consistent.
//
// Every replay engine and the planner itself emit the same event schema
// (obs/event.h); the auditor re-derives the physical invariants those
// events must satisfy and reports every violation with enough detail to
// locate it. tools/trace_inspect --audit runs it with a nonzero exit on
// any violation, and CI replays the golden configs through it, so a new
// scenario that double-books a port or drops a δ is caught by the trace it
// writes, not by a figure looking wrong later.
//
// Invariants checked (each names its id in violations):
//   port-exclusivity   no two circuit spans overlap on an input or output
//                      port *of the same switch plane* (beyond the ε slop
//                      every comparison allows) — a K-core fabric has K
//                      physical ports behind each logical port id, so
//                      spans on distinct planes never conflict; negative
//                      port ids — the dummy rows/columns square matchings
//                      are padded with — are exempt
//   delta-bounds       0 ≤ setup ≤ span length for every circuit span
//   delta-carryover    a zero-setup span on a plane that charges δ must
//                      continue a prior span on the same (plane, in, out)
//                      — δ is paid exactly once per reconfiguration, never
//                      skipped, and a circuit up on plane p says nothing
//                      about plane q's switch state. With a demand, a
//                      plane charges δ when its own δ is positive (or it
//                      is undeclared); without one, every plane does once
//                      any span of the trace paid δ
//   flow-in-circuit    a FlowFinished instant lies inside a circuit span
//                      of its own (coflow, in, out) — or a starvation τ
//                      span, where fluid drains finish off-plan
//   completion         CoflowCompleted is unique per coflow, not before
//                      its admission, equals the last FlowFinished when
//                      per-flow finishes are traced, and its CCT payload
//                      equals completed − admitted + queueing wait
//   admission          exactly one CoflowAdmitted per coflow
//   blocked-pairing    FlowBlocked/FlowUnblocked strictly alternate per
//                      flow, and each Unblocked mirrors its opener's
//                      reason/blamer with dur spanning back to it
//   teardown           every CircuitTeardown coincides with the end of a
//                      circuit span on the same (plane, in, out)
//   setup-count        (optional) the number of δ-paying spans matches the
//                      producer's executor.circuit_setups metric
//   delta-length       (demand) a δ-paying span's setup equals
//                      min(its plane's δ, its length) — a circuit cut
//                      short mid-reconfiguration paid only what ran
//   bytes-served       (demand) a flow the trace finishes — by its own
//                      FlowFinished, else by its coflow's CoflowCompleted —
//                      got its bytes by then: Σ (span − setup) × plane rate
//                      over its circuit spans, clipped at the finish,
//                      reaches bytes − kBytesEps. Skipped on traces with
//                      starvation τ rounds, whose fluid drains run outside
//                      circuit spans
//
// The last two need an AuditDemand: each plane's (δ, rate) and each flow's
// bytes, in plain types (AuditDemandOf in core/sunflow.h builds one from a
// Trace and a SunflowConfig). With it the auditor checks the K-core
// definition of a feasible schedule — per-plane port exclusivity, per-plane
// δ, every byte served — and is the repo's one executability check for
// planner output. Traces read back from JSONL carry no demand, so
// trace_inspect --audit runs every rule except these two.
//
// Scope: an inter (engine) trace is one shared-fabric timeline, so the
// fabric-wide invariants hold globally — that is AuditScope::kSharedFabric,
// the default and the strict mode CI gates on. The intra benches instead
// replay every coflow standalone on its own clock (and may run several
// algorithms through one sink), so "two spans overlap on a port" across
// coflows is meaningless there; AuditScope::kPerCoflow keys the fabric
// checks by coflow lifecycle (a re-admission after completion starts a new
// lifecycle instead of violating `admission`) and skips the setup-count
// cross-check, whose producer metric only counts one executor's work, and
// the demand rules, whose input names each flow once however many times
// the trace replays it.
#pragma once

#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "obs/event.h"

namespace sunflow::obs {

struct AuditViolation {
  std::string invariant;  ///< id from the table above
  std::string detail;     ///< human-readable locator (times, ids, ports)
};

struct AuditReport {
  std::size_t events = 0;       ///< events examined
  std::size_t checks = 0;       ///< individual assertions evaluated
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
};

/// How the trace maps onto fabric time (see the header comment).
enum class AuditScope {
  kSharedFabric,  ///< one timeline; fabric invariants hold globally
  kPerCoflow,     ///< concatenated standalone replays; checks per lifecycle
};

/// What a trace's circuits had to carry: the input of the delta-length and
/// bytes-served rules.
struct AuditDemand {
  struct Plane {
    Time delta = 0;      ///< reconfiguration delay δ
    Bandwidth rate = 0;  ///< bytes/second one circuit carries
  };
  std::vector<Plane> planes;  ///< indexed by PlaneId
  /// Bytes per flow, keyed by (coflow, in, out).
  std::map<std::tuple<CoflowId, PortId, PortId>, Bytes> flow_bytes;
};

/// Audits a trace. `expected_setups` cross-checks the number of δ-paying
/// circuit spans against an external counter (executor.circuit_setups from
/// a run manifest); pass -1 to skip that check (it is also skipped under
/// kPerCoflow). `demand`, when given, adds delta-length and bytes-served,
/// also only under kSharedFabric. Violations are capped at 100 per
/// invariant so a corrupted trace stays readable.
AuditReport AuditTrace(std::span<const Event> events,
                       long long expected_setups = -1,
                       AuditScope scope = AuditScope::kSharedFabric,
                       const AuditDemand* demand = nullptr);

}  // namespace sunflow::obs
