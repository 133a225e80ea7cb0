// Inter-Coflow priority policies (§4.2).
//
// Sunflow's inter-Coflow framework only asks the operator to translate a
// high-level resource-management policy into a priority ordering of the
// active coflows; the planner then serves them in that order so that more
// prioritized coflows are never blocked by less prioritized ones.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/units.h"
#include "core/sunflow.h"

namespace sunflow {

/// What a policy sees about each active coflow at a scheduling instant.
struct CoflowView {
  CoflowId id = -1;
  Time arrival = 0;
  /// Remaining packet-switched lower bound TpL (busiest-port time) of the
  /// *unfinished* demand.
  Time remaining_tpl = 0;
  /// TpL of the original (full) demand.
  Time static_tpl = 0;
  Bytes remaining_bytes = 0;
  std::size_t remaining_flows = 0;
  /// Bytes already delivered (attained service). Unlike the fields above
  /// it requires no knowledge of future demand, so non-clairvoyant
  /// policies may use it even when sizes are unknown.
  Bytes attained_bytes = 0;
};

/// Orders active coflows, highest priority first.
class PriorityPolicy {
 public:
  virtual ~PriorityPolicy() = default;

  /// Returns indices into `views`, highest priority first. Implementations
  /// must return a permutation of [0, views.size()).
  virtual std::vector<std::size_t> Order(
      const std::vector<CoflowView>& views) const = 0;
};

/// Shortest-Coflow-first (§4.2, §5.2): order by remaining TpL — the circuit
/// analogue of Varys' SEBF. Ties break by arrival then id.
std::unique_ptr<PriorityPolicy> MakeShortestFirstPolicy();

/// Shortest-Coflow-first on the *static* TpL ("the Coflows may be ordered
/// by their TpL"), insensitive to progress.
std::unique_ptr<PriorityPolicy> MakeStaticShortestFirstPolicy();

/// First-come-first-served by arrival time.
std::unique_ptr<PriorityPolicy> MakeFifoPolicy();

/// Class-based priorities (privileged vs regular users, stage ordering …):
/// lower class value = higher priority; within a class, shortest-first.
/// Coflows not in the map get `default_class`.
std::unique_ptr<PriorityPolicy> MakeClassPolicy(
    std::map<CoflowId, int> class_of_coflow, int default_class = 0);

/// Non-clairvoyant least-attained-service: orders by bytes already sent
/// (fewest first), with exponentially spaced queues so tiny progress
/// differences do not reorder coflows (the D-CLAS idea of Aalo applied to
/// circuit scheduling). Uses no size information at all — the policy to
/// reach for when Coflow sizes are unknown (cf. §3.2's discussion of
/// Aalo's traffic assumptions).
std::unique_ptr<PriorityPolicy> MakeLeastAttainedServicePolicy(
    Bytes first_queue_limit = 10e6, double queue_spacing = 10.0);

/// Weighted shortest-first: orders by remaining TpL / weight (higher
/// weight = more important), the circuit-side analogue of minimizing total
/// *weighted* CCT (the objective of the paper's reference [31], Qiu, Stein
/// & Zhong). Coflows not in the map get weight 1.
std::unique_ptr<PriorityPolicy> MakeWeightedShortestFirstPolicy(
    std::map<CoflowId, double> weight_of_coflow);

/// Combines several coflows of equal priority into one logical coflow so
/// each constituent gets an equal chance of service (§4.2; may increase the
/// average CCT of those involved). Flows on the same (src,dst) pair are
/// merged by summing bytes. The combined coflow takes `combined_id` and the
/// earliest arrival.
Coflow CombineCoflows(const std::vector<const Coflow*>& coflows,
                      CoflowId combined_id);

/// Rewrites a trace so that coflows mapped to the same class are combined
/// into one logical coflow (the §4.2 "equal chance of service" option).
/// Combined coflows get id = kCombinedIdBase + class and the earliest
/// arrival of their constituents; unmapped coflows pass through untouched.
/// Returns the rewritten trace plus, for CCT accounting, the constituent
/// ids of each combined coflow.
inline constexpr CoflowId kCombinedIdBase = 1'000'000'000;

struct CombinedTrace {
  Trace trace;
  std::map<CoflowId, std::vector<CoflowId>> members;  ///< combined -> parts
};

CombinedTrace CombineTraceByClass(const Trace& trace,
                                  const std::map<CoflowId, int>& class_of);

}  // namespace sunflow
