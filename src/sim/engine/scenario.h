// ScenarioPolicy — the strategy interface every replay engine implements —
// and the fixed table of built-in scenarios behind the shared `--engine`
// flag (see docs/engine.md for the contract and a worked example).
//
// A scenario owns the *physics* of one span: how the active set is planned
// (or not), which executor model drains bytes, and when the next event
// lands. The ReplayDriver owns everything else — admissions, completions,
// tie-breaking, event emission — so all scenarios share identical event
// semantics.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "core/starvation.h"
#include "core/sunflow.h"
#include "sim/engine/state.h"

namespace sunflow::runtime {
class ThreadPool;
}  // namespace sunflow::runtime

namespace sunflow::obs {
class TimelineSampler;
}  // namespace sunflow::obs

namespace sunflow::packet {
class RateAllocator;
}  // namespace sunflow::packet

namespace sunflow::engine {

class ReplayDriver;

/// Union of the knobs the built-in scenarios consume. Each scenario reads
/// its own slice and ignores the rest, so one config type can flow from a
/// `--engine` flag through any built-in scenario.
struct EngineConfig {
  SunflowConfig sunflow;
  /// Re-reserve circuits that are mid-transmission at a replan instant
  /// without a new setup δ ("circuit" and "kcore" scenarios).
  bool carry_over_circuits = true;
  /// Optional structured event tracer; the driver is the only emitter.
  obs::TraceSink* sink = nullptr;
  /// Optional sim-time telemetry sampler (obs/timeline.h); like the sink,
  /// the driver is the only feeder, so every scenario shares identical
  /// sampling semantics. Null (the default) compiles down to skipped
  /// branches — default runs stay byte-identical. Not owned.
  obs::TimelineSampler* timeline = nullptr;
  /// Unused: every replan plans serially. The field stays only because
  /// perfbench/perfbench.cc still assigns it; nothing reads it.
  runtime::ThreadPool* plan_pool = nullptr;
  /// (T + τ) cadence for the "guarded" scenario (τ > δ required).
  StarvationGuardConfig guard;
  /// Companion packet fabric for the "hybrid" scenario.
  Bandwidth packet_bandwidth = Gbps(0.1);
  /// Coflows with total bytes at or below this go to the packet network
  /// ("hybrid" scenario).
  Bytes offload_threshold = 10e6;
};

/// Per-scenario hooks around the driver's plan → execute → replan loop.
class ScenarioPolicy {
 public:
  virtual ~ScenarioPolicy() = default;

  virtual std::string name() const = 0;

  /// Whether the driver keeps each admitted coflow's remaining demand per
  /// flow in SimCoflow::flows. A scenario that keeps its flows itself (the
  /// packet fabric) returns false and reports each finished flow by
  /// decrementing SimCoflow::unfinished.
  virtual bool uses_flat_demand() const { return true; }

  /// Fills scenario-specific fields of a just-released coflow (the driver
  /// has already set id/arrival/total, the unfinished-flow count and, per
  /// uses_flat_demand, the flows from `coflow`).
  virtual void OnAdmit(SimCoflow& sc, const Coflow& coflow, Time now) {
    (void)sc;
    (void)coflow;
    (void)now;
  }

  /// Fires after the driver records a completion at `finish`; may push
  /// further releases into `state` (dependency gating).
  virtual void OnComplete(SimState& state, const SimCoflow& sc, Time finish) {
    (void)state;
    (void)sc;
    (void)finish;
  }

  /// Fires when the driver fast-forwards over an idle gap (empty active
  /// set) to `now`; circuits idle away between bursts.
  virtual void OnIdleGap(SimState& state, Time now) {
    (void)state;
    (void)now;
  }

  /// Plans and executes one span starting at `now`: updates remaining
  /// demand (and `last_finish` where the model resolves exact finishes)
  /// and returns the span end — the next release, planned completion, or
  /// scenario boundary. Must return a time strictly after `now`.
  virtual Time ExecuteSpan(ReplayDriver& driver, Time now) = 0;

  /// Iteration cap for the driver loop (recomputed every iteration so
  /// completion hooks may grow the workload), and the CHECK message used
  /// when a non-advancing loop trips it.
  virtual std::size_t StepBudget(const SimState& state) const = 0;
  virtual const char* budget_message() const {
    return "replay exceeded its step budget";
  }
};

/// Hook for dependency-gated replays: invoked with the completed coflow id
/// and instant; pushes newly released coflows into the state.
using CompletionHook = std::function<void(SimState&, CoflowId, Time)>;

// --- Built-in scenarios (defined in scenarios.cc). ----------------------

/// Sunflow circuit replay: Varys-like replan on arrivals/completions,
/// optional carry-over. `hook` enables DAG gating (sim/dag_replay.h).
std::unique_ptr<ScenarioPolicy> MakeCircuitScenario(
    PortId num_ports, const PriorityPolicy& policy, const EngineConfig& config,
    CompletionHook hook = nullptr);

/// The fluid packet fabric at `bandwidth` per port, rates set by a
/// caller-owned `allocator` (Varys, Aalo, fair share), which must outlive
/// the scenario. "varys" and "aalo" own their default allocator instead.
std::unique_ptr<ScenarioPolicy> MakePacketScenario(
    packet::RateAllocator& allocator, Bandwidth bandwidth);

/// Builds the named single-fabric built-in — "circuit", "kcore",
/// "guarded", "rotor", "varys" or "aalo" — for a whole-trace replay
/// (ScenarioRegistry::Run) or a streamed one (RunScenarioStream). `policy`
/// may be null for the policy-free "rotor", "varys" and "aalo". "hybrid"
/// is a composite of two replays and runs only through Run.
std::unique_ptr<ScenarioPolicy> MakeScenario(const std::string& name,
                                             PortId num_ports,
                                             const PriorityPolicy* policy,
                                             const EngineConfig& config);

/// The built-ins ("aalo", "circuit", "guarded", "hybrid", "kcore",
/// "rotor", "varys") as one constant table, by name. Nothing writes it, so
/// any number of threads may read it at once.
class ScenarioRegistry {
 public:
  static const ScenarioRegistry& Global();

  bool Has(const std::string& name) const;
  /// Replays the whole trace through the named scenario; every coflow must
  /// complete. Throws CheckFailure for unknown names.
  EngineResult Run(const std::string& name, const Trace& trace,
                   const PriorityPolicy* policy,
                   const EngineConfig& config) const;
  /// (name, description) pairs, sorted by name — for --help text.
  std::vector<std::pair<std::string, std::string>> List() const;
};

}  // namespace sunflow::engine
