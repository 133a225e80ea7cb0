// ScenarioPolicy — the strategy interface every replay engine implements —
// and the string-keyed registry that makes new fabric models one-file
// additions (see docs/engine.md for the contract and a worked example).
//
// A scenario owns the *physics* of one span: how the active set is planned
// (or not), which executor model drains bytes, and when the next event
// lands. The ReplayDriver owns everything else — admissions, completions,
// tie-breaking, event emission — so all scenarios share identical event
// semantics.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
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

namespace sunflow::engine {

class ReplayDriver;

/// Union of the knobs the built-in scenarios consume. Each scenario reads
/// its own slice and ignores the rest, so one config type can flow from a
/// `--engine` flag through any registry entry.
struct EngineConfig {
  SunflowConfig sunflow;
  /// Re-reserve circuits that are mid-transmission at a replan instant
  /// without a new setup δ ("circuit" and "kcore" scenarios).
  bool carry_over_circuits = true;
  /// Controller-load throttle: arrivals do not trigger a replan until at
  /// least this long after the previous one ("circuit" and "kcore"
  /// scenarios).
  Time min_replan_interval = 0;
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
  /// How long each Φ assignment stays up in the "rotor" scenario
  /// (excluding the δ to install it; the rotor δ is `sunflow.delta`).
  Time rotor_slot_duration = Millis(90);
  /// Companion packet fabric for the "hybrid" scenario.
  Bandwidth packet_bandwidth = Gbps(0.1);
  /// Coflows with total bytes at or below this go to the packet network
  /// ("hybrid" scenario).
  Bytes offload_threshold = 10e6;
  /// "kcore" scenario: plan the active set jointly on the K-plane fabric
  /// (true, the default — earliest-feasible-plane greedy inside the
  /// planner), or run the literature's per-core baseline (false — each
  /// coflow pinned wholly to one core, Sunflow independently per core).
  bool kcore_joint = true;
};

/// Per-scenario hooks around the driver's plan → execute → replan loop.
class ScenarioPolicy {
 public:
  virtual ~ScenarioPolicy() = default;

  virtual std::string name() const = 0;

  /// Fills scenario-specific fields of a just-released coflow (the driver
  /// has already set id/arrival/total/remaining from `coflow`).
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

// --- Built-in scenario factories (defined in scenarios.cc). -------------

/// Sunflow circuit replay: Varys-like replan on arrivals/completions,
/// optional carry-over and replan throttle. `hook` enables DAG gating
/// (sim/dag_replay.h).
std::unique_ptr<ScenarioPolicy> MakeCircuitScenario(
    PortId num_ports, const PriorityPolicy& policy, const EngineConfig& config,
    CompletionHook hook = nullptr);

/// Circuit replay under the §4.2 starvation guard's (T + τ) cadence.
std::unique_ptr<ScenarioPolicy> MakeGuardScenario(PortId num_ports,
                                                  const PriorityPolicy& policy,
                                                  const EngineConfig& config);

/// Demand-oblivious blind Φ rotation (no priority policy).
std::unique_ptr<ScenarioPolicy> MakeRotorScenario(PortId num_ports,
                                                  const EngineConfig& config);

// --- Registry ------------------------------------------------------------

/// A registered scenario is a whole-trace run function; most wrap a
/// ScenarioPolicy in a ReplayDriver, but composites (e.g. "hybrid", which
/// splits the trace across two fabrics) own their orchestration. `policy`
/// may be null for policy-free scenarios ("rotor").
using ScenarioFn = std::function<EngineResult(
    const Trace&, const PriorityPolicy* policy, const EngineConfig&)>;

class ScenarioRegistry {
 public:
  /// The process-wide registry, with the built-ins ("circuit", "guarded",
  /// "rotor", "hybrid", "kcore") registered on first use. Thread-safe.
  static ScenarioRegistry& Global();

  void Register(std::string name, std::string description, ScenarioFn run);
  bool Has(const std::string& name) const;
  /// Runs the named scenario; throws CheckFailure for unknown names.
  EngineResult Run(const std::string& name, const Trace& trace,
                   const PriorityPolicy* policy,
                   const EngineConfig& config) const;
  /// (name, description) pairs, sorted by name — for --help text.
  std::vector<std::pair<std::string, std::string>> List() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::pair<std::string, ScenarioFn>> scenarios_;
};

/// Registers the built-in scenarios into `registry` (idempotent only if
/// called once; ScenarioRegistry::Global() handles that).
void RegisterBuiltinScenarios(ScenarioRegistry& registry);

}  // namespace sunflow::engine
