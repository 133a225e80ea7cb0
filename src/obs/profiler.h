// Scoped phase profiler — where the scheduler's own cost becomes data.
//
// The metrics registry (obs/metrics.h) answers "how often / how large";
// its phases answer "where did the wall time go". Instrumented code opens
// an RAII ProfileScope naming the phase (dotted hierarchy: engine.execute,
// sched.solstice.stuff, prt.reserve, ...); the scope records a PhaseStats
// into GlobalMetrics(), and nested scopes attribute time to both the
// enclosing phase (total_ns, inclusive) and to the phase itself net of
// profiled children (self_ns, exclusive), so a phase tree sums without
// double counting.
//
// Phases share the registry's sharded-merge contract: a scope records into
// the calling thread's shard (no locks or atomics on the hot path; the
// nesting stack is thread_local), and Merged().PhaseRows() folds all shards
// commutatively — counts and durations sum, so the merged view has the same
// phase counts at any thread count (durations are wall clock and therefore
// vary run to run). Collect only after workers have quiesced.
//
// Cost: an enabled scope is two steady_clock reads plus one transparent
// map lookup in the thread's shard — ~100 ns, negligible against the
// µs-to-ms phases instrumented here; run manifests (obs/manifest.h)
// carry a calibrated estimate of the total so every run reports its own
// observation overhead. SetProfilingEnabled(false) reduces a scope to one
// relaxed atomic load.
#pragma once

#include <chrono>
#include <string_view>

#include "obs/metrics.h"

namespace sunflow::obs {

// Kept for perfbench/perfbench.cc, which reads phases through
// obs::GlobalProfiler().Merged().FindPhase(...).
using Profiler = MetricsRegistry;
inline ShardedMetricsRegistry& GlobalProfiler() { return GlobalMetrics(); }

/// Runtime switch (default on). Scopes opened while disabled record
/// nothing and cost one relaxed atomic load. Flipping the switch does not
/// affect scopes already open.
bool ProfilingEnabled();
void SetProfilingEnabled(bool enabled);

/// Measures the per-scope recording cost on this host (best of three short
/// calibration batches against a throwaway registry) — the manifest multiplies
/// this by the number of scope entries to bound profiler overhead.
double CalibrateScopeCostNs();

/// RAII phase scope. A caller that needs the interval's length passes
/// `elapsed_ns`: the scope then reads the clock even while profiling is
/// disabled and stores its wall ns there on exit, so the interval is timed
/// once for the phase and the caller alike.
class ProfileScope {
 public:
  explicit ProfileScope(std::string_view name, double* elapsed_ns = nullptr);
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;
  ~ProfileScope();

 private:
  PhaseStats* stats_ = nullptr;  ///< null = profiling disabled at entry
  double* elapsed_ns_ = nullptr;
  ProfileScope* parent_ = nullptr;
  double child_ns_ = 0;  ///< inclusive time of directly nested scopes
  std::chrono::steady_clock::time_point start_;
};

#define SUNFLOW_PROFILE_CONCAT_INNER(a, b) a##b
#define SUNFLOW_PROFILE_CONCAT(a, b) SUNFLOW_PROFILE_CONCAT_INNER(a, b)
#define SUNFLOW_PROFILE_SCOPE(name)            \
  ::sunflow::obs::ProfileScope SUNFLOW_PROFILE_CONCAT( \
      sunflow_profile_scope_, __COUNTER__)(name)

}  // namespace sunflow::obs
