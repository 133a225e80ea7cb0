// Sim-time telemetry timelines: a sim-clock-driven sampler that turns one
// engine replay into a bounded-memory time series — per-plane fabric
// utilization, idle fraction, coflow/queue gauges and replan wall latency
// with rolling percentiles — plus CSV export and end-of-run
// aggregates for the run manifest.
//
// Determinism contract (docs/observability.md "Telemetry timelines"):
// every *default* column is derived from sim physics (reservations, the
// sim clock, queue/coflow counts), so the exported file is byte-identical
// at any --threads value — CI diffs it at 1 vs 8. Wall-clock columns
// (replan latency, rolling percentiles) are host-dependent, so they are
// export-gated behind `include_wall` and otherwise surface only through
// Summarize() / the run manifest, which is never byte-diffed.
//
// Memory contract: the sample buffer never exceeds `cap`. When a push
// would reach the cap the buffer is decimated — adjacent samples merge
// pairwise (sums stay sums, gauges take the max, "latest" fields take the
// later sample's) and the width of *future* windows doubles — so a
// million-coflow run costs O(cap) retained samples at progressively
// coarser Δt, never an unbounded series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"

namespace sunflow::obs {

struct TimelineConfig {
  /// Base sample window in sim seconds. Decimation doubles the effective
  /// width each time the buffer hits `cap`.
  Time dt = 0.1;
  /// Hard ceiling on retained samples (>= 2). The buffer is decimated
  /// before it would reach this, so size() <= cap always holds.
  std::size_t cap = 4096;
  /// Export the host-dependent columns (wall latency, rolling
  /// percentiles) in WriteCsv. Off by default so the exported
  /// file honours the byte-determinism contract above.
  bool include_wall = false;
};

/// One clipped circuit interval as the driver executed it: `plane` busy on
/// `ports` input and `ports` output ports for [begin, end) — one for a
/// circuit, Σ rate / B for a fluid (packet) span. The sampler is
/// deliberately blind to which ports — it aggregates per (plane, side).
struct TimelineCircuitUse {
  PlaneId plane = 0;
  Time begin = 0;
  Time end = 0;
  double ports = 1;
};

/// One retained sample window [begin, end). Interval fields are exact
/// (contributions are split across window boundaries); gauge fields carry
/// the maximum observed in the window; `admitted` is the cumulative
/// admission count when the window closed.
struct TimelineSample {
  Time begin = 0;
  Time end = 0;
  /// Busy port-seconds per plane, input / output side. Utilization of a
  /// plane-side over the window is busy / (ports * width). Indexed by
  /// plane; shorter than the fabric's K when higher planes never carried
  /// a circuit in this window.
  std::vector<double> busy_in;
  std::vector<double> busy_out;
  /// Seconds of the window in which the engine was executing a span
  /// (complement: idle gaps between bursts).
  double engine_active_s = 0;
  int active = 0;           ///< max concurrently active coflows
  std::size_t pending = 0;  ///< max pending releases (event-queue depth)
  std::uint64_t admitted = 0;
  int blocked = 0;  ///< max coflows with zero circuit time (rate) in a span
  int replans = 0;
  // --- host-dependent (export-gated; see the determinism contract) -----
  double replan_ns_max = 0;
  double replan_ns_sum = 0;
  double rolling_p50_ns = 0;  ///< rolling percentiles as of the window
  double rolling_p99_ns = 0;

  Time width() const { return end - begin; }
};

/// Run-level replan wall-latency aggregates.
struct ReplanSloStats {
  std::uint64_t replans = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  double max_ns = 0;
};

/// End-of-run aggregates. Utilization and idleness come from exact
/// accumulators (not the decimated samples), so decimation never changes
/// them; util_p99 is the only field computed over the retained windows.
struct TimelineSummary {
  std::size_t samples = 0;
  int planes = 0;
  PortId ports = 0;
  Time horizon_begin = 0;
  Time horizon_end = 0;
  /// Mean fabric utilization over the engine-active horizon: busy
  /// port-seconds / (2 sides * planes * ports * horizon).
  double util_mean = 0;
  /// p99 of per-window fabric utilization across retained samples.
  double util_p99 = 0;
  /// §5.4 network idleness, computed online with NetworkIdleness()'s
  /// exact formula: 1 - |union of [arrival, arrival + TpL)| / horizon
  /// over [first arrival, last demand end].
  double idle_fraction = 0;
  /// Fraction of [first span begin, last span end] the engine spent
  /// executing spans (vs fast-forwarding over idle gaps).
  double engine_active_fraction = 0;
  std::size_t decimations = 0;
  ReplanSloStats slo;
};

/// The sampler. Ingestion calls come from ReplayDriver (the sole caller
/// in-tree); export/summary calls come from the bench session after the
/// run. Not thread-safe — one sampler observes one replay, exactly like a
/// TraceSink.
class TimelineSampler {
 public:
  explicit TimelineSampler(const TimelineConfig& config = {});

  // --- ingestion (driver-facing) -------------------------------------

  /// Starts (or restarts) a run: clears all samples and accumulators.
  void BeginRun(PortId num_ports);
  /// A coflow admitted with demand interval [arrival, arrival + tpl).
  /// Admissions must arrive in non-decreasing `arrival` order (the event
  /// queue's (time, seq) pop order guarantees this), which makes the
  /// online idleness union exact.
  void NoteAdmitted(Time arrival, Time tpl);
  /// Pending-release queue depth observed at the top of a loop iteration.
  void NoteQueueDepth(Time t, std::size_t depth);
  /// One replan at sim time `t` that took `wall_ns` of host time.
  void NoteReplan(Time t, double wall_ns);
  /// The engine executed a span covering [begin, end).
  void NoteEngineSpan(Time begin, Time end);
  /// Clipped circuit occupancy plus coflow gauges for the span
  /// [t, t_next): `active` coflows were admitted, `blocked` of them got
  /// zero circuit time (or, on a packet fabric, zero rate) in the span.
  void IngestCircuits(Time t, Time t_next,
                      const std::vector<TimelineCircuitUse>& uses, int active,
                      int blocked);
  /// Finalizes every window ending at or before `t` with the current
  /// gauges. The driver calls this after each harvested span and after an
  /// idle-gap fast-forward.
  void Advance(Time t, int active, std::size_t pending,
               std::uint64_t admitted);
  /// Finalizes the trailing partial window at the run end `t`.
  void EndRun(Time t);

  // --- inspection / export -------------------------------------------

  const std::vector<TimelineSample>& samples() const { return samples_; }
  std::size_t decimations() const { return decimations_; }
  /// Current effective window width (config.dt * 2^decimations).
  Time effective_dt() const { return cur_dt_; }
  int planes() const { return planes_; }
  bool empty() const { return samples_.empty() && open_.empty(); }

  TimelineSummary Summarize() const;
  /// `# sunflow.timeline/v1` header comment + CSV rows. Deterministic
  /// bytes unless config.include_wall.
  void WriteCsv(std::ostream& os) const;

 private:
  TimelineSample& WindowAt(Time t);
  void EnsureOpenThrough(Time t);
  void AddBusy(PlaneId plane, bool input, Time begin, Time end,
               double ports);
  void FinalizeThrough(Time t);
  void EmitWindow(TimelineSample s);
  void Decimate();
  static TimelineSample MergePair(TimelineSample a, const TimelineSample& b);

  TimelineConfig config_;
  PortId ports_ = 0;
  int planes_ = 0;

  // Open (not yet finalized) windows, oldest first; contiguous in time
  // starting at next_open_begin_ - k * widths. Interval contributions land
  // here; Advance() moves closed windows into samples_.
  std::vector<TimelineSample> open_;
  Time next_open_begin_ = 0;
  Time cur_dt_ = 0.1;

  std::vector<TimelineSample> samples_;
  std::size_t decimations_ = 0;

  // Close-time gauges (set by Advance, stamped into finalized windows).
  int cur_active_ = 0;
  std::size_t cur_pending_ = 0;
  std::uint64_t cur_admitted_ = 0;

  // Online §5.4 idleness union: admissions arrive sorted by arrival, so
  // the union of [arrival, arrival + tpl) is a closed prefix (covered_)
  // plus one growing segment [seg_begin_, cover_end_).
  bool any_demand_ = false;
  Time first_arrival_ = 0;
  Time seg_begin_ = 0;
  Time cover_end_ = 0;
  Time last_demand_end_ = 0;
  double covered_ = 0;

  // Exact run-level accumulators (decimation-independent).
  double total_busy_s_ = 0;
  double total_engine_active_s_ = 0;
  bool any_span_ = false;
  Time first_span_begin_ = 0;
  Time last_span_end_ = 0;

  // Replan latency: run-level HDR histogram + rolling ring buffer.
  Histogram replan_ns_;
  std::vector<double> rolling_;  ///< ring buffer, kRollingWindow entries
  std::size_t rolling_next_ = 0;
};

}  // namespace sunflow::obs
