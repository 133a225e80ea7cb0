// Metrics registry — counters, log-bucketed latency histograms and phases.
//
// One process-wide registry (GlobalMetrics) replaces the ad-hoc
// `circuit_setups`-style tallies that used to be recomputed inside each
// bench binary. Instrument names follow a dotted hierarchy:
//   scheduler.compute_ns     histogram, wall-clock ns per scheduling pass
//   executor.circuit_setups  counter, setups that paid δ
//   executor.slots           counter, assignment slots executed
//   prt.reservations         counter, PRT reservations committed
//   admission.admits/rejects counters, deadline admission outcomes
//   replay.replans           counter, replan passes in trace replay
//   starvation.rounds        counter, τ spans executed
//   engine.plan, core.plan   phases, wall time of a profiled code region
//                            (recorded by ProfileScope, obs/profiler.h)
//
// Instruments are created on first use and never move (node-based map), so
// hot paths may cache references. Threading follows the sharded-merge
// contract of src/runtime's sweep engine: a plain MetricsRegistry is a
// single-threaded shard, and the process-wide GlobalMetrics() is a
// ShardedMetricsRegistry whose Get* calls resolve to the *calling
// thread's* private shard (so recording is lock- and race-free) and whose
// WriteText()/Merged() fold all shards together commutatively —
// counters and histogram buckets sum, so the merged view is identical at
// any thread count. Collect only after workers have quiesced (e.g. after
// ParallelFor returned). Hot paths that cache an instrument reference must
// cache it `thread_local`, never plain `static`, or every thread would
// write the first caller's shard. Reset() zeroes values but keeps
// registrations (cached references stay valid).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sunflow::obs {

class Counter {
 public:
  void Increment(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// HDR-style histogram: positive values land in logarithmic buckets with
/// 64 sub-buckets per power of two, bounding the relative quantile error
/// by 2^(1/128) − 1 ≈ 0.55% (cross-checked against stats::Percentile in
/// tests/obs_test.cc). Non-positive values share one underflow bucket.
/// Recording is O(log #distinct-buckets) and allocation-free after warmup.
class Histogram {
 public:
  void Record(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }

  /// Value at percentile `pct` in [0, 100], clamped into [min, max]. The
  /// same "nearest-rank on bucket midpoints" definition HDR histograms
  /// use; 0 for an empty histogram.
  double ValueAtPercentile(double pct) const;

  /// Folds another histogram in (bucket-wise sum). Merging per-shard
  /// histograms that recorded the same multiset of values yields the same
  /// state as one histogram recording them all — the sharded-merge
  /// equivalence tests/runtime_test.cc locks in.
  void MergeFrom(const Histogram& other);

  void Reset();

 private:
  static constexpr int kSubBucketsPerOctave = 64;

  static int BucketIndex(double v);
  static double BucketMid(int index);

  std::map<int, std::uint64_t> buckets_;  // positive values, by log2 bucket
  std::uint64_t underflow_ = 0;           // v <= 0
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Wall time of one profiled phase. Nested scopes attribute time to both
/// the enclosing phase (total_ns, inclusive) and the phase itself net of
/// profiled children (self_ns, exclusive), so a phase tree sums without
/// double counting.
struct PhaseStats {
  std::uint64_t count = 0;
  double total_ns = 0;  ///< inclusive wall time (children counted)
  double self_ns = 0;   ///< exclusive wall time (profiled children deducted)
  double max_ns = 0;    ///< longest single scope (inclusive)

  double mean_ns() const {
    return count > 0 ? total_ns / static_cast<double>(count) : 0;
  }
  /// Commutative fold: counts and durations sum, max takes the larger.
  void MergeFrom(const PhaseStats& other);
};

/// Phase dump row (one per phase) for manifests.
struct ProfileRow {
  std::string name;
  PhaseStats stats;
};

/// Flat dump row (one per instrument) for text and CSV export.
struct MetricRow {
  std::string name;
  std::string kind;  ///< "counter" | "histogram"
  std::uint64_t count = 0;
  double value = 0;  ///< counter value; histogram sum
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double max = 0;
};

class MetricsRegistry {
 public:
  /// Creates on first use; returned references are stable for the life of
  /// the registry (Reset does not invalidate them).
  Counter& GetCounter(std::string_view name);
  Histogram& GetHistogram(std::string_view name);
  PhaseStats& GetPhase(std::string_view name);

  /// Read-only lookups; null when the instrument was never created.
  const Counter* FindCounter(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;
  const PhaseStats* FindPhase(std::string_view name) const;

  /// All counters and histograms, sorted by name.
  std::vector<MetricRow> Rows() const;

  /// Phases entered at least once since the last Reset(), sorted by name.
  std::vector<ProfileRow> PhaseRows() const;

  /// Human-readable dump, one instrument per line.
  void WriteText(std::ostream& out) const;

  /// Zeroes every instrument, keeping registrations and addresses.
  void Reset();

  /// Folds another registry in: counters, histograms and phases sum.
  void MergeFrom(const MetricsRegistry& other);

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, PhaseStats, std::less<>> phases_;
};

/// Thread-safe façade over per-thread MetricsRegistry shards. Recording
/// (Get*) touches only the calling thread's shard — no locks, no atomics,
/// no false sharing on the hot path; the one-time shard creation takes a
/// mutex. Reading (WriteText/Merged/FindCounter) folds all shards together
/// and must only run once concurrent writers have quiesced (after the
/// pool's ParallelFor returned / the pool was destroyed).
class ShardedMetricsRegistry {
 public:
  ShardedMetricsRegistry();
  ShardedMetricsRegistry(const ShardedMetricsRegistry&) = delete;
  ShardedMetricsRegistry& operator=(const ShardedMetricsRegistry&) = delete;

  /// The calling thread's shard (created on first use). Instrument
  /// references obtained from it are stable but thread-bound: cache them
  /// `thread_local`, never plain `static`.
  MetricsRegistry& Shard();

  Counter& GetCounter(std::string_view name) {
    return Shard().GetCounter(name);
  }
  Histogram& GetHistogram(std::string_view name) {
    return Shard().GetHistogram(name);
  }
  PhaseStats& GetPhase(std::string_view name) {
    return Shard().GetPhase(name);
  }

  /// Merged snapshot of every shard. Quiesce writers first.
  MetricsRegistry Merged() const;

  /// Merged text dump (same contract as Merged): identical at any thread
  /// count for the same recorded values.
  void WriteText(std::ostream& out) const;

  /// Merged lookup: null when no shard ever created the counter. The
  /// pointee is a snapshot owned by an internal buffer that is replaced on
  /// the next call from the same thread — read it immediately.
  const Counter* FindCounter(std::string_view name) const;

  /// Zeroes every instrument in every shard (registrations survive).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<MetricsRegistry>> shards_;
  std::uint64_t id_ = 0;  ///< distinguishes reincarnations at one address
};

/// The process-wide registry used by the built-in instrumentation.
ShardedMetricsRegistry& GlobalMetrics();

}  // namespace sunflow::obs
