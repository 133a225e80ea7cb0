#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ostream>
#include <unordered_map>

namespace sunflow::obs {

int Histogram::BucketIndex(double v) {
  // v > 0 here. floor(log2(v) * 64) gives ~1.1% wide buckets.
  return static_cast<int>(
      std::floor(std::log2(v) * static_cast<double>(kSubBucketsPerOctave)));
}

double Histogram::BucketMid(int index) {
  // Geometric midpoint of [2^(i/64), 2^((i+1)/64)).
  return std::exp2((static_cast<double>(index) + 0.5) /
                   static_cast<double>(kSubBucketsPerOctave));
}

void Histogram::Record(double v) {
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  if (v > 0) {
    ++buckets_[BucketIndex(v)];
  } else {
    ++underflow_;
  }
}

double Histogram::ValueAtPercentile(double pct) const {
  if (count_ == 0) return 0;
  pct = std::clamp(pct, 0.0, 100.0);
  // Nearest-rank: the smallest bucket whose cumulative count covers
  // ceil(pct/100 * count), at least 1.
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(pct / 100.0 * static_cast<double>(count_))));
  std::uint64_t cum = underflow_;
  if (cum >= target) return min_;  // underflow bucket holds all v <= 0
  for (const auto& [index, n] : buckets_) {
    cum += n;
    if (cum >= target) return std::clamp(BucketMid(index), min_, max_);
  }
  return max_;
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) return;
  for (const auto& [index, n] : other.buckets_) buckets_[index] += n;
  underflow_ += other.underflow_;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Reset() {
  buckets_.clear();
  underflow_ = 0;
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

void PhaseStats::MergeFrom(const PhaseStats& other) {
  count += other.count;
  total_ns += other.total_ns;
  self_ns += other.self_ns;
  max_ns = std::max(max_ns, other.max_ns);
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.try_emplace(std::string(name)).first;
  return it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.try_emplace(std::string(name)).first;
  return it->second;
}

PhaseStats& MetricsRegistry::GetPhase(std::string_view name) {
  auto it = phases_.find(name);
  if (it == phases_.end()) it = phases_.try_emplace(std::string(name)).first;
  return it->second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? &it->second : nullptr;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

const PhaseStats* MetricsRegistry::FindPhase(std::string_view name) const {
  const auto it = phases_.find(name);
  return it != phases_.end() ? &it->second : nullptr;
}

std::vector<MetricRow> MetricsRegistry::Rows() const {
  std::vector<MetricRow> rows;
  rows.reserve(counters_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricRow row;
    row.name = name;
    row.kind = "counter";
    row.count = c.value();
    row.value = static_cast<double>(c.value());
    rows.push_back(std::move(row));
  }
  for (const auto& [name, h] : histograms_) {
    MetricRow row;
    row.name = name;
    row.kind = "histogram";
    row.count = h.count();
    row.value = h.sum();
    row.mean = h.mean();
    row.p50 = h.ValueAtPercentile(50);
    row.p95 = h.ValueAtPercentile(95);
    row.max = h.max();
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const MetricRow& a, const MetricRow& b) {
              return a.name < b.name;
            });
  return rows;
}

std::vector<ProfileRow> MetricsRegistry::PhaseRows() const {
  std::vector<ProfileRow> rows;
  for (const auto& [name, stats] : phases_)
    if (stats.count > 0) rows.push_back({name, stats});
  return rows;  // map order == sorted by name
}

void MetricsRegistry::WriteText(std::ostream& out) const {
  for (const MetricRow& row : Rows()) {
    out << row.name << " (" << row.kind << ")";
    if (row.kind == "counter") {
      out << " value=" << row.count;
    } else {
      out << " count=" << row.count << " mean=" << row.mean
          << " p50=" << row.p50 << " p95=" << row.p95 << " max=" << row.max;
    }
    out << "\n";
  }
}

void MetricsRegistry::Reset() {
  for (auto& [name, c] : counters_) c.Reset();
  for (auto& [name, h] : histograms_) h.Reset();
  for (auto& [name, p] : phases_) p = PhaseStats{};
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_)
    GetCounter(name).Increment(c.value());
  for (const auto& [name, h] : other.histograms_)
    GetHistogram(name).MergeFrom(h);
  for (const auto& [name, p] : other.phases_) GetPhase(name).MergeFrom(p);
}

namespace {

/// The calling thread's shard cache. Keyed by registry identity (pointer
/// + incarnation id) so a registry destroyed and reallocated at the same
/// address misses instead of resolving to a dangling shard.
struct ShardSlot {
  std::uint64_t id = 0;
  MetricsRegistry* shard = nullptr;
};

std::uint64_t NextRegistryId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ShardedMetricsRegistry::ShardedMetricsRegistry() : id_(NextRegistryId()) {}

MetricsRegistry& ShardedMetricsRegistry::Shard() {
  thread_local std::unordered_map<const ShardedMetricsRegistry*, ShardSlot>
      cache;
  ShardSlot& slot = cache[this];
  if (slot.shard != nullptr && slot.id == id_) return *slot.shard;
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<MetricsRegistry>());
  slot = {id_, shards_.back().get()};
  return *slot.shard;
}

MetricsRegistry ShardedMetricsRegistry::Merged() const {
  MetricsRegistry merged;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) merged.MergeFrom(*shard);
  return merged;
}

void ShardedMetricsRegistry::WriteText(std::ostream& out) const {
  Merged().WriteText(out);
}

namespace {
/// Backing store for ShardedMetricsRegistry::FindCounter — a merged
/// snapshot that stays alive until the same thread's next call.
MetricsRegistry& FindSnapshot() {
  thread_local MetricsRegistry snapshot;
  return snapshot;
}
}  // namespace

const Counter* ShardedMetricsRegistry::FindCounter(
    std::string_view name) const {
  FindSnapshot() = Merged();
  return FindSnapshot().FindCounter(name);
}

void ShardedMetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) shard->Reset();
}

ShardedMetricsRegistry& GlobalMetrics() {
  static ShardedMetricsRegistry& registry =
      *new ShardedMetricsRegistry();  // leaked: outlives worker threads
  return registry;
}

}  // namespace sunflow::obs
