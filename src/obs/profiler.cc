#include "obs/profiler.h"

#include <algorithm>
#include <atomic>

namespace sunflow::obs {

namespace {

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

// Innermost open scope on this thread — the parent for nested attribution.
thread_local ProfileScope* g_current_scope = nullptr;

}  // namespace

bool ProfilingEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetProfilingEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

double CalibrateScopeCostNs() {
  // Replays the exact work an enabled scope does (lookup + two clock
  // reads + accumulation) against a throwaway registry, best-of-3 batches
  // so a scheduler hiccup cannot inflate the estimate.
  MetricsRegistry scratch;
  constexpr int kBatch = 2000;
  double best = 1e300;
  for (int round = 0; round < 3; ++round) {
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) {
      PhaseStats& s = scratch.GetPhase("profiler.calibration");
      const auto t0 = std::chrono::steady_clock::now();
      const auto t1 = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      ++s.count;
      s.total_ns += ns;
      s.self_ns += ns;
      s.max_ns = std::max(s.max_ns, ns);
    }
    const double batch_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - begin)
                                .count();
    best = std::min(best, batch_ns / kBatch);
  }
  return best;
}

ProfileScope::ProfileScope(std::string_view name, double* elapsed_ns)
    : elapsed_ns_(elapsed_ns) {
  if (ProfilingEnabled()) {
    stats_ = &GlobalMetrics().GetPhase(name);
    parent_ = g_current_scope;
    g_current_scope = this;
  } else if (elapsed_ns_ == nullptr) {
    return;
  }
  start_ = std::chrono::steady_clock::now();
}

ProfileScope::~ProfileScope() {
  if (stats_ == nullptr && elapsed_ns_ == nullptr) return;
  const double dur_ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
  if (elapsed_ns_ != nullptr) *elapsed_ns_ = dur_ns;
  if (stats_ == nullptr) return;
  ++stats_->count;
  stats_->total_ns += dur_ns;
  stats_->self_ns += dur_ns - child_ns_;
  stats_->max_ns = std::max(stats_->max_ns, dur_ns);
  if (parent_ != nullptr) parent_->child_ns_ += dur_ns;
  g_current_scope = parent_;
}

}  // namespace sunflow::obs
