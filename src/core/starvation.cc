#include "core/starvation.h"

#include <cmath>

#include "common/assert.h"

namespace sunflow {

PhiAssignments::PhiAssignments(PortId num_ports) : num_ports_(num_ports) {
  SUNFLOW_CHECK(num_ports > 0);
}

PortId PhiAssignments::OutputOf(int k, PortId i) const {
  SUNFLOW_CHECK(k >= 0 && k < num_ports_);
  SUNFLOW_CHECK(i >= 0 && i < num_ports_);
  return static_cast<PortId>((i + k) % num_ports_);
}

StarvationGuardTimeline::StarvationGuardTimeline(
    const StarvationGuardConfig& config, PortId num_ports)
    : period_(config.big_interval + config.small_interval),
      config_(config),
      num_ports_(num_ports) {
  SUNFLOW_CHECK(config.big_interval > 0);
  SUNFLOW_CHECK(config.small_interval > 0);
  SUNFLOW_CHECK_MSG(config.big_interval >= config.small_interval,
                    "expected T >= tau");
}

namespace {
// Index of the (T+τ) period containing t, snapped so that a t lying within
// kTimeEps of a period boundary counts as the *next* period (floor of an
// exact multiple can land one ulp short).
long long PeriodIndex(Time t, Time period) {
  return static_cast<long long>(std::floor((t + kTimeEps) / period));
}
}  // namespace

bool StarvationGuardTimeline::InTauInterval(Time t) const {
  SUNFLOW_CHECK(t >= 0);
  const Time phase =
      t - static_cast<Time>(PeriodIndex(t, period_)) * period_;
  // Layout within each period: [0, T) priority-scheduled, [T, T+tau) fixed.
  return phase >= config_.big_interval - kTimeEps;
}

int StarvationGuardTimeline::AssignmentIndexAt(Time t) const {
  SUNFLOW_CHECK(t >= 0);
  return static_cast<int>(PeriodIndex(t, period_) % num_ports_);
}

Time StarvationGuardTimeline::NextBoundaryAfter(Time t) const {
  SUNFLOW_CHECK(t >= 0);
  const auto interval = static_cast<Time>(PeriodIndex(t, period_));
  const Time tau_start = interval * period_ + config_.big_interval;
  if (tau_start > t + kTimeEps) return tau_start;
  const Time next_period = (interval + 1) * period_;
  if (next_period > t + kTimeEps) return next_period;
  return next_period + config_.big_interval;
}

Time StarvationGuardTimeline::MaxServiceGap() const {
  return static_cast<Time>(num_ports_) * period_;
}

}  // namespace sunflow
