#include "obs/timeline.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/assert.h"
#include "common/stats.h"
#include "obs/json.h"

namespace sunflow::obs {

namespace {

/// Number of most-recent replans in the rolling p50/p99 window.
constexpr std::size_t kRollingWindow = 64;

// Per-window fabric utilization: busy port-seconds over the window's
// total port-time across both sides of every plane seen so far.
double WindowUtil(const TimelineSample& s, int planes, PortId ports) {
  if (planes <= 0 || ports <= 0 || s.width() <= kTimeEps) return 0;
  double busy = 0;
  for (double b : s.busy_in) busy += b;
  for (double b : s.busy_out) busy += b;
  return busy / (2.0 * planes * static_cast<double>(ports) * s.width());
}

double SideUtil(const std::vector<double>& busy, std::size_t plane,
                PortId ports, Time width) {
  if (ports <= 0 || width <= kTimeEps) return 0;
  const double b = plane < busy.size() ? busy[plane] : 0;
  return b / (static_cast<double>(ports) * width);
}

}  // namespace

TimelineSampler::TimelineSampler(const TimelineConfig& config)
    : config_(config) {
  SUNFLOW_CHECK_MSG(config_.dt > 0, "timeline dt must be positive");
  config_.cap = std::max<std::size_t>(config_.cap, 2);
  cur_dt_ = config_.dt;
}

void TimelineSampler::BeginRun(PortId num_ports) {
  ports_ = num_ports;
  planes_ = 0;
  open_.clear();
  next_open_begin_ = 0;
  cur_dt_ = config_.dt;
  samples_.clear();
  decimations_ = 0;
  cur_active_ = 0;
  cur_pending_ = 0;
  cur_admitted_ = 0;
  any_demand_ = false;
  first_arrival_ = seg_begin_ = cover_end_ = last_demand_end_ = 0;
  covered_ = 0;
  total_busy_s_ = 0;
  total_engine_active_s_ = 0;
  any_span_ = false;
  first_span_begin_ = last_span_end_ = 0;
  replan_ns_.Reset();
  rolling_.clear();
  rolling_next_ = 0;
}

void TimelineSampler::EnsureOpenThrough(Time t) {
  while (next_open_begin_ < t - kTimeEps) {
    TimelineSample s;
    s.begin = next_open_begin_;
    s.end = next_open_begin_ + cur_dt_;
    next_open_begin_ = s.end;
    open_.push_back(std::move(s));
  }
}

TimelineSample& TimelineSampler::WindowAt(Time t) {
  // Guarantee a window covering t (EnsureOpenThrough alone stops short
  // when t sits exactly on next_open_begin_ — e.g. the very first
  // NoteQueueDepth of a run at t = 0 with no windows open yet).
  while (open_.empty() || next_open_begin_ <= t + kTimeEps) {
    TimelineSample s;
    s.begin = next_open_begin_;
    s.end = next_open_begin_ + cur_dt_;
    next_open_begin_ = s.end;
    open_.push_back(std::move(s));
  }
  // Windows are contiguous; scan from the back (recent instants land in
  // the most recent windows).
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i].begin <= t + kTimeEps) return open_[i];
  }
  return open_.front();
}

void TimelineSampler::AddBusy(PlaneId plane, bool input, Time begin,
                              Time end, double ports) {
  if (end - begin <= kTimeEps) return;
  planes_ = std::max(planes_, static_cast<int>(plane) + 1);
  total_busy_s_ += ports * (end - begin);
  EnsureOpenThrough(end);
  for (auto& w : open_) {
    const Time lo = std::max(begin, w.begin);
    const Time hi = std::min(end, w.end);
    if (hi - lo <= 0) continue;
    auto& busy = input ? w.busy_in : w.busy_out;
    if (busy.size() <= static_cast<std::size_t>(plane))
      busy.resize(static_cast<std::size_t>(plane) + 1, 0.0);
    busy[static_cast<std::size_t>(plane)] += ports * (hi - lo);
  }
}

void TimelineSampler::NoteAdmitted(Time arrival, Time tpl) {
  const Time demand_end = arrival + std::max<Time>(tpl, 0);
  if (!any_demand_) {
    any_demand_ = true;
    first_arrival_ = arrival;
    seg_begin_ = arrival;
    cover_end_ = demand_end;
  } else if (arrival > cover_end_) {
    // Gap: close the current union segment, start a new one.
    covered_ += cover_end_ - seg_begin_;
    seg_begin_ = arrival;
    cover_end_ = demand_end;
  } else {
    cover_end_ = std::max(cover_end_, demand_end);
  }
  last_demand_end_ = std::max(last_demand_end_, demand_end);
}

void TimelineSampler::NoteQueueDepth(Time t, std::size_t depth) {
  TimelineSample& w = WindowAt(t);
  w.pending = std::max(w.pending, depth);
}

void TimelineSampler::NoteReplan(Time t, double wall_ns) {
  replan_ns_.Record(wall_ns);
  if (rolling_.size() < kRollingWindow) {
    rolling_.push_back(wall_ns);
  } else {
    rolling_[rolling_next_] = wall_ns;
    rolling_next_ = (rolling_next_ + 1) % kRollingWindow;
  }
  std::vector<double> sorted = rolling_;
  std::sort(sorted.begin(), sorted.end());

  TimelineSample& w = WindowAt(t);
  ++w.replans;
  w.replan_ns_max = std::max(w.replan_ns_max, wall_ns);
  w.replan_ns_sum += wall_ns;
  w.rolling_p50_ns = stats::Percentile(sorted, 50);
  w.rolling_p99_ns = stats::Percentile(sorted, 99);
}

void TimelineSampler::NoteEngineSpan(Time begin, Time end) {
  if (end - begin <= kTimeEps) return;
  if (!any_span_) {
    any_span_ = true;
    first_span_begin_ = begin;
    last_span_end_ = end;
  } else {
    first_span_begin_ = std::min(first_span_begin_, begin);
    last_span_end_ = std::max(last_span_end_, end);
  }
  total_engine_active_s_ += end - begin;
  EnsureOpenThrough(end);
  for (auto& w : open_) {
    const Time lo = std::max(begin, w.begin);
    const Time hi = std::min(end, w.end);
    if (hi - lo > 0) w.engine_active_s += hi - lo;
  }
}

void TimelineSampler::IngestCircuits(
    Time t, Time t_next, const std::vector<TimelineCircuitUse>& uses,
    int active, int blocked) {
  for (const auto& u : uses) {
    AddBusy(u.plane, /*input=*/true, u.begin, u.end, u.ports);
    AddBusy(u.plane, /*input=*/false, u.begin, u.end, u.ports);
  }
  if (t_next - t <= kTimeEps) return;
  EnsureOpenThrough(t_next);
  for (auto& w : open_) {
    if (w.end <= t + kTimeEps || w.begin >= t_next - kTimeEps) continue;
    w.active = std::max(w.active, active);
    w.blocked = std::max(w.blocked, blocked);
  }
}

void TimelineSampler::FinalizeThrough(Time t) {
  // Interleave creation and emission so a long idle gap never piles up
  // open windows: at most one empty window exists at a time while the
  // gap drains into the (decimating) sample buffer.
  for (;;) {
    if (open_.empty()) {
      if (next_open_begin_ >= t - kTimeEps) break;
      TimelineSample s;
      s.begin = next_open_begin_;
      s.end = next_open_begin_ + cur_dt_;
      next_open_begin_ = s.end;
      open_.push_back(std::move(s));
    }
    if (open_.front().end > t + kTimeEps) break;
    TimelineSample s = std::move(open_.front());
    open_.erase(open_.begin());
    s.active = std::max(s.active, cur_active_);
    s.pending = std::max(s.pending, cur_pending_);
    s.admitted = cur_admitted_;
    EmitWindow(std::move(s));
  }
}

void TimelineSampler::Advance(Time t, int active, std::size_t pending,
                              std::uint64_t admitted) {
  cur_active_ = active;
  cur_pending_ = pending;
  cur_admitted_ = admitted;
  FinalizeThrough(t);
}

void TimelineSampler::EndRun(Time t) {
  FinalizeThrough(t);
  while (!open_.empty()) {
    TimelineSample s = std::move(open_.front());
    open_.erase(open_.begin());
    s.end = std::min(s.end, std::max(t, s.begin));
    s.active = std::max(s.active, cur_active_);
    s.pending = std::max(s.pending, cur_pending_);
    s.admitted = cur_admitted_;
    if (s.width() > kTimeEps) EmitWindow(std::move(s));
  }
}

void TimelineSampler::EmitWindow(TimelineSample s) {
  samples_.push_back(std::move(s));
  if (samples_.size() >= config_.cap) Decimate();
}

TimelineSample TimelineSampler::MergePair(TimelineSample a,
                                          const TimelineSample& b) {
  a.end = b.end;
  if (a.busy_in.size() < b.busy_in.size()) a.busy_in.resize(b.busy_in.size(), 0.0);
  for (std::size_t i = 0; i < b.busy_in.size(); ++i) a.busy_in[i] += b.busy_in[i];
  if (a.busy_out.size() < b.busy_out.size())
    a.busy_out.resize(b.busy_out.size(), 0.0);
  for (std::size_t i = 0; i < b.busy_out.size(); ++i)
    a.busy_out[i] += b.busy_out[i];
  a.engine_active_s += b.engine_active_s;
  a.active = std::max(a.active, b.active);
  a.pending = std::max(a.pending, b.pending);
  a.admitted = b.admitted;  // cumulative: the later window's count wins
  a.blocked = std::max(a.blocked, b.blocked);
  a.replans += b.replans;
  a.replan_ns_max = std::max(a.replan_ns_max, b.replan_ns_max);
  a.replan_ns_sum += b.replan_ns_sum;
  if (b.replans > 0) {
    a.rolling_p50_ns = b.rolling_p50_ns;
    a.rolling_p99_ns = b.rolling_p99_ns;
  }
  return a;
}

void TimelineSampler::Decimate() {
  ++decimations_;
  cur_dt_ *= 2;
  std::size_t w = 0;
  std::size_t i = 0;
  for (; i + 1 < samples_.size(); i += 2)
    samples_[w++] = MergePair(std::move(samples_[i]), samples_[i + 1]);
  if (i < samples_.size()) samples_[w++] = std::move(samples_[i]);
  samples_.resize(w);
}

TimelineSummary TimelineSampler::Summarize() const {
  TimelineSummary out;
  out.samples = samples_.size();
  out.planes = planes_;
  out.ports = ports_;
  out.decimations = decimations_;
  if (any_span_) {
    out.horizon_begin = first_span_begin_;
    out.horizon_end = last_span_end_;
    const Time horizon = last_span_end_ - first_span_begin_;
    if (horizon > kTimeEps) {
      if (planes_ > 0 && ports_ > 0) {
        out.util_mean = total_busy_s_ /
                        (2.0 * planes_ * static_cast<double>(ports_) * horizon);
      }
      out.engine_active_fraction =
          std::clamp(total_engine_active_s_ / horizon, 0.0, 1.0);
    }
  }
  if (!samples_.empty()) {
    std::vector<double> utils;
    utils.reserve(samples_.size());
    for (const auto& s : samples_)
      utils.push_back(WindowUtil(s, planes_, ports_));
    out.util_p99 = stats::Percentile(utils, 99);
  }
  if (any_demand_) {
    const double covered = covered_ + (cover_end_ - seg_begin_);
    const Time horizon = last_demand_end_ - first_arrival_;
    if (horizon > kTimeEps)
      out.idle_fraction = std::clamp(1.0 - covered / horizon, 0.0, 1.0);
  }
  out.slo.replans = replan_ns_.count();
  out.slo.p50_ns = replan_ns_.ValueAtPercentile(50);
  out.slo.p99_ns = replan_ns_.ValueAtPercentile(99);
  out.slo.max_ns = replan_ns_.max();
  return out;
}

void TimelineSampler::WriteCsv(std::ostream& os) const {
  os << "# sunflow.timeline/v1\n";
  os << "# dt=" << FormatJsonNumber(config_.dt)
     << " effective_dt=" << FormatJsonNumber(cur_dt_)
     << " cap=" << config_.cap << " planes=" << planes_
     << " ports=" << ports_ << " decimations=" << decimations_ << "\n";
  os << "t_begin,t_end";
  const int planes = std::max(planes_, 1);
  for (int p = 0; p < planes; ++p)
    os << ",util_in_p" << p << ",util_out_p" << p;
  os << ",engine_active_frac,active,queue_depth,admitted,blocked,replans";
  if (config_.include_wall) {
    os << ",replan_ns_max,replan_ns_sum,rolling_p50_ns,rolling_p99_ns";
  }
  os << "\n";
  for (const auto& s : samples_) {
    os << FormatJsonNumber(s.begin) << ',' << FormatJsonNumber(s.end);
    for (int p = 0; p < planes; ++p) {
      os << ','
         << FormatJsonNumber(SideUtil(s.busy_in, static_cast<std::size_t>(p),
                                      ports_, s.width()))
         << ','
         << FormatJsonNumber(SideUtil(s.busy_out, static_cast<std::size_t>(p),
                                      ports_, s.width()));
    }
    const double active_frac =
        s.width() > kTimeEps
            ? std::clamp(s.engine_active_s / s.width(), 0.0, 1.0)
            : 0.0;
    os << ',' << FormatJsonNumber(active_frac) << ',' << s.active << ','
       << s.pending << ',' << s.admitted << ',' << s.blocked << ','
       << s.replans;
    if (config_.include_wall) {
      os << ',' << FormatJsonNumber(s.replan_ns_max) << ','
         << FormatJsonNumber(s.replan_ns_sum) << ','
         << FormatJsonNumber(s.rolling_p50_ns) << ','
         << FormatJsonNumber(s.rolling_p99_ns);
    }
    os << "\n";
  }
}

}  // namespace sunflow::obs
