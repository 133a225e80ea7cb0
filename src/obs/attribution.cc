#include "obs/attribution.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace sunflow::obs {

namespace {

// Interval classes, in label priority order (lower wins a segment).
enum Class : int { kTransmit = 0, kDelta = 1, kContention = 2, kHold = 3 };

struct Boundary {
  Time t = 0;
  Class cls = kTransmit;
  int delta = 0;  ///< +1 open, -1 close
  CoflowId blamer = -1;
};

// Everything the sweep needs about one coflow, gathered in one pass.
struct CoflowEvents {
  bool admitted_seen = false;
  bool completed_seen = false;
  Time admitted = 0;
  Time completed = 0;
  Time cct_value = 0;
  double planner_compute_ns = 0;
  std::vector<Boundary> boundaries;
  // For the critical-path walk.
  std::vector<Event> setups;    ///< kCircuitSetup
  std::vector<Event> episodes;  ///< kFlowUnblocked (closed blocked spans)
  // Open kFlowBlocked episodes awaiting their kFlowUnblocked, keyed by
  // flow; whatever is still open at completion is treated as blocked to
  // the end (truncated traces should still attribute what they can).
  std::map<std::pair<PortId, PortId>, Event> open_blocked;
};

void AddInterval(CoflowEvents& ce, Time begin, Time end, Class cls,
                 CoflowId blamer) {
  if (end <= begin) return;
  ce.boundaries.push_back({begin, cls, +1, blamer});
  ce.boundaries.push_back({end, cls, -1, blamer});
}

// Labels every elementary segment of [admitted, completed) and accumulates
// the component seconds. Priority: transmit > δ > contention > hold.
void Sweep(const CoflowEvents& ce, CoflowAttribution& out) {
  std::vector<Boundary> bs;
  bs.reserve(ce.boundaries.size());
  // Clip to the attribution window; intervals fully outside vanish.
  for (Boundary b : ce.boundaries) {
    b.t = std::clamp(b.t, ce.admitted, ce.completed);
    bs.push_back(b);
  }
  std::sort(bs.begin(), bs.end(),
            [](const Boundary& a, const Boundary& b) { return a.t < b.t; });

  std::map<CoflowId, int> blamers;  // open contention intervals per blamer
  int active[4] = {0, 0, 0, 0};
  std::map<CoflowId, Time> share;
  Time prev = ce.admitted;
  std::size_t i = 0;
  while (prev < ce.completed) {
    const Time cur =
        i < bs.size() ? std::min(bs[i].t, ce.completed) : ce.completed;
    if (cur > prev) {
      const Time len = cur - prev;
      if (active[kTransmit] > 0) {
        out.transmit += len;
      } else if (active[kDelta] > 0) {
        out.delta += len;
      } else if (active[kContention] > 0) {
        out.contention += len;
        std::size_t distinct = 0;
        for (const auto& [id, n] : blamers)
          if (n > 0) ++distinct;
        if (distinct > 0) {
          const Time each = len / static_cast<double>(distinct);
          for (const auto& [id, n] : blamers)
            if (n > 0) share[id] += each;
        } else {
          share[-1] += len;
        }
      } else if (active[kHold] > 0) {
        out.starvation_hold += len;
      } else {
        out.unattributed += len;
      }
      prev = cur;
    }
    // Apply every boundary at this instant before labeling the next
    // segment (zero-length segments contribute nothing either way).
    while (i < bs.size() && bs[i].t <= prev) {
      active[bs[i].cls] += bs[i].delta;
      if (bs[i].cls == kContention) blamers[bs[i].blamer] += bs[i].delta;
      ++i;
    }
    if (i >= bs.size() && prev >= ce.completed) break;
  }

  out.by_blamer.reserve(share.size());
  for (const auto& [id, s] : share) out.by_blamer.push_back({id, s});
  std::sort(out.by_blamer.begin(), out.by_blamer.end(),
            [](const ContentionShare& a, const ContentionShare& b) {
              if (a.seconds != b.seconds) return a.seconds > b.seconds;
              return a.blamer < b.blamer;
            });
}

// Backward walk from the coflow's completion through the spans that
// explain it: the finishing transmit, its δ prefix, the blocked episode
// that delayed the circuit, the circuit before that — until the admission
// instant (or a gap the trace cannot explain). The walk stays on the
// last-finishing flow: the coflow completes when that flow does, so its
// history of circuits, blocked waits, and unscheduled gaps IS the causal
// chain behind the CCT. (Rewinding through whichever parallel flow's span
// happens to cover each instant would instead produce hundreds of
// δ-prefix micro-steps with no causal meaning.)
std::vector<CriticalPathStep> WalkCriticalPath(const CoflowEvents& ce) {
  std::vector<CriticalPathStep> path;
  Time c = ce.completed;
  PortId cur_in = -1, cur_out = -1;
  for (int iter = 0; iter < 256 && c > ce.admitted + kTimeEps; ++iter) {
    const bool flow_known = cur_in >= 0;
    // 1. A circuit span of the flow ending (or still up) at c. It must
    // START strictly before c — a span beginning at c explains nothing of
    // the time before it, and accepting one would stall the walk. The
    // first iteration (flow not yet known) identifies the finishing flow
    // as the owner of the latest-starting span covering the completion.
    const Event* span = nullptr;
    for (const Event& e : ce.setups) {
      if (e.t >= c - kTimeEps || e.t + e.dur < c - kTimeEps) continue;
      if (flow_known && (e.in != cur_in || e.out != cur_out)) continue;
      if (span == nullptr || e.t > span->t) span = &e;
    }
    if (span != nullptr) {
      const Time begin = std::max(span->t + span->value, ce.admitted);
      if (c > begin + kTimeEps) {
        path.push_back({CriticalPathStep::Kind::kTransmit, begin, c, span->in,
                        span->out});
      }
      if (span->value > 0 && begin > span->t + kTimeEps) {
        path.push_back({CriticalPathStep::Kind::kDelta, span->t, begin,
                        span->in, span->out});
      }
      cur_in = span->in;
      cur_out = span->out;
      c = span->t;
      continue;
    }
    // 2. A blocked episode of the flow ending at c.
    const Event* ep = nullptr;
    for (const Event& e : ce.episodes) {
      if (std::abs(e.t - c) > kTimeEps) continue;
      if (flow_known && (e.in != cur_in || e.out != cur_out)) continue;
      if (ep == nullptr || e.dur > ep->dur) ep = &e;
    }
    if (ep != nullptr && ep->dur > kTimeEps) {
      path.push_back({CriticalPathStep::Kind::kBlocked, ep->t - ep->dur,
                      ep->t, ep->in, ep->out,
                      static_cast<CoflowId>(ep->value),
                      static_cast<BlockReason>(ep->count)});
      cur_in = ep->in;
      cur_out = ep->out;
      c = ep->t - ep->dur;
      continue;
    }
    // 3. Nothing of this flow ends here: jump the gap back to the latest
    // prior span or episode end of the flow (or to the admission if none)
    // — time the planner simply did not schedule this flow.
    Time prev_end = ce.admitted;
    for (const Event& e : ce.setups) {
      if (flow_known && (e.in != cur_in || e.out != cur_out)) continue;
      if (e.t + e.dur < c - kTimeEps)
        prev_end = std::max(prev_end, e.t + e.dur);
    }
    for (const Event& e : ce.episodes) {
      if (flow_known && (e.in != cur_in || e.out != cur_out)) continue;
      if (e.t < c - kTimeEps) prev_end = std::max(prev_end, e.t);
    }
    path.push_back({CriticalPathStep::Kind::kGap, prev_end, c});
    if (prev_end <= ce.admitted + kTimeEps) break;
    c = prev_end;
  }
  return path;
}

}  // namespace

const char* ToString(CriticalPathStep::Kind kind) {
  switch (kind) {
    case CriticalPathStep::Kind::kTransmit:
      return "transmit";
    case CriticalPathStep::Kind::kDelta:
      return "delta";
    case CriticalPathStep::Kind::kBlocked:
      return "blocked";
    case CriticalPathStep::Kind::kGap:
      return "gap";
  }
  return "?";
}

AttributionReport Attribute(std::span<const Event> events) {
  std::map<CoflowId, CoflowEvents> per_coflow;
  std::vector<const Event*> plans;
  std::map<PlaneId, Time> delta_by_plane;

  for (const Event& e : events) {
    if (e.type == EventType::kAssignmentComputed) {
      plans.push_back(&e);
      continue;
    }
    if (e.coflow < 0) continue;
    CoflowEvents& ce = per_coflow[e.coflow];
    switch (e.type) {
      case EventType::kCoflowAdmitted:
        ce.admitted_seen = true;
        ce.admitted = e.t;
        break;
      case EventType::kCoflowCompleted:
        ce.completed_seen = true;
        ce.completed = e.t;
        ce.cct_value = e.value;
        break;
      case EventType::kCircuitSetup: {
        const Time setup = std::clamp(e.value, 0.0, e.dur);
        AddInterval(ce, e.t, e.t + setup, kDelta, -1);
        AddInterval(ce, e.t + setup, e.t + e.dur, kTransmit, -1);
        if (setup > 0) delta_by_plane[e.plane] += setup;
        ce.setups.push_back(e);
        break;
      }
      case EventType::kFlowBlocked:
        ce.open_blocked[{e.in, e.out}] = e;
        break;
      case EventType::kFlowUnblocked: {
        ce.open_blocked.erase({e.in, e.out});
        const auto reason = static_cast<BlockReason>(e.count);
        const Class cls = reason == BlockReason::kStarvationHold
                              ? kHold
                              : kContention;
        AddInterval(ce, e.t - e.dur, e.t, cls,
                    static_cast<CoflowId>(e.value));
        ce.episodes.push_back(e);
        break;
      }
      case EventType::kCircuitTeardown:
      case EventType::kFlowFinished:
      case EventType::kAssignmentComputed:
      case EventType::kStarvationRound:
        break;
    }
  }

  AttributionReport report;
  Time sums[5] = {0, 0, 0, 0, 0};
  for (auto& [id, ce] : per_coflow) {
    if (!ce.completed_seen || !ce.admitted_seen) continue;
    // Episodes never closed: blocked until completion.
    for (const auto& [pair, b] : ce.open_blocked) {
      const auto reason = static_cast<BlockReason>(b.count);
      AddInterval(ce, b.t, ce.completed,
                  reason == BlockReason::kStarvationHold ? kHold
                                                         : kContention,
                  static_cast<CoflowId>(b.value));
      Event closed = b;
      closed.dur = ce.completed - b.t;
      closed.t = ce.completed;
      ce.episodes.push_back(closed);
    }

    CoflowAttribution row;
    row.coflow = id;
    row.admitted = ce.admitted;
    row.completed = ce.completed;
    row.cct = ce.cct_value > 0 ? ce.cct_value : ce.completed - ce.admitted;
    Sweep(ce, row);
    // Planner compute while this coflow was in flight, its per-coflow
    // share of each pass (value = wall ns, count = coflows planned).
    for (const Event* p : plans) {
      if (p->t >= ce.admitted - kTimeEps && p->t <= ce.completed + kTimeEps) {
        row.planner_compute_ns +=
            p->value / static_cast<double>(std::max<std::int64_t>(1, p->count));
      }
    }

    sums[0] += row.delta;
    sums[1] += row.contention;
    sums[2] += row.starvation_hold;
    sums[3] += row.transmit;
    sums[4] += row.unattributed;
    report.total_cct += row.cct;
    report.coflows.push_back(std::move(row));
  }

  std::sort(report.coflows.begin(), report.coflows.end(),
            [](const CoflowAttribution& a, const CoflowAttribution& b) {
              if (a.cct != b.cct) return a.cct > b.cct;
              return a.coflow < b.coflow;
            });

  if (report.total_cct > 0) {
    report.delta_fraction = sums[0] / report.total_cct;
    report.contention_fraction = sums[1] / report.total_cct;
    report.starvation_fraction = sums[2] / report.total_cct;
    report.transmit_fraction = sums[3] / report.total_cct;
    report.unattributed_fraction = sums[4] / report.total_cct;
  }

  if (!report.coflows.empty()) {
    report.critical_coflow = report.coflows.front().coflow;
    report.critical_path =
        WalkCriticalPath(per_coflow.at(report.critical_coflow));
  }
  report.delta_seconds_by_plane = std::move(delta_by_plane);
  return report;
}

}  // namespace sunflow::obs
