#include "obs/audit.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "common/units.h"

namespace sunflow::obs {

namespace {

// Absolute-plus-relative time tolerance: traces store raw doubles, so two
// instants produced by different summation orders can differ by a few ulp
// even when they are "the same" event.
bool SameInstant(Time a, Time b) {
  return std::abs(a - b) <= kTimeEps + 1e-12 * std::max(std::abs(a),
                                                        std::abs(b));
}

struct Span {
  Time begin = 0;
  Time end = 0;
  Time setup = 0;
  CoflowId coflow = -1;
  PortId in = -1;
  PortId out = -1;
  PlaneId plane = 0;
};

class Auditor {
 public:
  explicit Auditor(AuditReport& report) : report_(report) {}

  // One assertion: bumps the check counter, records a violation when the
  // condition fails (capped per invariant so corrupted traces stay
  // readable).
  template <typename F>
  void Check(const char* invariant, bool ok, F&& detail) {
    ++report_.checks;
    if (ok) return;
    if (++per_invariant_[invariant] > 100) return;
    report_.violations.push_back({invariant, detail()});
  }

 private:
  AuditReport& report_;
  std::map<std::string, int> per_invariant_;
};

std::string FmtSpan(const Span& s) {
  std::ostringstream os;
  os << "coflow " << s.coflow << " [" << s.in << "->" << s.out << ") t=["
     << s.begin << ", " << s.end << ") setup=" << s.setup;
  if (s.plane != 0) os << " plane=" << s.plane;
  return os.str();
}

// Fabric-check context: the timeline a span/teardown/finish belongs to.
// Shared-fabric scope collapses everything onto one context; per-coflow
// scope keys by (coflow, lifecycle) so concatenated standalone replays do
// not cross-contaminate each other's port timelines.
using Ctx = std::pair<CoflowId, int>;

}  // namespace

AuditReport AuditTrace(std::span<const Event> events,
                       long long expected_setups, AuditScope scope,
                       const AuditDemand* demand) {
  const bool shared = scope == AuditScope::kSharedFabric;
  AuditReport report;
  report.events = events.size();
  Auditor audit(report);

  struct CoflowLifecycle {
    int admitted = 0;
    int completed = 0;
    Time admitted_t = 0;
    Time admitted_wait = 0;
    Time completed_t = 0;
    double cct = 0;
  };
  // One entry per coflow; under kPerCoflow a re-admission after a completed
  // lifecycle opens a new one instead of violating `admission`.
  std::map<CoflowId, std::vector<CoflowLifecycle>> coflows;
  auto life_of = [&](CoflowId id) {
    const auto it = coflows.find(id);
    return it == coflows.end() || it->second.empty()
               ? 0
               : static_cast<int>(it->second.size()) - 1;
  };
  auto ctx_of = [&](CoflowId id) {
    return shared ? Ctx{-1, 0} : Ctx{id, life_of(id)};
  };

  // Port exclusivity is per switch plane: a K-core fabric has K physical
  // ports behind every logical port id, so the timelines are keyed by
  // (ctx, plane, port). Pair-level checks stay keyed by the logical pair
  // (flow finishes carry no plane) with the plane recorded on each span.
  std::map<std::tuple<Ctx, PlaneId, PortId>, std::vector<Span>> by_in, by_out;
  std::map<std::tuple<Ctx, PortId, PortId>, std::vector<Span>> by_pair;
  std::map<std::tuple<Ctx, PlaneId, PortId, PortId>, std::vector<Time>>
      teardowns;
  struct FlowKeyT {
    Ctx ctx;
    CoflowId coflow;
    PortId in, out;
    bool operator<(const FlowKeyT& o) const {
      return std::tie(ctx, coflow, in, out) <
             std::tie(o.ctx, o.coflow, o.in, o.out);
    }
  };
  std::map<FlowKeyT, std::vector<Time>> finishes;
  struct OpenBlock {
    bool open = false;
    Time t = 0;
    double blamer = 0;
    std::int64_t reason = 0;
  };
  std::map<FlowKeyT, OpenBlock> blocks;
  std::vector<Span> tau_spans;  // starvation-guard rounds
  long long paying_setups = 0;
  bool any_delta = false;

  for (const Event& e : events) {
    switch (e.type) {
      case EventType::kCircuitSetup: {
        const Span s{e.t, e.t + e.dur, e.value, e.coflow, e.in, e.out,
                     e.plane};
        const Ctx ctx = ctx_of(e.coflow);
        // Negative ports are the dummy rows/columns square matchings are
        // padded with — no physical port, so no exclusivity to audit.
        if (e.in >= 0) by_in[{ctx, e.plane, e.in}].push_back(s);
        if (e.out >= 0) by_out[{ctx, e.plane, e.out}].push_back(s);
        by_pair[{ctx, e.in, e.out}].push_back(s);
        if (e.value > kTimeEps) {
          ++paying_setups;
          any_delta = true;
        }
        break;
      }
      case EventType::kCircuitTeardown:
        teardowns[{ctx_of(e.coflow), e.plane, e.in, e.out}].push_back(e.t);
        break;
      case EventType::kCoflowAdmitted: {
        auto& lives = coflows[e.coflow];
        if (lives.empty() ||
            (!shared && lives.back().admitted > 0 &&
             lives.back().completed > 0)) {
          lives.emplace_back();
        }
        auto& lc = lives.back();
        ++lc.admitted;
        lc.admitted_t = e.t;
        lc.admitted_wait = e.dur;
        break;
      }
      case EventType::kCoflowCompleted: {
        auto& lives = coflows[e.coflow];
        if (lives.empty()) lives.emplace_back();
        auto& lc = lives.back();
        ++lc.completed;
        lc.completed_t = e.t;
        lc.cct = e.value;
        break;
      }
      case EventType::kFlowFinished:
        finishes[{ctx_of(e.coflow), e.coflow, e.in, e.out}].push_back(e.t);
        break;
      case EventType::kFlowBlocked: {
        OpenBlock& b = blocks[{ctx_of(e.coflow), e.coflow, e.in, e.out}];
        audit.Check("blocked-pairing", !b.open, [&] {
          std::ostringstream os;
          os << "coflow " << e.coflow << " flow " << e.in << "->" << e.out
             << " blocked again at t=" << e.t
             << " while the episode opened at t=" << b.t << " is still open";
          return os.str();
        });
        b.open = true;
        b.t = e.t;
        b.blamer = e.value;
        b.reason = e.count;
        break;
      }
      case EventType::kFlowUnblocked: {
        OpenBlock& b = blocks[{ctx_of(e.coflow), e.coflow, e.in, e.out}];
        audit.Check("blocked-pairing", b.open, [&] {
          std::ostringstream os;
          os << "coflow " << e.coflow << " flow " << e.in << "->" << e.out
             << " unblocked at t=" << e.t << " with no open episode";
          return os.str();
        });
        if (b.open) {
          audit.Check("blocked-pairing",
                      SameInstant(e.t - e.dur, b.t) && e.value == b.blamer &&
                          e.count == b.reason,
                      [&] {
                        std::ostringstream os;
                        os << "coflow " << e.coflow << " flow " << e.in
                           << "->" << e.out << " unblocked at t=" << e.t
                           << " (dur=" << e.dur
                           << ") does not mirror the episode opened at t="
                           << b.t;
                        return os.str();
                      });
        }
        b.open = false;
        break;
      }
      case EventType::kAssignmentComputed:
        break;
      case EventType::kStarvationRound:
        tau_spans.push_back({e.t, e.t + e.dur});
        break;
    }
  }

  // port-exclusivity: sort each (plane, port) timeline's spans and look
  // for overlap. Distinct planes own distinct physical ports, so spans on
  // different planes never conflict.
  auto check_port = [&](const char* side, PlaneId plane, PortId port,
                        std::vector<Span>& spans) {
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.begin < b.begin; });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      const Span& prev = spans[i - 1];
      const Span& cur = spans[i];
      audit.Check("port-exclusivity", cur.begin >= prev.end - kTimeEps, [&] {
        std::ostringstream os;
        os << side << " port " << port;
        if (plane != 0) os << " (plane " << plane << ")";
        os << " double-booked: " << FmtSpan(prev) << " overlaps "
           << FmtSpan(cur);
        return os.str();
      });
    }
  };
  for (auto& [key, spans] : by_in)
    check_port("input", std::get<1>(key), std::get<2>(key), spans);
  for (auto& [key, spans] : by_out)
    check_port("output", std::get<1>(key), std::get<2>(key), spans);

  // The demand rules run on a shared timeline only (the demand names each
  // flow once; kPerCoflow replays it often).
  const AuditDemand* const shared_demand = shared ? demand : nullptr;
  auto plane_of = [&](const Span& s) -> const AuditDemand::Plane* {
    const auto& planes = shared_demand->planes;
    const auto p = static_cast<std::size_t>(s.plane);
    return s.plane >= 0 && p < planes.size() ? &planes[p] : nullptr;
  };
  // A span's plane charges δ on a fresh connect: with a demand, when that
  // plane's δ is positive (or the plane is undeclared); without one, when
  // any span of the trace paid δ.
  auto pays_delta = [&](const Span& s) {
    if (shared_demand == nullptr) return any_delta;
    const AuditDemand::Plane* plane = plane_of(s);
    return plane == nullptr || plane->delta > kTimeEps;
  };

  // delta-bounds + delta-carryover.
  std::map<PlaneId, Time> last_end_by_plane;
  for (auto& [key, spans] : by_pair) {
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.begin < b.begin; });
    last_end_by_plane.clear();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      audit.Check("delta-bounds",
                  s.setup >= -kTimeEps &&
                      s.setup <= (s.end - s.begin) + kTimeEps,
                  [&] { return "setup outside span: " + FmtSpan(s); });
      if (s.setup <= kTimeEps && pays_delta(s)) {
        // δ is paid exactly once per reconfiguration: a free setup must
        // continue a circuit that was already up on this pair — on the
        // same plane (a circuit carried over on plane p says nothing
        // about plane q's switch state).
        const auto prev = last_end_by_plane.find(s.plane);
        const bool continues =
            prev != last_end_by_plane.end() && SameInstant(prev->second,
                                                           s.begin);
        audit.Check("delta-carryover", continues, [&] {
          return "zero-setup span does not continue a prior circuit: " +
                 FmtSpan(s);
        });
      }
      Time& last_end = last_end_by_plane[s.plane];
      last_end = std::max(last_end, s.end);
    }
  }

  // flow-in-circuit: each per-flow finish sits inside a circuit span of
  // its own flow, or inside a starvation τ span (fluid drains).
  for (const auto& [key, ts] : finishes) {
    const auto it = by_pair.find({key.ctx, key.in, key.out});
    for (const Time t : ts) {
      bool inside = false;
      if (it != by_pair.end()) {
        for (const Span& s : it->second) {
          if (s.coflow == key.coflow && t >= s.begin - kTimeEps &&
              t <= s.end + kTimeEps) {
            inside = true;
            break;
          }
        }
      }
      if (!inside) {
        for (const Span& s : tau_spans) {
          if (t >= s.begin - kTimeEps && t <= s.end + kTimeEps) {
            inside = true;
            break;
          }
        }
      }
      audit.Check("flow-in-circuit", inside, [&] {
        std::ostringstream os;
        os << "coflow " << key.coflow << " flow " << key.in << "->"
           << key.out << " finished at t=" << t
           << " outside every circuit span of that flow";
        return os.str();
      });
    }
  }

  // admission + completion lifecycle.
  for (const auto& [id, lives] : coflows) {
    for (std::size_t li = 0; li < lives.size(); ++li) {
      const CoflowLifecycle& lc = lives[li];
      audit.Check("admission", lc.admitted <= 1, [&] {
        std::ostringstream os;
        os << "coflow " << id << " admitted " << lc.admitted << " times";
        return os.str();
      });
      audit.Check("completion", lc.completed <= 1, [&] {
        std::ostringstream os;
        os << "coflow " << id << " completed " << lc.completed << " times";
        return os.str();
      });
      if (lc.completed == 0) continue;
      audit.Check("completion", lc.admitted >= 1, [&] {
        std::ostringstream os;
        os << "coflow " << id << " completed without being admitted";
        return os.str();
      });
      if (lc.admitted == 0) continue;
      audit.Check("completion", lc.completed_t >= lc.admitted_t - kTimeEps,
                  [&] {
                    std::ostringstream os;
                    os << "coflow " << id << " completed at t="
                       << lc.completed_t << " before its admission at t="
                       << lc.admitted_t;
                    return os.str();
                  });
      if (lc.cct > 0) {
        const Time derived =
            (lc.completed_t - lc.admitted_t) + lc.admitted_wait;
        audit.Check("completion", SameInstant(lc.cct, derived), [&] {
          std::ostringstream os;
          os << "coflow " << id << " CCT payload " << lc.cct
             << " != completed - admitted + wait = " << derived;
          return os.str();
        });
      }
      // CoflowCompleted equals the last FlowFinished when flows are traced
      // (within this lifecycle's timeline).
      const Ctx ctx = shared ? Ctx{-1, 0} : Ctx{id, static_cast<int>(li)};
      Time last_finish = -kTimeInf;
      for (const auto& [key, ts] : finishes) {
        if (key.coflow != id || key.ctx != ctx) continue;
        for (const Time t : ts) last_finish = std::max(last_finish, t);
      }
      if (last_finish > -kTimeInf) {
        audit.Check("completion", SameInstant(lc.completed_t, last_finish),
                    [&] {
                      std::ostringstream os;
                      os << "coflow " << id << " completed at t="
                         << lc.completed_t
                         << " but its last flow finished at t=" << last_finish;
                      return os.str();
                    });
      }
    }
  }

  // blocked-pairing: every episode must be closed by trace end.
  for (const auto& [key, b] : blocks) {
    audit.Check("blocked-pairing", !b.open, [&] {
      std::ostringstream os;
      os << "coflow " << key.coflow << " flow " << key.in << "->" << key.out
         << " episode opened at t=" << b.t << " never closed";
      return os.str();
    });
  }

  // teardown: each teardown coincides with the end of a span on its pair,
  // on the same plane.
  for (auto& [key, ts] : teardowns) {
    const auto& [ctx, plane, in, out] = key;
    std::vector<Time> ends;
    const auto it = by_pair.find({ctx, in, out});
    if (it != by_pair.end()) {
      ends.reserve(it->second.size());
      for (const Span& s : it->second)
        if (s.plane == plane) ends.push_back(s.end);
      std::sort(ends.begin(), ends.end());
    }
    for (const Time t : ts) {
      const auto lo = std::lower_bound(ends.begin(), ends.end(), t - 1e-6);
      bool matched = false;
      for (auto e = lo; e != ends.end() && *e <= t + 1e-6; ++e) {
        if (SameInstant(*e, t)) {
          matched = true;
          break;
        }
      }
      audit.Check("teardown", matched, [&] {
        std::ostringstream os;
        os << "teardown of " << in << "->" << out << " at t=" << t;
        if (plane != 0) os << " on plane " << plane;
        os << " matches no circuit span end";
        return os.str();
      });
    }
  }

  // delta-length and bytes-served: the demand rules.
  if (shared_demand != nullptr) {
    // A δ-paying span pays its plane's δ, or all of its length when a
    // replan cut it mid-reconfiguration.
    for (const auto& [key, spans] : by_pair) {
      for (const Span& s : spans) {
        if (s.setup <= kTimeEps) continue;
        const AuditDemand::Plane* plane = plane_of(s);
        audit.Check(
            "delta-length",
            plane != nullptr &&
                SameInstant(s.setup, std::min(plane->delta, s.end - s.begin)),
            [&] {
              return "setup is not min(its plane's delta, span length): " +
                     FmtSpan(s);
            });
      }
    }
    // Every flow the trace finishes got its bytes from its own circuit
    // spans by then. τ rounds drain fluidly outside circuit spans, so a
    // trace with any skips the rule.
    for (const auto& [flow, bytes] : shared_demand->flow_bytes) {
      if (!tau_spans.empty()) break;
      const auto& [coflow, in, out] = flow;
      const Ctx ctx{-1, 0};
      Time finish = kTimeInf;
      if (const auto f = finishes.find({ctx, coflow, in, out});
          f != finishes.end()) {
        finish = *std::min_element(f->second.begin(), f->second.end());
      } else if (const auto c = coflows.find(coflow);
                 c != coflows.end() && c->second.back().completed > 0) {
        finish = c->second.back().completed_t;
      }
      if (finish == kTimeInf) continue;  // the trace never finishes it
      Bytes served = 0;
      if (const auto spans = by_pair.find({ctx, in, out});
          spans != by_pair.end()) {
        for (const Span& s : spans->second) {
          const AuditDemand::Plane* plane = plane_of(s);
          const Time transmit = std::min(s.end, finish) - (s.begin + s.setup);
          if (s.coflow == coflow && plane != nullptr && transmit > 0)
            served += transmit * plane->rate;
        }
      }
      audit.Check("bytes-served", served >= bytes - kBytesEps, [&] {
        std::ostringstream os;
        os.precision(17);
        os << "coflow " << coflow << " flow " << in << "->" << out
           << " finished at t=" << finish << " with " << served << " of "
           << bytes << " bytes served by its circuit spans";
        return os.str();
      });
    }
  }

  // setup-count: cross-check against the producer's metric when given.
  // Only meaningful on a shared timeline — a concatenated multi-replay
  // trace mixes executors the metric never counted.
  if (shared && expected_setups >= 0) {
    audit.Check("setup-count", paying_setups == expected_setups, [&] {
      std::ostringstream os;
      os << "trace has " << paying_setups
         << " delta-paying circuit spans but the producer counted "
         << expected_setups;
      return os.str();
    });
  }

  return report;
}

}  // namespace sunflow::obs
