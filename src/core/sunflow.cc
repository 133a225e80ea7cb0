#include "core/sunflow.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "common/assert.h"
#include "common/rng.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_sink.h"

namespace sunflow {

const char* ToString(ReservationOrder order) {
  switch (order) {
    case ReservationOrder::kOrderedPort:
      return "OrderedPort";
    case ReservationOrder::kRandom:
      return "Random";
    case ReservationOrder::kSortedDemandDesc:
      return "SortedDemandDesc";
    case ReservationOrder::kSortedDemandAsc:
      return "SortedDemandAsc";
  }
  return "?";
}

PlanRequest PlanRequest::FromCoflow(const Coflow& coflow, Bandwidth bandwidth,
                                    std::optional<Time> start) {
  SUNFLOW_CHECK(bandwidth > 0);
  PlanRequest req;
  req.coflow = coflow.id();
  req.start = start.value_or(coflow.arrival());
  req.demand.reserve(coflow.size());
  for (const Flow& f : coflow.flows()) {
    req.demand.push_back({f.src, f.dst, f.bytes / bandwidth});
  }
  return req;
}

SunflowPlanner::SunflowPlanner(PortId num_ports, SunflowConfig config)
    : prt_(num_ports, config.fabric.num_planes()),
      config_(std::move(config)),
      planes_(config_.fabric.EffectivePlanes(config_.delta, config_.bandwidth)) {
  SUNFLOW_CHECK(config_.bandwidth > 0);
  SUNFLOW_CHECK(config_.delta >= 0);
  plane_scale_.reserve(planes_.size());
  for (const PlaneSpec& p : planes_) {
    SUNFLOW_CHECK(p.delta >= 0);
    SUNFLOW_CHECK(p.rate > 0);
    plane_scale_.push_back(config_.bandwidth / p.rate);
  }
  established_.resize(planes_.size());
}

void SunflowPlanner::SetEstablishedCircuits(EstablishedCircuits circuits,
                                            Time at) {
  established_.assign(planes_.size(), {});
  established_[0] = std::move(circuits);
  established_at_ = at;
}

void SunflowPlanner::SetEstablishedCircuitsByPlane(FabricEstablished by_plane,
                                                   Time at) {
  SUNFLOW_CHECK(by_plane.size() == planes_.size());
  established_ = std::move(by_plane);
  established_at_ = at;
}

bool SunflowPlanner::has_established() const {
  for (const EstablishedCircuits& e : established_) {
    if (!e.empty()) return true;
  }
  return false;
}

std::vector<FlowDemand> SunflowPlanner::Ordered(
    const PlanRequest& request) const {
  std::vector<FlowDemand> p = request.demand;
  switch (config_.order) {
    case ReservationOrder::kOrderedPort:
      std::sort(p.begin(), p.end(), [](const FlowDemand& a, const FlowDemand& b) {
        return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
      });
      break;
    case ReservationOrder::kRandom: {
      // Seed mixes in the coflow id so different coflows get different
      // shuffles while the whole run stays deterministic.
      Rng rng(config_.shuffle_seed * 0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(request.coflow));
      rng.Shuffle(p);
      break;
    }
    case ReservationOrder::kSortedDemandDesc:
      std::stable_sort(p.begin(), p.end(),
                       [](const FlowDemand& a, const FlowDemand& b) {
                         return a.processing > b.processing;
                       });
      break;
    case ReservationOrder::kSortedDemandAsc:
      std::stable_sort(p.begin(), p.end(),
                       [](const FlowDemand& a, const FlowDemand& b) {
                         return a.processing < b.processing;
                       });
      break;
  }
  return p;
}

Time SunflowPlanner::NextWakeInstant(Time t, Time wake,
                                     CoflowId coflow) const {
  // `wake` is the earliest pending wakeup: always the end of a recorded
  // reservation, strictly later than t + ε. The rescan visits every
  // release instant after t; instants before wake - ε are provably no-ops
  // (reservations are never removed, so a blocked flow only gets more
  // blocked), which lets the walk jump — but only onto an instant the
  // rescan's chain itself would visit, because a release within ε below a
  // chain instant is absorbed into it by the tolerant comparison.
  const Time a = prt_.FirstReleaseAtOrAfter(wake - kTimeEps);
  SUNFLOW_CHECK_MSG(a < kTimeInf,
                    "Sunflow stuck: pending demand but no future release "
                    "(coflow "
                        << coflow << ")");
  const Time b = prt_.LastReleaseBefore(a);
  if (b <= t + kTimeEps) {
    // Nothing releases strictly between here and the target, so the next
    // chain instant is simply the first release past t + ε; that is `a`
    // itself unless the target sits within ε of t (then the chain steps
    // over it and the tolerant retry at the next instant picks it up).
    return a > t + kTimeEps ? a : prt_.NextReleaseAfter(t);
  }
  if (a - b > kTimeEps) return a;  // `a` opens its own chain instant
  // A sub-ε cluster of release times straddles the target: replay the
  // rescan's chain step by step so the visited instant matches it exactly.
  Time v = t;
  while (v < wake - kTimeEps) {
    const Time next = prt_.NextReleaseAfter(v);
    SUNFLOW_CHECK(next < kTimeInf && next > v);
    v = next;
  }
  return v;
}

// One request's pass through MakeReservation (Algorithm 1 lines 13-23) on
// the planner's PRT: the Ordered() demand, the demand left per flow and
// the blocked-episode tracking. ScheduleOne's event-indexed loop and
// ScheduleOneRescan's release-chain loop both drive it; they differ only
// in which flows they retry at which instant.
class SunflowPlanner::Walk {
 public:
  Walk(SunflowPlanner& planner, const PlanRequest& request,
       SunflowSchedule& out)
      : planner_(planner),
        prt_(planner.prt_),
        sink_(planner.sink_),
        request_(request),
        out_(out),
        ordered_(planner.Ordered(request)),
        remaining_(ordered_.size(), 0),
        held_until_(ordered_.size(), -kTimeInf),
        finish_(request.start) {
    // Zero-demand entries are never tried (Equation 3: t_ij = 0 when
    // p_ij = 0).
    for (std::size_t i = 0; i < ordered_.size(); ++i) {
      if (ordered_[i].processing > kTimeEps)
        remaining_[i] = ordered_[i].processing;
    }
    // Blocked-episode tracking is trace emission only: inert without a
    // sink (the owner probes are never called and no state allocates).
    if (sink_ != nullptr) {
      blk_since_.assign(ordered_.size(), kTimeInf);
      blk_reason_.assign(ordered_.size(), obs::BlockReason::kInputPortBusy);
      blk_blamer_.assign(ordered_.size(), -1);
    }
  }

  std::size_t size() const { return ordered_.size(); }

  // MakeReservation for flow `idx` at instant t. Returns the flow's next
  // wakeup: kTimeInf when its demand is finished, its own reservation end
  // when the reservation was truncated, and otherwise the earliest future
  // instant at which the blocking constraint can change — the busy port's
  // release, or the release of the reservation whose start capped the gap.
  // Every wakeup is the end of a recorded reservation and lies strictly
  // beyond t + ε, so both loops always make progress.
  // Plane assignment is earliest-feasible-plane greedy: planes are probed
  // in id order at t and the first one where the pair is free and the gap
  // admits a useful circuit takes the reservation. When every plane is
  // blocked, the flow sleeps until the earliest instant any plane's
  // binding constraint can change, and the blocked episode blames that
  // plane's blocker (ties to the lowest plane id). With one plane this is
  // exactly the single-switch MakeReservation.
  // When that binding constraint is a busy port, `*busy_port` (if given)
  // receives the port as side × ports + port, and -1 otherwise; the
  // wakeup is then that port's release.
  Time TryFlow(std::size_t idx, Time t, int* busy_port = nullptr) {
    if (busy_port != nullptr) *busy_port = -1;
    if (remaining_[idx] <= 0) return kTimeInf;
    // One circuit per flow: not retried while its own truncated
    // reservation runs, or on K >= 2 a free plane would give it a second,
    // concurrent circuit. (On one plane that circuit holds its ports.)
    if (held_until_[idx] > t + kTimeEps) return held_until_[idx];
    const FlowDemand& f = ordered_[idx];
    Time best_wake = kTimeInf;
    PlaneId best_plane = 0;
    bool best_gap_limited = false;
    Time best_in_busy = 0;
    Time best_out_busy = 0;
    const auto num_planes = static_cast<PlaneId>(planner_.planes_.size());
    for (PlaneId p = 0; p < num_planes; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      const Time in_busy =
          prt_.BusyUntil(FabricReservationTable::Side::kIn, f.src, t, p);
      const Time out_busy =
          prt_.BusyUntil(FabricReservationTable::Side::kOut, f.dst, t, p);
      if (in_busy > t || out_busy > t) {
        const Time wake = std::max(in_busy, out_busy);
        if (wake < best_wake) {
          best_wake = wake;
          best_plane = p;
          best_gap_limited = false;
          best_in_busy = in_busy;
          best_out_busy = out_busy;
        }
        continue;
      }
      // Setup is free when this pair is already an established circuit on
      // this plane and the reservation begins at the instant the circuit
      // was observed up.
      Time setup = planner_.planes_[pi].delta;
      if (TimeEq(t, planner_.established_at_)) {
        const EstablishedCircuits& est = planner_.established_[pi];
        auto it = est.find(f.src);
        if (it != est.end() && it->second == f.dst) setup = 0;
      }
      const auto [tm, tm_release] =
          prt_.NextReservationAfter(f.src, f.dst, t, p);
      const Time lm = tm - t;  // max length before blocking a prior one
      // Desired length: the remaining demand is in processing units at the
      // config bandwidth; this plane drains it plane_scale_ times slower
      // (or faster). Scale 1.0 on the default fabric keeps the arithmetic
      // bit-identical to the single-plane code.
      const Time transmit = remaining_[idx] * planner_.plane_scale_[pi];
      const Time ld = setup + transmit;
      // A reservation of length <= setup would transmit nothing: skip.
      if (lm <= setup + kTimeEps) {
        if (tm_release < best_wake) {
          best_wake = tm_release;
          best_plane = p;
          best_gap_limited = true;
        }
        continue;
      }
      // The truncation rule below, applied before reserving: a remainder
      // that takes at most ε here (a faster plane than the one that
      // truncated it) finishes now instead of becoming an empty circuit.
      if (transmit <= kTimeEps) {
        CloseEpisode(idx, t);
        return FinishFlow(idx, t);
      }
      const Time l = std::min(lm, ld);
      const CircuitReservation reservation{f.src, f.dst,         t, t + l,
                                           setup, request_.coflow, p};
      prt_.Reserve(reservation);
      ++reservations_made_;
      CloseEpisode(idx, t);
      obs::Emit(sink_, {.type = obs::EventType::kCircuitSetup,
                        .t = reservation.start,
                        .dur = reservation.length(),
                        .coflow = request_.coflow,
                        .in = f.src,
                        .out = f.dst,
                        .value = setup,
                        .plane = p});
      obs::Emit(sink_, {.type = obs::EventType::kCircuitTeardown,
                        .t = reservation.end,
                        .coflow = request_.coflow,
                        .in = f.src,
                        .out = f.dst,
                        .plane = p});
      const Time rest = std::max(0.0, ld - l);
      if (rest <= kTimeEps) return FinishFlow(idx, t + l);
      remaining_[idx] = rest / planner_.plane_scale_[pi];
      held_until_[idx] = reservation.end;
      return reservation.end;
    }
    // Every plane blocked: report the binding constraint of the plane that
    // wakes first.
    if (best_gap_limited) {
      if (sink_ != nullptr) {
        NoteBlocked(idx, t, obs::BlockReason::kCircuitConflict,
                    prt_.NextOwnerAfter(f.src, f.dst, t, best_plane));
      }
      return best_wake;
    }
    // The binding port is the one whose release is the wakeup: the later
    // of the two busy-until instants.
    const bool input = best_in_busy > t &&
                       (best_out_busy <= t || best_in_busy >= best_out_busy);
    if (busy_port != nullptr)
      *busy_port = input ? f.src : prt_.num_ports() + f.dst;
    if (sink_ != nullptr) {
      NoteBlocked(idx, t,
                  input ? obs::BlockReason::kInputPortBusy
                        : obs::BlockReason::kOutputPortBusy,
                  input ? prt_.OwnerAt(FabricReservationTable::Side::kIn,
                                       f.src, t, best_plane)
                        : prt_.OwnerAt(FabricReservationTable::Side::kOut,
                                       f.dst, t, best_plane));
    }
    return best_wake;
  }

  // Records the request's CCT and reservation count; returns its finish.
  Time Finish() {
    out_.completion_time[request_.coflow] = finish_ - request_.start;
    out_.reservation_count[request_.coflow] += reservations_made_;
    return finish_;
  }

 private:
  // Marks flow `idx` done at `at`; returns its (absent) next wakeup.
  Time FinishFlow(std::size_t idx, Time at) {
    remaining_[idx] = 0;
    finish_ = std::max(finish_, at);
    const FlowDemand& f = ordered_[idx];
    obs::Emit(sink_, {.type = obs::EventType::kFlowFinished,
                      .t = at,
                      .coflow = request_.coflow,
                      .in = f.src,
                      .out = f.dst});
    return kTimeInf;
  }

  // One open episode per flow; an episode closes and a new one opens when
  // the blocking cause (reason, blamer) changes, so contention spans
  // attribute to the coflow actually in the way at each instant.
  void CloseEpisode(std::size_t idx, Time t) {
    if (sink_ == nullptr || blk_since_[idx] >= kTimeInf) return;
    const FlowDemand& f = ordered_[idx];
    obs::Emit(sink_, {.type = obs::EventType::kFlowUnblocked,
                      .t = t,
                      .dur = t - blk_since_[idx],
                      .coflow = request_.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = static_cast<double>(blk_blamer_[idx]),
                      .count = static_cast<std::int64_t>(blk_reason_[idx])});
    blk_since_[idx] = kTimeInf;
  }

  void NoteBlocked(std::size_t idx, Time t, obs::BlockReason reason,
                   CoflowId blamer) {
    if (blk_since_[idx] < kTimeInf && blk_reason_[idx] == reason &&
        blk_blamer_[idx] == blamer) {
      return;  // same cause still in the way: the episode continues
    }
    CloseEpisode(idx, t);
    blk_since_[idx] = t;
    blk_reason_[idx] = reason;
    blk_blamer_[idx] = blamer;
    const FlowDemand& f = ordered_[idx];
    obs::Emit(sink_, {.type = obs::EventType::kFlowBlocked,
                      .t = t,
                      .coflow = request_.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = static_cast<double>(blamer),
                      .count = static_cast<std::int64_t>(reason)});
  }

  const SunflowPlanner& planner_;
  PortReservationTable& prt_;
  obs::TraceSink* sink_;
  const PlanRequest& request_;
  SunflowSchedule& out_;
  const std::vector<FlowDemand> ordered_;
  std::vector<Time> remaining_;   // demand left per ordered index; 0 if done
  std::vector<Time> held_until_;  // end of the flow's truncated reservation
  std::vector<Time> blk_since_;
  std::vector<obs::BlockReason> blk_reason_;
  std::vector<CoflowId> blk_blamer_;
  Time finish_;
  int reservations_made_ = 0;
};

namespace {

// Adds one call's planner work to the metrics: `tries` TryFlow calls, and
// `wake_instants` instants after the request start at which the loop
// retried flows. Both loops count locally and report once per call, so the
// hot loop makes no metric call.
void CountPlanWork(std::uint64_t tries, std::uint64_t wake_instants) {
  // thread_local: GlobalMetrics() shards per thread (see obs/metrics.h).
  static thread_local obs::Counter& tries_counter =
      obs::GlobalMetrics().GetCounter("plan.tries");
  static thread_local obs::Counter& instants_counter =
      obs::GlobalMetrics().GetCounter("plan.wake_instants");
  tries_counter.Increment(tries);
  instants_counter.Increment(wake_instants);
}

}  // namespace

Time SunflowPlanner::ScheduleOne(const PlanRequest& request,
                                 SunflowSchedule& out) {
  SUNFLOW_PROFILE_SCOPE("core.plan");
  // Established circuits declared after the request start could zero a
  // setup at a mid-plan instant; the wakeup index assumes setup never
  // shrinks as t advances (true for replay carry-over, where circuits are
  // observed up exactly at the replan instant), so this corner runs the
  // reference loop instead.
  if (has_established() && established_at_ > request.start + kTimeEps) {
    return ScheduleOneRescan(request, out);
  }
  Walk walk(*this, request, out);
  const std::size_t n = walk.size();
  Time t = request.start;

  // Sleeping entries, bucketed by their exact wakeup instant. An entry
  // below n is an Ordered() flow index; entry n + q arms wait queue q
  // (below). Many entries share one instant, so the ordered index holds
  // distinct instants only. Emptied buckets keep their storage for the
  // next new instant.
  std::map<Time, std::vector<std::size_t>> sleeping;
  std::vector<std::vector<std::size_t>> spare;
  const auto sleep_until = [&](Time wake, std::size_t entry) {
    auto [bucket, fresh] = sleeping.try_emplace(wake);
    if (fresh && !spare.empty()) {
      bucket->second.swap(spare.back());
      spare.pop_back();
    }
    bucket->second.push_back(entry);
  };

  // Port wait queues. On one plane, a flow blocked by a busy port can only
  // succeed once that port is free, and the first of its waiters to be
  // retried there takes it again. So such a flow waits in the port's
  // queue, a min-heap of Ordered() indices armed (as one bucket entry) at
  // the port's release, and a queue retries waiters only while its port is
  // free. On K >= 2 planes another plane can free a flow whose port was
  // just taken, and with a sink every failed retry feeds the blocked
  // episodes, so there every flow sleeps in the buckets.
  const bool port_waits = sink_ == nullptr && planes_.size() == 1;
  struct WaitQueue {
    int port;  // side × ports + port, as TryFlow reports it
    std::vector<std::size_t> waiters;
  };
  std::vector<WaitQueue> queues;
  if (port_waits && wait_queue_slot_.empty())
    wait_queue_slot_.resize(2 * static_cast<std::size_t>(prt_.num_ports()));
  // Flows that failed on a busy port at this instant: (flow, port, the
  // port's release). They join their queue only after the instant.
  struct Parked {
    std::size_t idx;
    int port;
    Time release;
  };
  std::vector<Parked> parked;

  std::uint64_t tries = 0;
  const auto retry = [&](std::size_t idx) {
    ++tries;
    int port = -1;
    const Time w = walk.TryFlow(idx, t, &port);
    if (w == kTimeInf) return;
    if (port_waits && port >= 0) {
      parked.push_back({idx, port, w});
    } else {
      sleep_until(w, idx);
    }
  };
  const auto join_queues = [&] {
    for (const Parked& p : parked) {
      std::uint32_t& slot = wait_queue_slot_[static_cast<std::size_t>(p.port)];
      if (slot >= queues.size() || queues[slot].port != p.port) {
        slot = static_cast<std::uint32_t>(queues.size());
        queues.push_back({p.port, {}});
      }
      // Between instants a queue is armed iff it has waiters, and then
      // for this same release.
      WaitQueue& q = queues[slot];
      if (q.waiters.empty()) sleep_until(p.release, n + slot);
      q.waiters.push_back(p.idx);
      std::push_heap(q.waiters.begin(), q.waiters.end(), std::greater<>());
    }
    parked.clear();
  };

  // First pass at the request start, in Ordered() order. Flows that cannot
  // finish here go to sleep.
  for (std::size_t i = 0; i < n; ++i) retry(i);
  join_queues();

  // Event-indexed walk: advance to the chain instant covering the
  // earliest wakeup and retry only the flows it makes due. The rescan
  // retries the whole pending list in Ordered() order at every release
  // instant; merging the woken indices with the due queues' waiters
  // replays that order within the subset, and every flow left asleep is
  // one the rescan would have retried and failed: a queue stops retrying
  // (and re-arms at the release) as soon as its port is busy at t.
  std::uint64_t wake_instants = 0;
  std::vector<std::size_t> woken;
  std::vector<std::pair<std::size_t, std::size_t>> due;  // (head, queue)
  while (!sleeping.empty()) {
    const Time next =
        NextWakeInstant(t, sleeping.begin()->first, request.coflow);
    SUNFLOW_CHECK(next > t);
    t = next;
    woken.clear();
    auto bucket = sleeping.begin();
    for (; bucket != sleeping.end() && bucket->first <= t + kTimeEps;
         ++bucket) {
      woken.insert(woken.end(), bucket->second.begin(), bucket->second.end());
      bucket->second.clear();
      spare.push_back(std::move(bucket->second));
    }
    sleeping.erase(sleeping.begin(), bucket);
    std::sort(woken.begin(), woken.end());
    due.clear();
    for (; !woken.empty() && woken.back() >= n; woken.pop_back()) {
      const std::size_t slot = woken.back() - n;
      due.emplace_back(queues[slot].waiters.front(), slot);
    }
    std::make_heap(due.begin(), due.end(), std::greater<>());
    // Every new wakeup lies beyond t + ε, so no entry rejoins this round.
    std::size_t next_woken = 0;
    while (next_woken < woken.size() || !due.empty()) {
      if (due.empty() ||
          (next_woken < woken.size() && woken[next_woken] < due.front().first)) {
        retry(woken[next_woken++]);
        continue;
      }
      std::pop_heap(due.begin(), due.end(), std::greater<>());
      const std::size_t slot = due.back().second;
      due.pop_back();
      WaitQueue& q = queues[slot];
      const auto side = q.port < prt_.num_ports()
                            ? FabricReservationTable::Side::kIn
                            : FabricReservationTable::Side::kOut;
      const Time busy = prt_.BusyUntil(side, q.port % prt_.num_ports(), t);
      if (busy > t) {  // the rest wait for the port's new release
        sleep_until(busy, n + slot);
        continue;
      }
      std::pop_heap(q.waiters.begin(), q.waiters.end(), std::greater<>());
      const std::size_t idx = q.waiters.back();
      q.waiters.pop_back();
      if (!q.waiters.empty()) {
        due.emplace_back(q.waiters.front(), slot);
        std::push_heap(due.begin(), due.end(), std::greater<>());
      }
      retry(idx);
    }
    join_queues();
    ++wake_instants;
  }
  CountPlanWork(tries, wake_instants);
  return walk.Finish();
}

Time SunflowPlanner::ScheduleOneRescan(const PlanRequest& request,
                                       SunflowSchedule& out) {
  SUNFLOW_PROFILE_SCOPE("core.plan");
  Walk walk(*this, request, out);
  std::vector<std::size_t> pending(walk.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  std::uint64_t tries = 0;
  std::uint64_t wake_instants = 0;
  // The paper-literal loop: retry every pending flow, in Ordered() order,
  // at the request start and then at every release instant.
  for (Time t = request.start;; ++wake_instants) {
    std::size_t kept = 0;
    for (std::size_t idx : pending) {
      if (walk.TryFlow(idx, t) < kTimeInf) pending[kept++] = idx;
    }
    tries += pending.size();
    pending.resize(kept);
    if (pending.empty()) {
      CountPlanWork(tries, wake_instants);
      return walk.Finish();
    }
    const Time next = prt_.NextReleaseAfter(t);
    SUNFLOW_CHECK_MSG(next < kTimeInf,
                      "Sunflow stuck: pending demand but no future release "
                      "(coflow "
                          << request.coflow << ")");
    SUNFLOW_CHECK(next > t);
    t = next;
  }
}

SunflowSchedule SunflowPlanner::ScheduleAll(
    const std::vector<const PlanRequest*>& requests) {
  SunflowSchedule out;
  for (const PlanRequest* req : requests) ScheduleOne(*req, out);
  out.reservations = prt_.reservations();
  return out;
}

SunflowSchedule ScheduleSingleCoflow(const Coflow& coflow, PortId num_ports,
                                     const SunflowConfig& config,
                                     obs::TraceSink* sink) {
  SunflowPlanner planner(num_ports, config);
  planner.SetTraceSink(sink);
  SunflowSchedule out;
  PlanRequest req = PlanRequest::FromCoflow(coflow, config.bandwidth,
                                            /*start=*/coflow.arrival());
  planner.ScheduleOne(req, out);
  out.reservations = planner.prt().reservations();
  return out;
}

obs::AuditDemand AuditDemandOf(const Trace& trace,
                               const SunflowConfig& config) {
  obs::AuditDemand demand;
  for (const PlaneSpec& p :
       config.fabric.EffectivePlanes(config.delta, config.bandwidth))
    demand.planes.push_back({p.delta, p.rate});
  for (const Coflow& c : trace.coflows) {
    for (const Flow& f : c.flows())
      demand.flow_bytes[{c.id(), f.src, f.dst}] += f.bytes;
  }
  return demand;
}

}  // namespace sunflow
