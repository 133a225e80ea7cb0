#include "core/sunflow.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <queue>
#include <utility>

#include "common/assert.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_sink.h"
#include "runtime/arena.h"

namespace sunflow {

namespace {

// Surfaces the thread-local arena's traffic as arena.* counters, as a
// delta over the enclosing scope (one flush per ScheduleAll call, so the
// counters never touch the per-flow hot path).
class ArenaMetricsScope {
 public:
  explicit ArenaMetricsScope(runtime::Arena& arena)
      : arena_(arena), before_(arena.stats()) {}
  ~ArenaMetricsScope() {
    static thread_local obs::Counter& allocations =
        obs::GlobalMetrics().GetCounter("arena.allocations");
    static thread_local obs::Counter& bytes =
        obs::GlobalMetrics().GetCounter("arena.bytes");
    static thread_local obs::Counter& block_allocs =
        obs::GlobalMetrics().GetCounter("arena.block_allocs");
    static thread_local obs::Counter& frames =
        obs::GlobalMetrics().GetCounter("arena.frames");
    const runtime::ArenaStats& after = arena_.stats();
    allocations.Increment(after.allocations - before_.allocations);
    bytes.Increment(after.bytes - before_.bytes);
    block_allocs.Increment(after.block_allocs - before_.block_allocs);
    frames.Increment(after.frames - before_.frames);
  }

  ArenaMetricsScope(const ArenaMetricsScope&) = delete;
  ArenaMetricsScope& operator=(const ArenaMetricsScope&) = delete;

 private:
  runtime::Arena& arena_;
  runtime::ArenaStats before_;
};

// 64-bit mix for the Ordered() cache key (splitmix64 finalizer). Not
// cryptographic; collisions only matter if a caller mutates a request's
// demand in place *and* the old and new contents collide, which the
// documented invalidation contract already rules out in practice.
std::uint64_t Mix64(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

std::uint64_t OrderedCacheKey(const SunflowConfig& config,
                              const PlanRequest& request) {
  std::uint64_t h = 0x517cc1b727220a95ULL;
  h = Mix64(h, static_cast<std::uint64_t>(config.order));
  h = Mix64(h, config.shuffle_seed);
  h = Mix64(h, std::bit_cast<std::uint64_t>(config.demand_quantum));
  h = Mix64(h, static_cast<std::uint64_t>(request.coflow));
  h = Mix64(h, request.demand.size());
  for (const FlowDemand& f : request.demand) {
    h = Mix64(h, static_cast<std::uint64_t>(f.src) << 32 |
                     static_cast<std::uint32_t>(f.dst));
    h = Mix64(h, std::bit_cast<std::uint64_t>(f.processing));
  }
  return h == 0 ? 1 : h;  // 0 marks "no cache"
}

}  // namespace

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

Time SunflowSchedule::MaxCompletion() const {
  Time best = 0;
  for (const auto& [id, cct] : completion_time) best = std::max(best, cct);
  return best;
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
    : prt_(num_ports, config.fabric.num_planes()), config_(std::move(config)) {
  SUNFLOW_CHECK(config_.bandwidth > 0);
  SUNFLOW_CHECK(config_.delta >= 0);
  // Resolve the effective plane list once: the empty (default) fabric is
  // one plane inheriting the config's delta and bandwidth, which makes
  // plane_scale_[0] exactly 1.0 — the K=1 equivalence contract
  // (core/fabric.h) rests on that.
  if (config_.fabric.is_default()) {
    planes_ = {PlaneSpec{config_.delta, config_.bandwidth}};
  } else {
    planes_ = config_.fabric.planes;
  }
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

void SunflowPlanner::SetReservationCallback(ReservationCallback callback) {
  callback_ = std::move(callback);
}

void SunflowPlanner::ImportReservations(
    const std::vector<CircuitReservation>& reservations) {
  for (const CircuitReservation& r : reservations) {
    prt_.Reserve(r);
    if (callback_) callback_(r);
    obs::Emit(sink_, {.type = obs::EventType::kCircuitSetup,
                      .t = r.start,
                      .dur = r.length(),
                      .coflow = r.coflow,
                      .in = r.in,
                      .out = r.out,
                      .value = r.setup,
                      .plane = r.plane});
    obs::Emit(sink_, {.type = obs::EventType::kCircuitTeardown,
                      .t = r.end,
                      .coflow = r.coflow,
                      .in = r.in,
                      .out = r.out,
                      .plane = r.plane});
  }
}

const std::vector<FlowDemand>& SunflowPlanner::Ordered(
    const PlanRequest& request) const {
  const std::uint64_t key = OrderedCacheKey(config_, request);
  if (request.ordered_cache_key == key) return request.ordered_cache;
  std::vector<FlowDemand> p = request.demand;
  if (config_.demand_quantum > 0) {
    for (FlowDemand& f : p) {
      f.processing = std::ceil(f.processing / config_.demand_quantum) *
                     config_.demand_quantum;
    }
  }
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
  request.ordered_cache = std::move(p);
  request.ordered_cache_key = key;
  return request.ordered_cache;
}

Time SunflowPlanner::NextWakeInstant(Time t, Time wake,
                                     CoflowId coflow) const {
  // `wake` is the earliest pending wakeup: always the end of a recorded
  // reservation, strictly later than t + ε. The legacy loop visited every
  // release instant after t; instants before wake - ε are provably no-ops
  // (reservations are never removed, so a blocked flow only gets more
  // blocked), which lets the walk jump — but only onto an instant the
  // legacy chain itself would have visited, because a release within ε
  // below a chain instant is absorbed into it by the tolerant comparison.
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
  // legacy chain step by step so the visited instant matches it exactly.
  Time v = t;
  while (v < wake - kTimeEps) {
    const Time next = prt_.NextReleaseAfter(v);
    SUNFLOW_CHECK(next < kTimeInf && next > v);
    v = next;
  }
  return v;
}

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
  const std::vector<FlowDemand>& ordered = Ordered(request);

  Time finish = request.start;
  Time t = request.start;
  int reservations_made = 0;

  // Per-request scratch lives on the thread-local arena: a handful of
  // vectors plus the wakeup heap, all bump-allocated and rewound wholesale
  // when the request finishes (runtime/arena.h). Steady-state planning
  // therefore makes zero heap round trips here.
  runtime::Arena& arena = runtime::ThisThreadArena();
  const runtime::ArenaScope scratch(arena);
  const runtime::ArenaAllocator<Time> alloc(arena);

  // Remaining demand per ordered index; 0 once the flow is done.
  runtime::ArenaVector<Time> remaining(ordered.size(), 0, alloc);

  // Blocked-episode tracking, trace emission only (inert without a sink —
  // the cursor-free owner probes are never called and no state allocates).
  // One open episode per flow; an episode closes and a new one opens when
  // the blocking cause (reason, blamer) changes, so contention spans
  // attribute to the coflow actually in the way at each instant.
  runtime::ArenaVector<Time> blk_since(alloc);
  runtime::ArenaVector<obs::BlockReason> blk_reason(alloc);
  runtime::ArenaVector<CoflowId> blk_blamer(alloc);
  if (sink_ != nullptr) {
    blk_since.assign(ordered.size(), kTimeInf);
    blk_reason.assign(ordered.size(), obs::BlockReason::kInputPortBusy);
    blk_blamer.assign(ordered.size(), -1);
  }
  auto close_episode = [&](std::size_t idx, const FlowDemand& f) {
    if (sink_ == nullptr || blk_since[idx] >= kTimeInf) return;
    obs::Emit(sink_, {.type = obs::EventType::kFlowUnblocked,
                      .t = t,
                      .dur = t - blk_since[idx],
                      .coflow = request.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = static_cast<double>(blk_blamer[idx]),
                      .count = static_cast<std::int64_t>(blk_reason[idx])});
    blk_since[idx] = kTimeInf;
  };
  auto note_blocked = [&](std::size_t idx, const FlowDemand& f,
                          obs::BlockReason reason, CoflowId blamer) {
    if (blk_since[idx] < kTimeInf && blk_reason[idx] == reason &&
        blk_blamer[idx] == blamer) {
      return;  // same cause still in the way: the episode continues
    }
    close_episode(idx, f);
    blk_since[idx] = t;
    blk_reason[idx] = reason;
    blk_blamer[idx] = blamer;
    obs::Emit(sink_, {.type = obs::EventType::kFlowBlocked,
                      .t = t,
                      .coflow = request.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = static_cast<double>(blamer),
                      .count = static_cast<std::int64_t>(reason)});
  };

  // MakeReservation (Algorithm 1 lines 13-23) for one flow at the current
  // instant t. Returns the flow's next wakeup: kTimeInf when its demand is
  // finished, its own reservation end when the reservation was truncated,
  // and otherwise the earliest future instant at which the blocking
  // constraint can change — the busy port's release, or the release of the
  // reservation whose start capped the gap. Every wakeup is the end of a
  // recorded reservation and lies strictly beyond t + ε, so the walk
  // always makes progress.
  // Plane assignment is earliest-feasible-plane greedy: planes are probed
  // in id order at the current instant and the first one where the pair is
  // free and the gap admits a useful circuit takes the reservation. When
  // every plane is blocked, the flow sleeps until the earliest instant any
  // plane's binding constraint can change, and the blocked episode blames
  // that plane's blocker (ties to the lowest plane id). With one plane
  // this is exactly the single-switch MakeReservation, branch for branch.
  const auto num_planes = static_cast<PlaneId>(planes_.size());
  auto try_flow = [&](std::size_t idx) -> Time {
    const FlowDemand& f = ordered[idx];
    Time best_wake = kTimeInf;
    PlaneId best_plane = 0;
    bool best_gap_limited = false;
    Time best_in_busy = 0;
    Time best_out_busy = 0;
    for (PlaneId p = 0; p < num_planes; ++p) {
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
      Time setup = planes_[static_cast<std::size_t>(p)].delta;
      if (TimeEq(t, established_at_)) {
        const EstablishedCircuits& est =
            established_[static_cast<std::size_t>(p)];
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
      const Time ld =
          setup + remaining[idx] * plane_scale_[static_cast<std::size_t>(p)];
      // A reservation of length <= setup would transmit nothing: skip.
      if (lm <= setup + kTimeEps) {
        if (tm_release < best_wake) {
          best_wake = tm_release;
          best_plane = p;
          best_gap_limited = true;
        }
        continue;
      }
      const Time l = std::min(lm, ld);
      const CircuitReservation reservation{f.src, f.dst,        t, t + l,
                                           setup, request.coflow, p};
      prt_.Reserve(reservation);
      ++reservations_made;
      close_episode(idx, f);
      if (callback_) callback_(reservation);
      obs::Emit(sink_, {.type = obs::EventType::kCircuitSetup,
                        .t = reservation.start,
                        .dur = reservation.length(),
                        .coflow = request.coflow,
                        .in = f.src,
                        .out = f.dst,
                        .value = setup,
                        .plane = p});
      obs::Emit(sink_, {.type = obs::EventType::kCircuitTeardown,
                        .t = reservation.end,
                        .coflow = request.coflow,
                        .in = f.src,
                        .out = f.dst,
                        .plane = p});
      const Time rest = std::max(0.0, ld - l);
      if (rest <= kTimeEps) {
        remaining[idx] = 0;
        const Time flow_finish = t + l;
        out.flow_finish[{request.coflow, f.src, f.dst}] = flow_finish;
        finish = std::max(finish, flow_finish);
        obs::Emit(sink_, {.type = obs::EventType::kFlowFinished,
                          .t = flow_finish,
                          .coflow = request.coflow,
                          .in = f.src,
                          .out = f.dst});
        return kTimeInf;
      }
      remaining[idx] = rest / plane_scale_[static_cast<std::size_t>(p)];
      return reservation.end;
    }
    // Every plane blocked: report the binding constraint of the plane that
    // wakes first.
    if (sink_ != nullptr) {
      if (best_gap_limited) {
        note_blocked(idx, f, obs::BlockReason::kCircuitConflict,
                     prt_.NextOwnerAfter(f.src, f.dst, t, best_plane));
      } else {
        // Blame the port whose release is the binding constraint (the
        // later of the two busy-until instants — that is the wakeup).
        const bool input = best_in_busy > t &&
                           (best_out_busy <= t || best_in_busy >= best_out_busy);
        note_blocked(idx, f,
                     input ? obs::BlockReason::kInputPortBusy
                           : obs::BlockReason::kOutputPortBusy,
                     input ? prt_.OwnerAt(FabricReservationTable::Side::kIn,
                                          f.src, t, best_plane)
                           : prt_.OwnerAt(FabricReservationTable::Side::kOut,
                                          f.dst, t, best_plane));
      }
    }
    return best_wake;
  };

  // First pass at the request start, in Ordered() order, dropping
  // zero-demand entries (Equation 3: t_ij = 0 when p_ij = 0). Flows that
  // cannot finish here enter the wakeup queue.
  using Wakeup = std::pair<Time, std::size_t>;
  std::priority_queue<Wakeup, runtime::ArenaVector<Wakeup>, std::greater<>>
      wakeups{std::greater<>{}, runtime::ArenaVector<Wakeup>(alloc)};
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (ordered[i].processing <= kTimeEps) continue;
    remaining[i] = ordered[i].processing;
    const Time w = try_flow(i);
    if (w < kTimeInf) wakeups.push({w, i});
  }

  // Event-indexed walk: advance to the chain instant covering the
  // earliest pending wakeup and retry only the flows woken there. The
  // legacy loop retried the whole pending list in Ordered() order at
  // every release instant; sorting the woken indices replays that order
  // within the subset, and the flows left sleeping are exactly the ones
  // the rescan would have retried and failed.
  runtime::ArenaVector<std::size_t> woken{
      runtime::ArenaAllocator<std::size_t>(arena)};
  while (!wakeups.empty()) {
    const Time next = NextWakeInstant(t, wakeups.top().first, request.coflow);
    SUNFLOW_CHECK(next > t);
    t = next;
    woken.clear();
    while (!wakeups.empty() && wakeups.top().first <= t + kTimeEps) {
      woken.push_back(wakeups.top().second);
      wakeups.pop();
    }
    std::sort(woken.begin(), woken.end());
    for (std::size_t idx : woken) {
      const Time w = try_flow(idx);
      if (w < kTimeInf) wakeups.push({w, idx});
    }
  }

  out.completion_time[request.coflow] = finish - request.start;
  out.reservation_count[request.coflow] += reservations_made;
  return finish;
}

Time SunflowPlanner::ScheduleOneRescan(const PlanRequest& request,
                                       SunflowSchedule& out) {
  SUNFLOW_PROFILE_SCOPE("core.plan");
  std::vector<FlowDemand> pending = Ordered(request);
  // Drop zero-demand entries up front (Equation 3: t_ij = 0 when p_ij = 0).
  std::erase_if(pending,
                [](const FlowDemand& f) { return f.processing <= kTimeEps; });

  Time finish = request.start;
  Time t = request.start;
  int reservations_made = 0;

  // Blocked-episode tracking, trace emission only — the rescan analogue of
  // ScheduleOne's per-index vectors, keyed by port pair because `pending`
  // is compacted in place. Same episode semantics: close + reopen when the
  // blocking cause changes, close on acquisition.
  struct BlockEpisode {
    Time since = 0;
    obs::BlockReason reason = obs::BlockReason::kInputPortBusy;
    CoflowId blamer = -1;
  };
  std::map<std::pair<PortId, PortId>, BlockEpisode> episodes;
  auto close_episode = [&](const FlowDemand& f) {
    const auto it = episodes.find({f.src, f.dst});
    if (it == episodes.end()) return;
    obs::Emit(sink_, {.type = obs::EventType::kFlowUnblocked,
                      .t = t,
                      .dur = t - it->second.since,
                      .coflow = request.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = static_cast<double>(it->second.blamer),
                      .count = static_cast<std::int64_t>(it->second.reason)});
    episodes.erase(it);
  };
  auto note_blocked = [&](const FlowDemand& f, obs::BlockReason reason,
                          CoflowId blamer) {
    const auto it = episodes.find({f.src, f.dst});
    if (it != episodes.end() && it->second.reason == reason &&
        it->second.blamer == blamer) {
      return;  // same cause still in the way: the episode continues
    }
    close_episode(f);
    episodes[{f.src, f.dst}] = {t, reason, blamer};
    obs::Emit(sink_, {.type = obs::EventType::kFlowBlocked,
                      .t = t,
                      .coflow = request.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = static_cast<double>(blamer),
                      .count = static_cast<std::int64_t>(reason)});
  };

  // MakeReservation (Algorithm 1 lines 13-23), generalised to the
  // earliest-feasible-plane greedy exactly as in ScheduleOne (the rescan
  // is the differential oracle, so its plane choices and emissions must
  // match branch for branch). Returns remaining demand in processing
  // units at the config bandwidth.
  const auto num_planes = static_cast<PlaneId>(planes_.size());
  auto make_reservation = [&](const FlowDemand& f) -> Time {
    Time best_wake = kTimeInf;
    PlaneId best_plane = 0;
    bool best_gap_limited = false;
    Time best_in_busy = 0;
    Time best_out_busy = 0;
    for (PlaneId p = 0; p < num_planes; ++p) {
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
      Time setup = planes_[static_cast<std::size_t>(p)].delta;
      if (TimeEq(t, established_at_)) {
        const EstablishedCircuits& est =
            established_[static_cast<std::size_t>(p)];
        auto it = est.find(f.src);
        if (it != est.end() && it->second == f.dst) setup = 0;
      }
      const auto [tm, tm_release] =
          prt_.NextReservationAfter(f.src, f.dst, t, p);
      const Time lm = tm - t;  // max length before blocking a prior one
      const Time ld =
          setup + f.processing * plane_scale_[static_cast<std::size_t>(p)];
      // A reservation of length <= setup would transmit nothing: skip.
      if (lm <= setup + kTimeEps) {
        if (tm_release < best_wake) {
          best_wake = tm_release;
          best_plane = p;
          best_gap_limited = true;
        }
        continue;
      }
      const Time l = std::min(lm, ld);
      const CircuitReservation reservation{f.src, f.dst,        t, t + l,
                                           setup, request.coflow, p};
      prt_.Reserve(reservation);
      ++reservations_made;
      if (sink_ != nullptr) close_episode(f);
      if (callback_) callback_(reservation);
      obs::Emit(sink_, {.type = obs::EventType::kCircuitSetup,
                        .t = reservation.start,
                        .dur = reservation.length(),
                        .coflow = request.coflow,
                        .in = f.src,
                        .out = f.dst,
                        .value = setup,
                        .plane = p});
      obs::Emit(sink_, {.type = obs::EventType::kCircuitTeardown,
                        .t = reservation.end,
                        .coflow = request.coflow,
                        .in = f.src,
                        .out = f.dst,
                        .plane = p});
      const Time remaining = std::max(0.0, ld - l);
      if (remaining <= kTimeEps) {
        // Flow finished in this reservation.
        const Time flow_finish = t + l;
        out.flow_finish[{request.coflow, f.src, f.dst}] = flow_finish;
        finish = std::max(finish, flow_finish);
        obs::Emit(sink_, {.type = obs::EventType::kFlowFinished,
                          .t = flow_finish,
                          .coflow = request.coflow,
                          .in = f.src,
                          .out = f.dst});
        return 0;
      }
      return remaining / plane_scale_[static_cast<std::size_t>(p)];
    }
    // Every plane blocked at t; demand is unchanged until a release.
    if (sink_ != nullptr) {
      if (best_gap_limited) {
        note_blocked(f, obs::BlockReason::kCircuitConflict,
                     prt_.NextOwnerAfter(f.src, f.dst, t, best_plane));
      } else {
        const bool input = best_in_busy > t &&
                           (best_out_busy <= t || best_in_busy >= best_out_busy);
        note_blocked(f,
                     input ? obs::BlockReason::kInputPortBusy
                           : obs::BlockReason::kOutputPortBusy,
                     input ? prt_.OwnerAt(FabricReservationTable::Side::kIn,
                                          f.src, t, best_plane)
                           : prt_.OwnerAt(FabricReservationTable::Side::kOut,
                                          f.dst, t, best_plane));
      }
    }
    return f.processing;
  };

  while (!pending.empty()) {
    for (FlowDemand& f : pending) f.processing = make_reservation(f);
    std::erase_if(pending,
                  [](const FlowDemand& f) { return f.processing <= kTimeEps; });
    if (pending.empty()) break;
    const Time next = prt_.NextReleaseAfter(t);
    SUNFLOW_CHECK_MSG(next < kTimeInf,
                      "Sunflow stuck: pending demand but no future release "
                      "(coflow "
                          << request.coflow << ")");
    SUNFLOW_CHECK(next > t);
    t = next;
  }

  out.completion_time[request.coflow] = finish - request.start;
  out.reservation_count[request.coflow] += reservations_made;
  return finish;
}

SunflowSchedule SunflowPlanner::ScheduleAll(
    const std::vector<PlanRequest>& requests) {
  std::vector<const PlanRequest*> ptrs;
  ptrs.reserve(requests.size());
  for (const PlanRequest& req : requests) ptrs.push_back(&req);
  return ScheduleAll(ptrs);
}

SunflowSchedule SunflowPlanner::ScheduleAll(
    const std::vector<const PlanRequest*>& requests) {
  // Declared first so its destructor runs last: the flushed deltas cover
  // every nested ScheduleOne scratch frame.
  const ArenaMetricsScope arena_metrics(runtime::ThisThreadArena());
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

}  // namespace sunflow
