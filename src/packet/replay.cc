#include "packet/replay.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/assert.h"
#include "obs/profiler.h"
#include "packet/aalo.h"

namespace sunflow::packet {

namespace {

AaloConfig QueueConfig(const PacketReplayConfig& config) {
  AaloConfig q;
  q.first_queue_limit = config.first_queue_limit;
  q.queue_spacing = config.queue_spacing;
  q.num_queues = config.num_queues;
  return q;
}

ActiveCoflow MakeActive(const Coflow& coflow) {
  ActiveCoflow a;
  a.id = coflow.id();
  a.arrival = coflow.arrival();
  a.flows.reserve(coflow.size());
  for (const Flow& f : coflow.flows())
    a.flows.push_back({f.src, f.dst, f.bytes, f.bytes, 0});
  return a;
}

}  // namespace

PacketReplayResult ReplayPacketTrace(const Trace& trace,
                                     RateAllocator& allocator,
                                     const PacketReplayConfig& config) {
  SUNFLOW_PROFILE_SCOPE("packet.replay");
  SUNFLOW_CHECK(config.bandwidth > 0);
  trace.Validate();
  const AaloConfig queue_cfg = QueueConfig(config);

  PacketReplayResult result;
  std::vector<ActiveCoflow> active;
  active.reserve(trace.coflows.size());
  std::size_t next_arrival = 0;
  Time t = 0;

  auto reallocate = [&] {
    SUNFLOW_PROFILE_SCOPE("packet.allocate");
    std::vector<ActiveCoflow*> ptrs;
    ptrs.reserve(active.size());
    for (auto& a : active) ptrs.push_back(&a);
    allocator.Allocate(ptrs, trace.num_ports, config.bandwidth, t);
    CheckRates(ptrs, trace.num_ports, config.bandwidth);
    ++result.reschedules;
  };

  // Safety valve: far above any event count a valid replay can produce.
  const std::size_t max_events = 1000 * (trace.coflows.size() + 1) *
                                     (trace.num_ports + 1) +
                                 1000000;
  std::size_t events = 0;

  // The replay state the two safety CHECKs print (times at full
  // precision, since a stuck clock may differ only in the last digits).
  auto state = [&] {
    std::ostringstream os;
    os.precision(17);
    os << "t=" << t << " s, event " << events << " of budget " << max_events
       << ", " << active.size() << " active coflows [";
    for (std::size_t i = 0; i < active.size() && i < 8; ++i)
      os << (i > 0 ? " " : "") << active[i].id;
    os << (active.size() > 8 ? " ...]" : "]") << ", next arrival ";
    if (next_arrival < trace.coflows.size()) {
      os << "t=" << trace.coflows[next_arrival].arrival() << " s";
    } else {
      os << "none";
    }
    os << ", allocator " << allocator.name();
    return os.str();
  };

  // Admits every coflow arriving by t; returns whether any did.
  auto admit = [&] {
    bool arrived = false;
    while (next_arrival < trace.coflows.size() &&
           trace.coflows[next_arrival].arrival() <= t + kTimeEps) {
      active.push_back(MakeActive(trace.coflows[next_arrival++]));
      arrived = true;
    }
    return arrived;
  };

  // One event step: moves t to the next event, drains, retires finished
  // flows and coflows and admits arrivals. Returns whether the allocator
  // must re-run.
  auto advance = [&] {
    SUNFLOW_PROFILE_SCOPE("packet.advance");
    if (active.empty()) {
      // Jump to the next arrival batch.
      t = std::max(t, trace.coflows[next_arrival].arrival());
      return admit();
    }

    // Horizon: next arrival, next flow completion, next queue crossing.
    Time t_next = kTimeInf;
    if (next_arrival < trace.coflows.size())
      t_next = trace.coflows[next_arrival].arrival();
    for (const auto& c : active) {
      Bandwidth total_rate = 0;
      for (const auto& f : c.flows) {
        if (f.done() || f.rate <= 0) continue;
        total_rate += f.rate;
        t_next = std::min(t_next, t + f.remaining / f.rate);
      }
      if (config.track_queue_crossings && total_rate > 0) {
        const Bytes threshold = AaloNextThreshold(queue_cfg, c.sent);
        if (std::isfinite(threshold)) {
          t_next = std::min(t_next, t + (threshold - c.sent) / total_rate);
        }
      }
    }
    SUNFLOW_CHECK_MSG(t_next < kTimeInf,
                      "packet replay stalled: active coflows but no rates "
                      "and no arrivals: "
                          << state());

    // Drain linearly until the event; finished flows leave their coflow.
    const Time dt = std::max(0.0, t_next - t);
    bool flow_completed = false;
    bool queue_crossed = false;
    for (auto& c : active) {
      const int q_before = AaloQueueIndex(queue_cfg, c.sent);
      bool finished = false;
      for (auto& f : c.flows) {
        if (f.rate <= 0 || f.done()) continue;
        const Bytes moved = std::min(f.remaining, f.rate * dt);
        f.remaining -= moved;
        c.sent += moved;
        finished = finished || f.done();
      }
      if (finished) {
        std::erase_if(c.flows, [](const FlowState& f) { return f.done(); });
        flow_completed = true;
      }
      if (config.track_queue_crossings &&
          AaloQueueIndex(queue_cfg, c.sent) != q_before) {
        queue_crossed = true;
      }
    }
    t = t_next;

    // Coflow completions.
    bool coflow_completed = false;
    for (auto it = active.begin(); it != active.end();) {
      if (it->done()) {
        result.cct[it->id] = t - it->arrival;
        result.completion[it->id] = t;
        result.makespan = std::max(result.makespan, t);
        it = active.erase(it);
        coflow_completed = true;
      } else {
        ++it;
      }
    }

    const bool arrived = admit();
    return arrived || coflow_completed ||
           (flow_completed && config.reallocate_on_flow_completion) ||
           (queue_crossed && config.track_queue_crossings);
  };

  while (!active.empty() || next_arrival < trace.coflows.size()) {
    SUNFLOW_CHECK_MSG(++events < max_events,
                      "packet replay event explosion: " << state());
    if (advance() && !active.empty()) reallocate();
  }

  SUNFLOW_CHECK(result.cct.size() == trace.coflows.size());
  return result;
}

Time PacketSingleCoflowCct(const Coflow& coflow, RateAllocator& allocator,
                           const PacketReplayConfig& config) {
  Trace trace;
  trace.num_ports = std::max<PortId>(coflow.max_port(), 1);
  trace.coflows.push_back(coflow.WithArrival(0));
  const auto result = ReplayPacketTrace(trace, allocator, config);
  return result.cct.at(coflow.id());
}

}  // namespace sunflow::packet
