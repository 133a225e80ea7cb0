#include "packet/aalo.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "common/assert.h"

namespace sunflow::packet {

// Attained-service values within half a byte of a threshold count as having
// crossed it: the replay advances time to the exact crossing instant, and
// floating-point drain can land infinitesimally below the limit, which
// would otherwise re-arm an ever-shrinking crossing event (a Zeno loop).
constexpr Bytes kQueueEps = 0.5;

int AaloQueueIndex(const AaloConfig& config, Bytes sent) {
  SUNFLOW_CHECK(config.first_queue_limit > 0 && config.queue_spacing > 1);
  Bytes limit = config.first_queue_limit;
  for (int q = 0; q < config.num_queues - 1; ++q) {
    if (sent < limit - kQueueEps) return q;
    limit *= config.queue_spacing;
  }
  return config.num_queues - 1;
}

Bytes AaloNextThreshold(const AaloConfig& config, Bytes sent) {
  Bytes limit = config.first_queue_limit;
  for (int q = 0; q < config.num_queues - 1; ++q) {
    if (sent < limit - kQueueEps) return limit;
    limit *= config.queue_spacing;
  }
  return std::numeric_limits<Bytes>::infinity();
}

namespace {

class AaloAllocator : public RateAllocator {
 public:
  explicit AaloAllocator(const AaloConfig& config) : config_(config) {}

  const char* name() const override { return "Aalo"; }

  // Approximates Aalo's periodic share updates.
  bool reallocates_on_flow_completion() const override { return true; }
  Bytes NextServiceThreshold(Bytes sent) const override {
    return AaloNextThreshold(config_, sent);
  }

  void Allocate(std::vector<ActiveCoflow*>& active, PortId num_ports,
                Bandwidth bandwidth, Time /*now*/) override {
    // D-CLAS order: queue index ascending (least attained service first),
    // FIFO within a queue.
    std::vector<Queued> order;
    order.reserve(active.size());
    for (ActiveCoflow* c : active)
      order.push_back({AaloQueueIndex(config_, c->sent), c});
    std::stable_sort(order.begin(), order.end(),
                     [](const Queued& a, const Queued& b) {
                       if (a.queue != b.queue) return a.queue < b.queue;
                       if (a.coflow->arrival != b.coflow->arrival)
                         return a.coflow->arrival < b.coflow->arrival;
                       return a.coflow->id < b.coflow->id;
                     });

    if (config_.weighted_queues) {
      WeightedAllocate(order, num_ports, bandwidth);
    } else {
      PortCapacity cap(num_ports, bandwidth);
      // Two passes: the first gives each coflow its fair-share slice in
      // priority order; the second backfills leftover capacity (work
      // conservation) in the same order.
      for (const Queued& q : order)
        EqualShareAllocate(*q.coflow, cap, /*first_pass=*/true);
      for (const Queued& q : order)
        EqualShareAllocate(*q.coflow, cap, /*first_pass=*/false);
    }
  }

 private:
  struct Queued {
    int queue;
    ActiveCoflow* coflow;
  };

  // Flow sizes are unknown to Aalo, so every unfinished flow of the coflow
  // receives an equal split of the remaining capacity of its two ports
  // (the split counts this coflow's own contenders per port). A flow reads
  // and writes only its two ports' capacity, so the coflow's wavefront
  // order gives the bits of its trace order. The first pass writes each
  // rate, the backfill adds to it.
  static void EqualShareAllocate(ActiveCoflow& coflow, PortCapacity& cap,
                                 bool first_pass) {
    for (const std::uint32_t k : coflow.wave) {
      FlowState& f = coflow.flows[k];
      const Bandwidth before = first_pass ? 0 : f.rate;
      const Bandwidth share = std::min(cap.in(f.src) / coflow.in(f.src),
                                       cap.out(f.dst) / coflow.out(f.dst));
      if (share <= 1e-6) {
        f.rate = before;
        continue;
      }
      f.rate = before + share;
      cap.Consume(f.src, f.dst, share);
    }
  }

  // Weighted cross-queue sharing: each round of allocation runs over the
  // non-empty queues with a per-queue capacity budget proportional to
  // decay^q, then a final unweighted backfill soaks the leftovers. The
  // guaranteed slice for lower-priority (heavier) queues is exactly what
  // delays small coflows relative to strict priority.
  void WeightedAllocate(const std::vector<Queued>& order, PortId num_ports,
                        Bandwidth bandwidth) {
    std::map<int, std::vector<ActiveCoflow*>> queues;
    for (const Queued& q : order) queues[q.queue].push_back(q.coflow);
    double total_weight = 0;
    for (const auto& [q, list] : queues)
      total_weight += std::pow(config_.queue_weight_decay, q);
    SUNFLOW_CHECK(total_weight > 0);

    PortCapacity cap(num_ports, bandwidth);
    // Pass 1: each queue gets its weighted share of the fabric, realized
    // as a scaled-down port capacity it may draw from.
    for (const auto& [q, list] : queues) {
      const double share =
          std::pow(config_.queue_weight_decay, q) / total_weight;
      PortCapacity queue_cap(num_ports, bandwidth * share);
      for (ActiveCoflow* c : list) {
        // Allocate inside the queue budget, mirrored against the global
        // capacity so port constraints hold across queues.
        for (const std::uint32_t k : c->wave) {
          FlowState& f = c->flows[k];
          const Bandwidth r = std::min(
              {queue_cap.in(f.src) / c->in(f.src),
               queue_cap.out(f.dst) / c->out(f.dst), cap.in(f.src),
               cap.out(f.dst)});
          if (r <= 1e-6) {
            f.rate = 0;
            continue;
          }
          f.rate = r;
          queue_cap.Consume(f.src, f.dst, r);
          cap.Consume(f.src, f.dst, r);
        }
      }
    }
    // Pass 2: unweighted backfill in D-CLAS order (work conservation).
    for (const Queued& q : order)
      EqualShareAllocate(*q.coflow, cap, /*first_pass=*/false);
  }

  AaloConfig config_;
};

}  // namespace

std::unique_ptr<RateAllocator> MakeAaloAllocator(const AaloConfig& config) {
  return std::make_unique<AaloAllocator>(config);
}

}  // namespace sunflow::packet
