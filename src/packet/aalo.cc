#include "packet/aalo.h"

#include <algorithm>
#include <cstdint>
#include <limits>

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

    // Strict priority across queues. Two passes: the first gives each
    // coflow its fair-share slice in priority order; the second backfills
    // leftover capacity (work conservation) in the same order.
    PortCapacity cap(num_ports, bandwidth);
    for (const Queued& q : order)
      EqualShareAllocate(*q.coflow, cap, /*first_pass=*/true);
    for (const Queued& q : order)
      EqualShareAllocate(*q.coflow, cap, /*first_pass=*/false);
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
  // rate, the backfill adds to it; finished flows keep their rate of 0.
  static void EqualShareAllocate(ActiveCoflow& coflow, PortCapacity& cap,
                                 bool first_pass) {
    for (const std::uint32_t k : coflow.wave) {
      FlowState& f = coflow.flows[k];
      if (f.done()) continue;
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

  AaloConfig config_;
};

}  // namespace

std::unique_ptr<RateAllocator> MakeAaloAllocator(const AaloConfig& config) {
  return std::make_unique<AaloAllocator>(config);
}

}  // namespace sunflow::packet
