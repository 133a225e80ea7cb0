#include "packet/fair_share.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/assert.h"

namespace sunflow::packet {

namespace {

class FairShareAllocator : public RateAllocator {
 public:
  const char* name() const override { return "per-flow-fair"; }

  // Like TCP converging: survivors speed up as soon as a flow leaves.
  bool reallocates_on_flow_completion() const override { return true; }

  void Allocate(std::vector<ActiveCoflow*>& active, PortId num_ports,
                Bandwidth bandwidth, Time /*now*/) override {
    struct Slot {
      FlowState* flow;
      bool frozen = false;
    };
    std::vector<Slot> slots;
    for (ActiveCoflow* c : active) {
      for (auto& f : c->flows) {
        f.rate = 0;
        if (!f.done()) slots.push_back({&f, false});
      }
    }
    std::vector<Bandwidth> in_left(static_cast<std::size_t>(num_ports),
                                   bandwidth);
    std::vector<Bandwidth> out_left(static_cast<std::size_t>(num_ports),
                                    bandwidth);

    // Progressive filling: raise every unfrozen flow's rate in lockstep
    // until a port saturates, freeze the flows crossing it, repeat.
    int unfrozen = static_cast<int>(slots.size());
    int guard = num_ports * 2 + 2;
    while (unfrozen > 0 && guard-- > 0) {
      // Unfrozen flow counts per port.
      std::vector<int> in_n(static_cast<std::size_t>(num_ports), 0);
      std::vector<int> out_n(static_cast<std::size_t>(num_ports), 0);
      for (const Slot& s : slots) {
        if (s.frozen) continue;
        ++in_n[static_cast<std::size_t>(s.flow->src)];
        ++out_n[static_cast<std::size_t>(s.flow->dst)];
      }
      // Largest uniform increment every unfrozen flow can take.
      Bandwidth inc = std::numeric_limits<Bandwidth>::infinity();
      for (PortId p = 0; p < num_ports; ++p) {
        if (in_n[static_cast<std::size_t>(p)] > 0)
          inc = std::min(inc, in_left[static_cast<std::size_t>(p)] /
                                  in_n[static_cast<std::size_t>(p)]);
        if (out_n[static_cast<std::size_t>(p)] > 0)
          inc = std::min(inc, out_left[static_cast<std::size_t>(p)] /
                                   out_n[static_cast<std::size_t>(p)]);
      }
      SUNFLOW_CHECK(std::isfinite(inc) && inc >= 0);
      for (Slot& s : slots) {
        if (s.frozen) continue;
        s.flow->rate += inc;
        in_left[static_cast<std::size_t>(s.flow->src)] -= inc;
        out_left[static_cast<std::size_t>(s.flow->dst)] -= inc;
      }
      // Freeze flows touching an exhausted port.
      for (Slot& s : slots) {
        if (s.frozen) continue;
        if (in_left[static_cast<std::size_t>(s.flow->src)] <= 1e-6 ||
            out_left[static_cast<std::size_t>(s.flow->dst)] <= 1e-6) {
          s.frozen = true;
          --unfrozen;
        }
      }
      if (inc <= 0) break;  // numeric floor: everything left is saturated
    }
  }
};

}  // namespace

std::unique_ptr<RateAllocator> MakeFairShareAllocator() {
  return std::make_unique<FairShareAllocator>();
}

}  // namespace sunflow::packet
