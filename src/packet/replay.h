// Trace replay on the fluid packet fabric (Varys / Aalo side of §5.4).
//
// The replay is the kernel's packet scenario (engine::MakePacketScenario,
// also the "varys" and "aalo" scenarios): rates are piecewise constant
// between events, and the allocator is re-run on arrivals, completions and
// its own rescheduling rule (RateAllocator). In between, completed flows
// simply stop and leave their bandwidth idle — the Varys behaviour §5.4
// calls out. The functions below are defined in the engine library
// (sim/engine/scenarios.cc); they serve callers that bring their own
// allocator.
#pragma once

#include <map>

#include "packet/fabric.h"
#include "trace/coflow.h"

namespace sunflow::packet {

struct PacketReplayConfig {
  Bandwidth bandwidth = Gbps(1);
  /// Unused: the allocator decides (RateAllocator::
  /// reallocates_on_flow_completion, NextServiceThreshold). Both fields
  /// stay only because perfbench/perfbench.cc still assigns them.
  bool reallocate_on_flow_completion = false;
  bool track_queue_crossings = false;
};

struct PacketReplayResult {
  /// CCT per coflow (completion − arrival).
  std::map<CoflowId, Time> cct;
  /// Absolute completion time per coflow.
  std::map<CoflowId, Time> completion;
  Time makespan = 0;
  std::size_t reschedules = 0;
};

PacketReplayResult ReplayPacketTrace(const Trace& trace,
                                     RateAllocator& allocator,
                                     const PacketReplayConfig& config);

}  // namespace sunflow::packet
