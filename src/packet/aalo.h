// Aalo (Chowdhury, Stoica — SIGCOMM 2015): non-clairvoyant packet-switched
// coflow scheduling via D-CLAS (Discretized Coflow-aware Least-Attained
// Service), the second inter-Coflow comparison of §5.4.
//
// Coflows are placed in priority queues keyed by bytes *already sent*
// (attained service): queue q holds coflows with sent bytes in
// [q0·E^q, q0·E^{q+1}). Lower queues are served first; within a queue,
// FIFO by arrival. Aalo does not know flow sizes, so within a coflow the
// unfinished flows share capacity equally (no MADD) — the intra-Coflow
// inefficiency §5.4 observes for large coflows. A final backfill pass keeps
// the allocation work-conserving, approximating Aalo's weighted queue
// sharing with its strongly skewed default weights.
#pragma once

#include <memory>

#include "common/units.h"
#include "packet/fabric.h"

namespace sunflow::packet {

struct AaloConfig {
  Bytes first_queue_limit = 10e6;  ///< q0: 10 MB, Aalo's default
  double queue_spacing = 10.0;     ///< E: exponential spacing factor
  int num_queues = 10;             ///< K
};

std::unique_ptr<RateAllocator> MakeAaloAllocator(const AaloConfig& config = {});

/// Queue index for a coflow with `sent` attained bytes.
int AaloQueueIndex(const AaloConfig& config, Bytes sent);

/// Attained-bytes threshold at which a coflow in queue `q` moves to q+1;
/// +inf for the last queue (the Aalo allocator's NextServiceThreshold).
Bytes AaloNextThreshold(const AaloConfig& config, Bytes sent);

}  // namespace sunflow::packet
