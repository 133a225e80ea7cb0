#include "trace/bounds.h"

namespace sunflow {

Time PacketLowerBound(const Coflow& coflow, Bandwidth bandwidth) {
  SUNFLOW_CHECK(bandwidth > 0);
  return MaxPortSum(coflow.flows(), coflow.max_port(),
                    [&](const Flow& f) { return f.bytes / bandwidth; });
}

Time CircuitLowerBound(const Coflow& coflow, Bandwidth bandwidth, Time delta) {
  SUNFLOW_CHECK(bandwidth > 0);
  SUNFLOW_CHECK(delta >= 0);
  return MaxPortSum(coflow.flows(), coflow.max_port(), [&](const Flow& f) {
    return f.bytes > 0 ? f.bytes / bandwidth + delta : 0.0;
  });
}

double LemmaTwoAlpha(const Coflow& coflow, Bandwidth bandwidth, Time delta) {
  SUNFLOW_CHECK(bandwidth > 0);
  const Time min_p = coflow.min_flow_bytes() / bandwidth;
  SUNFLOW_CHECK(min_p > 0);
  return delta / min_p;
}

}  // namespace sunflow
