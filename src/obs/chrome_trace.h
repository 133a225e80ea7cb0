// Chrome trace-event JSON exporter.
//
// Renders a buffered event stream as the Trace Event Format that Perfetto
// and chrome://tracing load natively: one track ("thread") per switch
// input port under the "switch ports" process, one track per coflow under
// the "coflows" process, and a "scheduler" process carrying compute passes
// and starvation-guard rounds. Simulation seconds map to trace
// microseconds, so a δ = 10 ms setup renders as a 10000 µs slice.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "obs/event.h"

namespace sunflow::obs {

/// Writes a complete JSON object ({"traceEvents":[...]}) to `out`.
void WriteChromeTrace(std::ostream& out, std::span<const Event> events);

/// Convenience: writes to a file; throws std::runtime_error on I/O errors.
void WriteChromeTraceFile(const std::string& path,
                          std::span<const Event> events);

}  // namespace sunflow::obs
