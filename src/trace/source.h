// CoflowSource — the pull-based coflow feed behind out-of-core replays.
//
// The in-memory path hands the engine a whole `Trace`; a source instead
// yields coflows one at a time in arrival order, so the consumer's memory
// footprint is bounded by its *active* set plus whatever read-ahead the
// source keeps, never by the trace length. `TraceReader` (trace/stream.h)
// is the disk-backed implementation; `TraceCoflowSource` adapts an
// in-memory Trace for tests and equivalence harnesses.
#pragma once

#include <cstdint>
#include <optional>

#include "common/assert.h"
#include "trace/coflow.h"

namespace sunflow {

/// Pull interface over an arrival-ordered coflow sequence. Next() moves
/// the next coflow into `out` and returns true, or returns false at end
/// of stream (after which every further call returns false).
class CoflowSource {
 public:
  virtual ~CoflowSource() = default;

  /// Fabric size the coflows are addressed against.
  virtual PortId num_ports() const = 0;

  /// Total coflow count when known up front (e.g. a closed stream file's
  /// header); nullopt for open-ended sources.
  virtual std::optional<std::uint64_t> size_hint() const {
    return std::nullopt;
  }

  virtual bool Next(Coflow& out) = 0;
};

/// Adapts an in-memory Trace (not owned; must outlive the source). The
/// trace's own invariant (sorted by arrival) provides the ordering.
class TraceCoflowSource final : public CoflowSource {
 public:
  explicit TraceCoflowSource(const Trace& trace) : trace_(&trace) {}

  PortId num_ports() const override { return trace_->num_ports; }
  std::optional<std::uint64_t> size_hint() const override {
    return trace_->coflows.size();
  }
  bool Next(Coflow& out) override {
    if (next_ >= trace_->coflows.size()) return false;
    out = trace_->coflows[next_++];
    return true;
  }

 private:
  const Trace* trace_;
  std::size_t next_ = 0;
};

/// Drains a source into an in-memory Trace (test/convert helper). Checks
/// the arrival-order invariant via Trace::Validate. Does not reserve from
/// size_hint(): a file header's count is unchecked until end of stream.
inline Trace MaterializeSource(CoflowSource& source) {
  Trace t;
  t.num_ports = source.num_ports();
  Coflow c;
  while (source.Next(c)) t.coflows.push_back(std::move(c));
  t.Validate();
  return t;
}

}  // namespace sunflow
