// TraceSink — where instrumented code sends its events.
//
// Emission sites hold a `TraceSink*` that is null by default; `Emit` is an
// inlined null check, so a disabled tracer costs one predictable branch and
// no allocation, formatting or I/O (the "zero-cost when disabled"
// contract, verified in tests/obs_test.cc).
//
// Threading follows the sharded-merge contract of src/runtime's sweep
// engine: an individual sink is single-threaded — one sink per simulation
// task, like the planner itself — and parallel sweeps give every task a
// private MemorySink whose buffer is folded into the final sink *in task
// order* after the fan-out completes (exp::RunIntra), so exported
// traces are byte-identical at any thread count. Debug builds assert on
// cross-thread misuse: emitting into the same buffering sink from two
// threads trips a SUNFLOW_DCHECK instead of silently corrupting the
// buffer.
#pragma once

#include <thread>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "obs/event.h"

namespace sunflow::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const Event& event) = 0;
};

/// The only sanctioned emission path: instrumented code never calls
/// OnEvent directly, so a null sink short-circuits before any argument
/// formatting happens.
inline void Emit(TraceSink* sink, const Event& event) {
  if (sink != nullptr) sink->OnEvent(event);
}

namespace detail {

/// Debug-only detector for cross-thread misuse of a non-sharded sink: the
/// first emission pins the owning thread, later emissions must come from
/// it. Compiles to nothing in NDEBUG builds.
class SingleThreadGuard {
 public:
#ifndef NDEBUG
  bool CheckCurrentThread() {
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id()) owner_ = self;
    return owner_ == self;
  }
  void Release() { owner_ = std::thread::id(); }

 private:
  std::thread::id owner_;
#else
  bool CheckCurrentThread() { return true; }
  void Release() {}
#endif
};

}  // namespace detail

/// Buffers events in memory, in emission order. The default sink for
/// benches and tests; export afterwards with WriteChromeTrace/WriteJsonl.
/// Single-threaded: parallel sweeps use one MemorySink per task and merge
/// the buffers in task order.
class MemorySink : public TraceSink {
 public:
  void OnEvent(const Event& event) override {
    SUNFLOW_DCHECK(guard_.CheckCurrentThread());
    events_.push_back(event);
  }

  const std::vector<Event>& events() const { return events_; }
  void Clear() {
    events_.clear();
    guard_.Release();
  }

  /// Moves the buffer out (used by the sweep engine's task-order merge);
  /// the sink is empty and re-owned by the next emitting thread after.
  std::vector<Event> TakeEvents() && {
    guard_.Release();
    return std::move(events_);
  }

  /// Number of buffered events of one type.
  std::size_t CountOf(EventType type) const;

 private:
  std::vector<Event> events_;
  detail::SingleThreadGuard guard_;
};

/// Shifts every event by a fixed time offset before forwarding — used by
/// the intra runner, which evaluates coflows back-to-back ("a Coflow
/// arrives only after the previous one is finished", §5.3) but plans each
/// one at t = 0.
class OffsetSink : public TraceSink {
 public:
  explicit OffsetSink(TraceSink* inner) : inner_(inner) {}

  void set_offset(Time offset) { offset_ = offset; }

  void OnEvent(const Event& event) override {
    Event shifted = event;
    shifted.t += offset_;
    Emit(inner_, shifted);
  }

 private:
  TraceSink* inner_ = nullptr;
  Time offset_ = 0;
};

}  // namespace sunflow::obs
