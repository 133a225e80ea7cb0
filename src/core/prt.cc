#include "core/prt.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace sunflow {

std::string CircuitReservation::DebugString() const {
  std::ostringstream os;
  os << "[in." << in << ", out." << out << ") t=[" << start << ", " << end
     << ") setup=" << setup << " coflow=" << coflow;
  if (plane != 0) os << " plane=" << plane;
  return os.str();
}

FabricReservationTable::FabricReservationTable(PortId num_ports,
                                               int num_planes)
    : num_ports_(num_ports), num_planes_(num_planes) {
  SUNFLOW_CHECK(num_ports > 0);
  SUNFLOW_CHECK(num_planes > 0);
  const std::size_t timelines =
      static_cast<std::size_t>(num_planes) * static_cast<std::size_t>(num_ports);
  slots_[0].resize(timelines);
  slots_[1].resize(timelines);
}

const FabricReservationTable::PortTimeline& FabricReservationTable::Timeline(
    Side side, PortId p, PlaneId plane) const {
  SUNFLOW_CHECK(p >= 0 && p < num_ports_);
  SUNFLOW_CHECK(plane >= 0 && plane < num_planes_);
  return slots_[static_cast<int>(side)]
               [static_cast<std::size_t>(plane) *
                    static_cast<std::size_t>(num_ports_) +
                static_cast<std::size_t>(p)];
}

FabricReservationTable::PortTimeline& FabricReservationTable::Timeline(
    Side side, PortId p, PlaneId plane) {
  return const_cast<PortTimeline&>(
      static_cast<const FabricReservationTable&>(*this).Timeline(side, p,
                                                                 plane));
}

std::size_t FabricReservationTable::PortTimeline::LowerBound(Time t) const {
  const std::size_t n = slots.size();
  // The cursor is a valid lower bound iff everything before it is fully in
  // the past at t as well. Ends are strictly increasing (slots never
  // overlap and each spans more than ε), so checking the slot just before
  // the cursor suffices.
  if (cursor > n || (cursor > 0 && slots[cursor - 1].end > t + kTimeEps)) {
    // Backward (or stale) probe: binary search and re-seat the cursor so a
    // subsequent forward scan from here is cheap again.
    cursor = static_cast<std::size_t>(
        std::partition_point(slots.begin(), slots.end(),
                             [t](const Slot& s) {
                               return s.end <= t + kTimeEps;
                             }) -
        slots.begin());
    return cursor;
  }
  while (cursor < n && slots[cursor].end <= t + kTimeEps) ++cursor;
  return cursor;
}

bool FabricReservationTable::PortTimeline::FreeAt(Time t) const {
  // The covering slot, if any, is the first one whose end is still ahead
  // of t; the port is busy iff that slot has already started.
  const std::size_t i = LowerBound(t);
  return i == slots.size() || slots[i].start > t;
}

Time FabricReservationTable::PortTimeline::BusyUntil(Time t) const {
  const std::size_t i = LowerBound(t);
  if (i == slots.size() || slots[i].start > t) return t;
  return slots[i].end;
}

FabricReservationTable::NextReservation
FabricReservationTable::PortTimeline::NextStartAfter(Time t) const {
  std::size_t i = LowerBound(t);
  // slots[i] may cover t (start <= t); the one after it starts past t
  // because its start is >= this slot's end - ε > t.
  if (i < slots.size() && slots[i].start <= t) ++i;
  if (i == slots.size()) return {};
  return {slots[i].start, slots[i].end};
}

void FabricReservationTable::PortTimeline::CheckFits(const Slot& s) const {
  const auto pos = std::upper_bound(
      slots.begin(), slots.end(), s,
      [](const Slot& a, const Slot& b) { return a.start < b.start; });
  if (pos != slots.end()) {
    SUNFLOW_CHECK_MSG(s.end <= pos->start + kTimeEps,
                      "reservation overlaps successor on port");
  }
  if (pos != slots.begin()) {
    SUNFLOW_CHECK_MSG(std::prev(pos)->end <= s.start + kTimeEps,
                      "reservation overlaps predecessor on port");
  }
}

void FabricReservationTable::PortTimeline::Insert(const Slot& s) {
  // Append fast path: the planner emits reservations in non-decreasing
  // start order per timeline, so most inserts land at the back.
  auto pos = slots.end();
  if (!slots.empty() && s.start < slots.back().start) {
    pos = std::upper_bound(slots.begin(), slots.end(), s,
                           [](const Slot& a, const Slot& b) {
                             return a.start < b.start;
                           });
  }
  const auto idx = static_cast<std::size_t>(pos - slots.begin());
  if (idx < cursor) ++cursor;  // keep the cursor on the same slot
  slots.insert(pos, s);
}

std::size_t FabricReservationTable::PortTimeline::CoveringIndexAt(
    Time t) const {
  // Same predicate as LowerBound, but without reading or re-seating the
  // cursor: the first slot whose end is still ahead of t covers t iff it
  // has already started.
  const auto it = std::partition_point(
      slots.begin(), slots.end(),
      [t](const Slot& s) { return s.end <= t + kTimeEps; });
  if (it == slots.end() || it->start > t) return SIZE_MAX;
  return it->index;
}

const FabricReservationTable::Slot*
FabricReservationTable::PortTimeline::FirstStartAfter(Time t) const {
  auto it = std::partition_point(
      slots.begin(), slots.end(),
      [t](const Slot& s) { return s.end <= t + kTimeEps; });
  if (it != slots.end() && it->start <= t) ++it;
  if (it == slots.end()) return nullptr;
  return &*it;
}

bool FabricReservationTable::FreeAt(Side side, PortId p, Time t,
                                    PlaneId plane) const {
  return Timeline(side, p, plane).FreeAt(t);
}

Time FabricReservationTable::BusyUntil(Side side, PortId p, Time t,
                                       PlaneId plane) const {
  return Timeline(side, p, plane).BusyUntil(t);
}

CoflowId FabricReservationTable::OwnerAt(Side side, PortId p, Time t,
                                         PlaneId plane) const {
  const std::size_t idx = Timeline(side, p, plane).CoveringIndexAt(t);
  return idx == SIZE_MAX ? -1 : all_[idx].coflow;
}

CoflowId FabricReservationTable::NextOwnerAfter(PortId in, PortId out, Time t,
                                                PlaneId plane) const {
  const Slot* a = Timeline(Side::kIn, in, plane).FirstStartAfter(t);
  const Slot* b = Timeline(Side::kOut, out, plane).FirstStartAfter(t);
  const Slot* first = a;
  if (first == nullptr || (b != nullptr && b->start < first->start)) first = b;
  return first == nullptr ? -1 : all_[first->index].coflow;
}

Time FabricReservationTable::BusySeconds(Side side, PortId p, Time t0,
                                         Time t1, PlaneId plane) const {
  // Slots are sorted by start and never overlap, so one pass over the
  // window suffices; plain binary search keeps this cursor-free.
  const PortTimeline& tl = Timeline(side, p, plane);
  Time busy = 0;
  auto it = std::lower_bound(
      tl.slots.begin(), tl.slots.end(), t0,
      [](const Slot& s, Time t) { return s.end <= t; });
  for (; it != tl.slots.end() && it->start < t1; ++it) {
    busy += std::max<Time>(0, std::min(it->end, t1) - std::max(it->start, t0));
  }
  return busy;
}

FabricReservationTable::NextReservation
FabricReservationTable::NextReservationAfter(PortId in, PortId out, Time t,
                                             PlaneId plane) const {
  const NextReservation a = Timeline(Side::kIn, in, plane).NextStartAfter(t);
  const NextReservation b = Timeline(Side::kOut, out, plane).NextStartAfter(t);
  if (a.start < b.start) return a;
  if (b.start < a.start) return b;
  // Both ports have a slot starting at the same instant: the constraint at
  // that start only relaxes when the longer of the two releases.
  return {a.start, std::max(a.release, b.release)};
}

void FabricReservationTable::Reserve(const CircuitReservation& r) {
  SUNFLOW_PROFILE_SCOPE("prt.reserve");
  SUNFLOW_CHECK(r.in >= 0 && r.in < num_ports_);
  SUNFLOW_CHECK(r.out >= 0 && r.out < num_ports_);
  SUNFLOW_CHECK_MSG(r.plane >= 0 && r.plane < num_planes_,
                    "plane out of range in " << r.DebugString());
  SUNFLOW_CHECK_MSG(r.end > r.start + kTimeEps,
                    "empty reservation " << r.DebugString());
  SUNFLOW_CHECK_MSG(r.setup >= 0 && r.setup <= r.length() + kTimeEps,
                    "bad setup in " << r.DebugString());
  const Slot s{r.start, r.end, all_.size()};
  PortTimeline& in_tl = Timeline(Side::kIn, r.in, r.plane);
  PortTimeline& out_tl = Timeline(Side::kOut, r.out, r.plane);
  in_tl.CheckFits(s);
  out_tl.CheckFits(s);
  in_tl.Insert(s);
  out_tl.Insert(s);
  if (release_times_.empty() || r.end >= release_times_.back()) {
    release_times_.push_back(r.end);
  } else {
    release_times_.insert(
        std::upper_bound(release_times_.begin(), release_times_.end(), r.end),
        r.end);
  }
  all_.push_back(r);
  // Instrument addresses are stable, so the lookup happens exactly once
  // per thread (thread_local: shards are per thread, obs/metrics.h).
  static thread_local obs::Counter& reservations =
      obs::GlobalMetrics().GetCounter("prt.reservations");
  reservations.Increment();
}

Time FabricReservationTable::NextReleaseAfter(Time t) const {
  const auto it = std::upper_bound(release_times_.begin(),
                                   release_times_.end(), t + kTimeEps);
  if (it == release_times_.end()) return kTimeInf;
  return *it;
}

Time FabricReservationTable::FirstReleaseAtOrAfter(Time t) const {
  const auto it =
      std::lower_bound(release_times_.begin(), release_times_.end(), t);
  if (it == release_times_.end()) return kTimeInf;
  return *it;
}

Time FabricReservationTable::LastReleaseBefore(Time t) const {
  const auto it =
      std::lower_bound(release_times_.begin(), release_times_.end(), t);
  if (it == release_times_.begin()) return -kTimeInf;
  return *std::prev(it);
}

void FabricReservationTable::CheckInvariants() const {
  for (const auto& side : slots_) {
    for (const PortTimeline& tl : side) {
      Time prev_end = -kTimeInf;
      for (const Slot& s : tl.slots) {
        SUNFLOW_CHECK_MSG(s.start >= prev_end - kTimeEps,
                          "overlapping reservations on a port");
        SUNFLOW_CHECK(s.end > s.start);
        prev_end = s.end;
      }
    }
  }
  SUNFLOW_CHECK(std::is_sorted(release_times_.begin(), release_times_.end()));
  SUNFLOW_CHECK(release_times_.size() == all_.size());
}

}  // namespace sunflow
