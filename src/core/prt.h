// Fabric Reservation Table (§4.1.1, generalised to K switch planes).
//
// The table records, for every (plane, port) pair on both the input and
// output side, when the port is taken and released and by which circuit.
// Sunflow schedules by making reservations that always respect the port
// constraint (an optical port carries at most one circuit per plane at a
// time), so existing reservations are never preempted — the data structure
// *is* the non-preemption guarantee. On the classic single-plane fabric
// everything lives on plane 0 and the legacy PortReservationTable name is
// an alias for this class.
//
// Storage is a flat sorted vector per (side, plane, port) timeline (slots
// are non-overlapping, so sorting by start also sorts the release ends)
// plus a per-timeline probe cursor. The planner probes forward in time
// almost always, so the cursor makes FreeAt / NextStartAfter / BusyUntil
// O(1) amortized on that access pattern; a probe that jumps backwards
// (executors, a new coflow restarting at its arrival time) falls back to
// binary search and re-seats the cursor there.
// Release times live in one flat sorted vector shared by all ports and
// planes: a wakeup instant is a release somewhere in the fabric, and the
// planner's wakeup-index contract (core/sunflow.cc) only needs the global
// chain, not per-plane ones.
#pragma once

#include <vector>

#include "common/units.h"
#include "core/reservation.h"

namespace sunflow {

class FabricReservationTable {
 public:
  /// Which side of the switch a probe addresses. The input and output
  /// timelines are structurally identical; every probe below takes the
  /// side as a value instead of duplicating Input*/Output* method bodies.
  enum class Side { kIn = 0, kOut = 1 };

  explicit FabricReservationTable(PortId num_ports, int num_planes = 1);

  PortId num_ports() const { return num_ports_; }
  int num_planes() const { return num_planes_; }

  /// True iff no reservation on the (side, plane, port) timeline covers
  /// time t (half-open intervals: a reservation ending exactly at t leaves
  /// the port free).
  bool FreeAt(Side side, PortId p, Time t, PlaneId plane = 0) const;

  /// End of the reservation covering t on the timeline, or t itself when
  /// the port is free at t (same tolerance as FreeAt). The planner's
  /// wakeup index buckets a blocked flow under this instant: retrying any
  /// earlier provably fails because the covering reservation is never
  /// preempted.
  Time BusyUntil(Side side, PortId p, Time t, PlaneId plane = 0) const;

  // Legacy single-plane spellings; thin wrappers over the side-indexed
  // probes above, kept because most call sites only ever touch plane 0.
  bool InputFreeAt(PortId i, Time t) const { return FreeAt(Side::kIn, i, t); }
  bool OutputFreeAt(PortId j, Time t) const {
    return FreeAt(Side::kOut, j, t);
  }
  Time InputBusyUntil(PortId i, Time t) const {
    return BusyUntil(Side::kIn, i, t);
  }
  Time OutputBusyUntil(PortId j, Time t) const {
    return BusyUntil(Side::kOut, j, t);
  }

  /// Start time of the earliest reservation beginning strictly after t on
  /// the given port pair of one plane; kTimeInf if none. This is the t_m
  /// of Algorithm 1 line 16 ("earliest next-reserv-time"), needed only at
  /// the inter-Coflow level: a lower-priority coflow must release the port
  /// before a higher-priority reservation begins.
  Time NextReservationStartAfter(PortId in, PortId out, Time t,
                                 PlaneId plane = 0) const;

  /// The earliest reservation beginning strictly after t on either port of
  /// one plane, as (start, release): `start` equals
  /// NextReservationStartAfter(in, out, t, plane) and `release` is the
  /// latest end among the slots (on these two timelines) that begin
  /// exactly at that start. When the gap [t, start) is too short for a
  /// circuit, `release` is the first instant the blocking constraint can
  /// change — the planner's wakeup for the gap-limited case. Returns
  /// (kTimeInf, kTimeInf) when neither timeline has a later start.
  struct NextReservation {
    Time start = kTimeInf;
    Time release = kTimeInf;
  };
  NextReservation NextReservationAfter(PortId in, PortId out, Time t,
                                       PlaneId plane = 0) const;

  /// Records a circuit [in, out] on r.plane during [start, end) with the
  /// given setup prefix. Checks the port constraint on both timelines.
  void Reserve(const CircuitReservation& r);

  /// Earliest reservation end strictly after t across all ports and
  /// planes (the next "circuit release time", Algorithm 1 line 10);
  /// kTimeInf if none.
  Time NextReleaseAfter(Time t) const;

  /// Earliest reservation end >= t (no epsilon), kTimeInf if none; and the
  /// latest reservation end < t (no epsilon), -kTimeInf if none. Together
  /// they let the planner decide whether a wakeup instant can be jumped to
  /// directly or sits inside a sub-epsilon cluster of release times that
  /// must be walked through NextReleaseAfter step by step.
  Time FirstReleaseAtOrAfter(Time t) const;
  Time LastReleaseBefore(Time t) const;

  /// Coflow id owning the reservation that covers time t on the timeline
  /// (same half-open tolerance as FreeAt), or -1 when the port is free at
  /// t. Pure probes for trace emission: they binary-search without
  /// touching the timeline's probe cursor, so calling them cannot perturb
  /// the planner's amortized forward-scan pattern.
  CoflowId OwnerAt(Side side, PortId p, Time t, PlaneId plane = 0) const;
  CoflowId InputOwnerAt(PortId i, Time t) const {
    return OwnerAt(Side::kIn, i, t);
  }
  CoflowId OutputOwnerAt(PortId j, Time t) const {
    return OwnerAt(Side::kOut, j, t);
  }

  /// Coflow id of the earliest reservation beginning strictly after t on
  /// either port of one plane — the blocker in the gap-too-short case of
  /// Algorithm 1 — or -1 if neither timeline has a later start.
  /// Cursor-free like the owner probes above.
  CoflowId NextOwnerAfter(PortId in, PortId out, Time t,
                          PlaneId plane = 0) const;

  /// Total reserved seconds on one (side, plane, port) timeline clipped
  /// to [t0, t1) — the telemetry sampler's utilization numerator,
  /// cross-checked in tests against its incremental accounting.
  /// Cursor-free like the owner probes above: a pure read that never
  /// perturbs the planner's amortized forward-scan cursor.
  Time BusySeconds(Side side, PortId p, Time t0, Time t1,
                   PlaneId plane = 0) const;

  /// All reservations in insertion order.
  const std::vector<CircuitReservation>& reservations() const {
    return all_;
  }

  /// Reservations on one timeline, sorted by start time.
  std::vector<CircuitReservation> TimelineOf(Side side, PortId p,
                                             PlaneId plane = 0) const;
  std::vector<CircuitReservation> InputPortTimeline(PortId i) const {
    return TimelineOf(Side::kIn, i);
  }
  std::vector<CircuitReservation> OutputPortTimeline(PortId j) const {
    return TimelineOf(Side::kOut, j);
  }

  /// Validates the full table (no overlap on any timeline; sane windows).
  void CheckInvariants() const;

 private:
  struct Slot {
    Time start;
    Time end;
    std::size_t index;  ///< into all_
  };

  // One (side, plane, port) timeline, sorted by start (equivalently by
  // end: slots on a timeline never overlap). `cursor` caches the last
  // probe position — the index of the first slot whose end may still
  // matter (end > t + ε for the last probed t). It is advanced linearly on
  // forward probes and re-seated by binary search when a probe jumps
  // backwards, so it is always exact, never a heuristic.
  struct PortTimeline {
    std::vector<Slot> slots;
    mutable std::size_t cursor = 0;

    /// Index of the first slot with end > t + ε (every earlier slot is
    /// fully in the past at t). O(1) amortized for non-decreasing t.
    std::size_t LowerBound(Time t) const;
    bool FreeAt(Time t) const;
    Time BusyUntil(Time t) const;
    /// (start, end) of the first slot starting strictly after t, or
    /// (kTimeInf, kTimeInf).
    NextReservation NextStartAfter(Time t) const;
    /// Throws CheckFailure if s overlaps an existing slot. Reserve calls
    /// this on both ports before inserting on either, so a rejected
    /// reservation never half-applies.
    void CheckFits(const Slot& s) const;
    void Insert(const Slot& s);  ///< keeps sorted order; caller validated
    /// Index into all_ of the slot covering t, or SIZE_MAX when free at t.
    /// Cursor-free (plain binary search) — see the owner probes above.
    std::size_t CoveringIndexAt(Time t) const;
    /// The first slot starting strictly after t, or nullptr. Cursor-free.
    const Slot* FirstStartAfter(Time t) const;
  };

  const PortTimeline& Timeline(Side side, PortId p, PlaneId plane) const;
  PortTimeline& Timeline(Side side, PortId p, PlaneId plane);

  PortId num_ports_;
  int num_planes_;
  /// Indexed [side][plane * num_ports_ + port]. Keeping one flat vector
  /// per side preserves plane-0 locality for the K=1 fast path.
  std::vector<PortTimeline> slots_[2];
  std::vector<Time> release_times_;  ///< sorted ascending, duplicates kept
  std::vector<CircuitReservation> all_;
};

/// The paper-era name: on the single-plane fabric the two are the same
/// structure, so existing call sites keep compiling unchanged.
using PortReservationTable = FabricReservationTable;

}  // namespace sunflow
