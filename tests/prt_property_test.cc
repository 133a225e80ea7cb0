// Property test for the flat-timeline PortReservationTable: a randomized
// workload (>10k reservations) cross-checked against a brute-force O(n)
// oracle that re-derives every probe from first principles. The probe
// schedule is adversarial on two axes: times sit on and within ±2ε of
// reservation boundaries (exercising every tolerant comparison), and the
// probe sequence mixes long forward sweeps with backward jumps so the
// per-port cursor is repeatedly advanced, invalidated and re-seated.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "core/prt.h"

namespace sunflow {
namespace {

// Brute-force reference: unordered per-port interval lists plus the global
// release list, each probe answered by a full scan using the PRT's
// documented semantics (half-open intervals, ε-tolerant comparisons).
class Oracle {
 public:
  explicit Oracle(PortId num_ports)
      : in_(static_cast<std::size_t>(num_ports)),
        out_(static_cast<std::size_t>(num_ports)) {}

  void Add(const CircuitReservation& r) {
    in_[static_cast<std::size_t>(r.in)].push_back({r.start, r.end});
    out_[static_cast<std::size_t>(r.out)].push_back({r.start, r.end});
    releases_.push_back(r.end);
  }

  bool InputFreeAt(PortId i, Time t) const { return FreeAt(in_, i, t); }
  bool OutputFreeAt(PortId j, Time t) const { return FreeAt(out_, j, t); }
  Time InputBusyUntil(PortId i, Time t) const { return BusyUntil(in_, i, t); }
  Time OutputBusyUntil(PortId j, Time t) const {
    return BusyUntil(out_, j, t);
  }

  PortReservationTable::NextReservation NextReservationAfter(PortId in,
                                                             PortId out,
                                                             Time t) const {
    const auto a = NextStartAfter(in_, in, t);
    const auto b = NextStartAfter(out_, out, t);
    if (a.start < b.start) return a;
    if (b.start < a.start) return b;
    return {a.start, std::max(a.release, b.release)};
  }

  Time NextReleaseAfter(Time t) const {
    Time best = kTimeInf;
    for (Time e : releases_)
      if (e > t + kTimeEps) best = std::min(best, e);
    return best;
  }

  Time FirstReleaseAtOrAfter(Time t) const {
    Time best = kTimeInf;
    for (Time e : releases_)
      if (e >= t) best = std::min(best, e);
    return best;
  }

  Time LastReleaseBefore(Time t) const {
    Time best = -kTimeInf;
    for (Time e : releases_)
      if (e < t) best = std::max(best, e);
    return best;
  }

 private:
  using Slots = std::vector<std::vector<std::pair<Time, Time>>>;

  static bool FreeAt(const Slots& side, PortId p, Time t) {
    for (const auto& [s, e] : side[static_cast<std::size_t>(p)]) {
      if (s <= t && e > t + kTimeEps) return false;
    }
    return true;
  }

  static Time BusyUntil(const Slots& side, PortId p, Time t) {
    for (const auto& [s, e] : side[static_cast<std::size_t>(p)]) {
      if (s <= t && e > t + kTimeEps) return e;
    }
    return t;
  }

  static PortReservationTable::NextReservation NextStartAfter(
      const Slots& side, PortId p, Time t) {
    PortReservationTable::NextReservation best;
    for (const auto& [s, e] : side[static_cast<std::size_t>(p)]) {
      if (s > t && s < best.start) best = {s, e};
    }
    return best;
  }

  Slots in_;
  Slots out_;
  std::vector<Time> releases_;
};

class Workload {
 public:
  Workload(std::uint64_t seed, PortId ports)
      : rng_(seed),
        ports_(ports),
        frontier_(static_cast<std::size_t>(ports), 0.0) {}

  // Adds `target` more accepted reservations. 70% of inserts extend a
  // port pair's frontier (the planner's append pattern); the rest land at
  // historical times, where overlap rejections are expected and
  // mid-vector insertion is exercised. The frontier persists across
  // calls so incremental fills stay productive.
  void Fill(PortReservationTable& prt, Oracle& oracle, int target) {
    std::vector<Time>& frontier = frontier_;
    int accepted = 0;
    int attempts = 0;
    while (accepted < target && ++attempts < 40 * target) {
      const auto in = static_cast<PortId>(rng_.UniformInt(0, ports_ - 1));
      const auto out = static_cast<PortId>(rng_.UniformInt(0, ports_ - 1));
      Time start;
      if (rng_.Uniform(0, 1) < 0.7) {
        start = std::max(frontier[static_cast<std::size_t>(in)],
                         frontier[static_cast<std::size_t>(out)]) +
                rng_.Uniform(0, 0.02);
      } else {
        start = rng_.Uniform(0, 50.0);
      }
      // ε-scale jitter half the time, so boundaries land within tolerance
      // of each other instead of on a clean grid.
      if (rng_.Uniform(0, 1) < 0.5) {
        start += rng_.Uniform(-2.0, 2.0) * kTimeEps;
      }
      const Time len = rng_.Uniform(0, 1) < 0.2
                           ? rng_.Uniform(2.0, 10.0) * kTimeEps
                           : rng_.Uniform(0.005, 0.5);
      const CircuitReservation r{in, out, start, start + len, 0.0, 7};
      try {
        prt.Reserve(r);
      } catch (const CheckFailure&) {
        continue;  // overlap — expected for historical draws
      }
      oracle.Add(r);
      ++accepted;
      frontier[static_cast<std::size_t>(in)] =
          std::max(frontier[static_cast<std::size_t>(in)], r.end);
      frontier[static_cast<std::size_t>(out)] =
          std::max(frontier[static_cast<std::size_t>(out)], r.end);
    }
    ASSERT_GE(accepted, target) << "workload generator starved";
  }

  // One adversarial probe time: a reservation boundary, ±{0.5, 1, 2}ε off
  // one, or uniform over the horizon.
  Time ProbeTime(const std::vector<CircuitReservation>& all) {
    const double coin = rng_.Uniform(0, 1);
    if (coin < 0.6 && !all.empty()) {
      const auto& r =
          all[static_cast<std::size_t>(rng_.UniformInt(
              0, static_cast<int>(all.size()) - 1))];
      const Time base = rng_.Uniform(0, 1) < 0.5 ? r.start : r.end;
      static constexpr double kOffsets[] = {-2.0, -1.0, -0.5, 0.0,
                                            0.5,  1.0,  2.0};
      return base + kOffsets[rng_.UniformInt(0, 6)] * kTimeEps;
    }
    return rng_.Uniform(-1.0, 60.0);
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  PortId ports_;
  std::vector<Time> frontier_;
};

void CheckProbe(const PortReservationTable& prt, const Oracle& oracle,
                PortId in, PortId out, Time t) {
  using Side = PortReservationTable::Side;
  EXPECT_EQ(prt.FreeAt(Side::kIn, in, t), oracle.InputFreeAt(in, t))
      << "t=" << t;
  EXPECT_EQ(prt.FreeAt(Side::kOut, out, t), oracle.OutputFreeAt(out, t))
      << "t=" << t;
  EXPECT_EQ(prt.BusyUntil(Side::kIn, in, t), oracle.InputBusyUntil(in, t))
      << "t=" << t;
  EXPECT_EQ(prt.BusyUntil(Side::kOut, out, t), oracle.OutputBusyUntil(out, t))
      << "t=" << t;
  const auto got = prt.NextReservationAfter(in, out, t);
  const auto want = oracle.NextReservationAfter(in, out, t);
  EXPECT_EQ(got.start, want.start) << "t=" << t;
  EXPECT_EQ(got.release, want.release) << "t=" << t;
  EXPECT_EQ(prt.NextReleaseAfter(t), oracle.NextReleaseAfter(t)) << "t=" << t;
  EXPECT_EQ(prt.FirstReleaseAtOrAfter(t), oracle.FirstReleaseAtOrAfter(t))
      << "t=" << t;
  EXPECT_EQ(prt.LastReleaseBefore(t), oracle.LastReleaseBefore(t))
      << "t=" << t;
}

TEST(PrtProperty, MatchesBruteForceOracleOnAdversarialProbes) {
  constexpr PortId kPorts = 12;
  constexpr int kReservations = 12000;
  PortReservationTable prt(kPorts);
  Oracle oracle(kPorts);
  Workload workload(/*seed=*/20161212, kPorts);
  workload.Fill(prt, oracle, kReservations);
  prt.CheckInvariants();
  ASSERT_GE(prt.reservations().size(),
            static_cast<std::size_t>(kReservations));

  const auto& all = prt.reservations();
  Rng& rng = workload.rng();
  // Random probes: fresh port pair and adversarial time each round, with
  // occasional short monotone sweeps (the planner's forward pattern).
  for (int k = 0; k < 3000; ++k) {
    const auto in = static_cast<PortId>(rng.UniformInt(0, kPorts - 1));
    const auto out = static_cast<PortId>(rng.UniformInt(0, kPorts - 1));
    Time t = workload.ProbeTime(all);
    CheckProbe(prt, oracle, in, out, t);
    if (k % 5 == 0) {
      for (int step = 0; step < 4; ++step) {
        t = prt.NextReleaseAfter(t);
        if (t == kTimeInf) break;
        CheckProbe(prt, oracle, in, out, t);
      }
    }
  }
}

// The cursor must survive pathological probe sequences: strictly
// backward walks, repeats of the same instant, and alternation between
// the two ends of the horizon.
TEST(PrtProperty, CursorSurvivesBackwardAndRepeatedProbes) {
  constexpr PortId kPorts = 6;
  PortReservationTable prt(kPorts);
  Oracle oracle(kPorts);
  Workload workload(/*seed=*/7, kPorts);
  workload.Fill(prt, oracle, 2000);

  std::vector<Time> times;
  for (const auto& r : prt.reservations()) {
    times.push_back(r.start);
    times.push_back(r.end - kTimeEps);
  }
  std::sort(times.begin(), times.end());
  for (PortId p = 0; p < kPorts; ++p) {
    // Forward sweep, then strictly backward, then ping-pong.
    for (const Time t : times) CheckProbe(prt, oracle, p, p, t);
    for (auto it = times.rbegin(); it != times.rend(); ++it) {
      CheckProbe(prt, oracle, p, p, *it);
    }
    for (std::size_t k = 0; k < times.size(); k += 2) {
      CheckProbe(prt, oracle, p, p, times[k]);
      CheckProbe(prt, oracle, p, p, times[times.size() - 1 - k / 2]);
      CheckProbe(prt, oracle, p, p, times[k]);
    }
  }
}

// ---- K-plane fabric ------------------------------------------------------

// Brute-force reference for the K-plane fabric: one unordered interval
// list per (side, plane, port) answered by full scan, with the PRT's
// documented ε semantics. Release times stay global across planes — the
// planner's wakeup chain does not care which plane released a port.
class FabricOracle {
 public:
  using Side = FabricReservationTable::Side;

  FabricOracle(PortId ports, int planes)
      : ports_(ports),
        slots_{Timelines(static_cast<std::size_t>(planes) *
                         static_cast<std::size_t>(ports)),
               Timelines(static_cast<std::size_t>(planes) *
                         static_cast<std::size_t>(ports))} {}

  void Add(const CircuitReservation& r) {
    At(Side::kIn, r.plane, r.in).push_back({r.start, r.end});
    At(Side::kOut, r.plane, r.out).push_back({r.start, r.end});
    releases_.push_back(r.end);
  }

  bool FreeAt(Side side, PortId p, Time t, PlaneId plane) const {
    for (const auto& [s, e] : At(side, plane, p)) {
      if (s <= t && e > t + kTimeEps) return false;
    }
    return true;
  }

  Time BusyUntil(Side side, PortId p, Time t, PlaneId plane) const {
    for (const auto& [s, e] : At(side, plane, p)) {
      if (s <= t && e > t + kTimeEps) return e;
    }
    return t;
  }

  FabricReservationTable::NextReservation NextReservationAfter(
      PortId in, PortId out, Time t, PlaneId plane) const {
    const auto a = NextStartAfter(Side::kIn, plane, in, t);
    const auto b = NextStartAfter(Side::kOut, plane, out, t);
    if (a.start < b.start) return a;
    if (b.start < a.start) return b;
    return {a.start, std::max(a.release, b.release)};
  }

  Time NextReleaseAfter(Time t) const {
    Time best = kTimeInf;
    for (Time e : releases_)
      if (e > t + kTimeEps) best = std::min(best, e);
    return best;
  }

 private:
  using Timelines = std::vector<std::vector<std::pair<Time, Time>>>;

  const std::vector<std::pair<Time, Time>>& At(Side side, PlaneId plane,
                                               PortId p) const {
    return slots_[static_cast<std::size_t>(side)]
                 [static_cast<std::size_t>(plane) *
                      static_cast<std::size_t>(ports_) +
                  static_cast<std::size_t>(p)];
  }
  std::vector<std::pair<Time, Time>>& At(Side side, PlaneId plane, PortId p) {
    return const_cast<std::vector<std::pair<Time, Time>>&>(
        std::as_const(*this).At(side, plane, p));
  }

  FabricReservationTable::NextReservation NextStartAfter(Side side,
                                                         PlaneId plane,
                                                         PortId p,
                                                         Time t) const {
    FabricReservationTable::NextReservation best;
    for (const auto& [s, e] : At(side, plane, p)) {
      if (s > t && s < best.start) best = {s, e};
    }
    return best;
  }

  PortId ports_;
  Timelines slots_[2];
  std::vector<Time> releases_;
};

void CheckFabricProbe(const FabricReservationTable& prt,
                      const FabricOracle& oracle, PortId in, PortId out,
                      Time t, int num_planes) {
  using Side = FabricReservationTable::Side;
  for (PlaneId plane = 0; plane < num_planes; ++plane) {
    EXPECT_EQ(prt.FreeAt(Side::kIn, in, t, plane),
              oracle.FreeAt(Side::kIn, in, t, plane))
        << "t=" << t << " plane=" << plane;
    EXPECT_EQ(prt.FreeAt(Side::kOut, out, t, plane),
              oracle.FreeAt(Side::kOut, out, t, plane))
        << "t=" << t << " plane=" << plane;
    EXPECT_EQ(prt.BusyUntil(Side::kIn, in, t, plane),
              oracle.BusyUntil(Side::kIn, in, t, plane))
        << "t=" << t << " plane=" << plane;
    EXPECT_EQ(prt.BusyUntil(Side::kOut, out, t, plane),
              oracle.BusyUntil(Side::kOut, out, t, plane))
        << "t=" << t << " plane=" << plane;
    const auto got = prt.NextReservationAfter(in, out, t, plane);
    const auto want = oracle.NextReservationAfter(in, out, t, plane);
    EXPECT_EQ(got.start, want.start) << "t=" << t << " plane=" << plane;
    EXPECT_EQ(got.release, want.release) << "t=" << t << " plane=" << plane;
  }
  EXPECT_EQ(prt.NextReleaseAfter(t), oracle.NextReleaseAfter(t)) << "t=" << t;
}

// Randomized K=3 fill cross-checked against the plane-indexed oracle.
// Per-plane port frontiers keep each plane's append pattern realistic
// while planes stay mutually oblivious: the same port pair is routinely
// busy on one plane and free on another at the same instant.
TEST(PrtProperty, MultiPlaneMatchesBruteForceOracle) {
  constexpr PortId kPorts = 8;
  constexpr int kPlanes = 3;
  FabricReservationTable prt(kPorts, kPlanes);
  FabricOracle oracle(kPorts, kPlanes);
  Rng rng(20161212);
  std::vector<Time> frontier(static_cast<std::size_t>(kPlanes) * kPorts, 0.0);
  std::vector<CircuitReservation> all;
  int accepted = 0;
  int attempts = 0;
  while (accepted < 4000 && ++attempts < 200000) {
    const auto in = static_cast<PortId>(rng.UniformInt(0, kPorts - 1));
    const auto out = static_cast<PortId>(rng.UniformInt(0, kPorts - 1));
    const auto plane = static_cast<PlaneId>(rng.UniformInt(0, kPlanes - 1));
    const auto fi = static_cast<std::size_t>(plane) * kPorts;
    Time start;
    if (rng.Uniform(0, 1) < 0.7) {
      start = std::max(frontier[fi + static_cast<std::size_t>(in)],
                       frontier[fi + static_cast<std::size_t>(out)]) +
              rng.Uniform(0, 0.02);
    } else {
      start = rng.Uniform(0, 50.0);
    }
    if (rng.Uniform(0, 1) < 0.5) start += rng.Uniform(-2.0, 2.0) * kTimeEps;
    const Time len = rng.Uniform(0, 1) < 0.2
                         ? rng.Uniform(2.0, 10.0) * kTimeEps
                         : rng.Uniform(0.005, 0.5);
    const CircuitReservation r{in, out, start, start + len, 0.0, 7, plane};
    try {
      prt.Reserve(r);
    } catch (const CheckFailure&) {
      continue;  // overlap on this plane — expected for historical draws
    }
    oracle.Add(r);
    all.push_back(r);
    ++accepted;
    frontier[fi + static_cast<std::size_t>(in)] =
        std::max(frontier[fi + static_cast<std::size_t>(in)], r.end);
    frontier[fi + static_cast<std::size_t>(out)] =
        std::max(frontier[fi + static_cast<std::size_t>(out)], r.end);
  }
  ASSERT_GE(accepted, 4000) << "workload generator starved";
  prt.CheckInvariants();

  for (int k = 0; k < 1500; ++k) {
    const auto in = static_cast<PortId>(rng.UniformInt(0, kPorts - 1));
    const auto out = static_cast<PortId>(rng.UniformInt(0, kPorts - 1));
    Time t;
    if (rng.Uniform(0, 1) < 0.6) {
      const auto& r = all[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(all.size()) - 1))];
      static constexpr double kOffsets[] = {-2.0, -1.0, -0.5, 0.0,
                                            0.5,  1.0,  2.0};
      t = (rng.Uniform(0, 1) < 0.5 ? r.start : r.end) +
          kOffsets[rng.UniformInt(0, 6)] * kTimeEps;
    } else {
      t = rng.Uniform(-1.0, 60.0);
    }
    CheckFabricProbe(prt, oracle, in, out, t, kPlanes);
  }
}

// Plane-exclusivity is a property of the table itself: one (port pair,
// window) can be reserved once per plane — the K-th duplicate on a fresh
// plane is accepted, any duplicate on an occupied plane throws. Backward
// and ping-pong probe sweeps then alternate across planes so each
// (side, plane, port) cursor is advanced, invalidated and re-seated
// independently of its siblings.
TEST(PrtProperty, PlaneExclusivityAndPerPlaneCursorReseat) {
  using Side = FabricReservationTable::Side;
  constexpr PortId kPorts = 4;
  constexpr int kPlanes = 4;
  FabricReservationTable prt(kPorts, kPlanes);
  FabricOracle oracle(kPorts, kPlanes);

  // The same window lands on every plane of the same port pair.
  std::vector<Time> boundaries;
  for (int w = 0; w < 64; ++w) {
    const Time start = 0.1 * w;
    const Time end = start + 0.08;
    for (PlaneId plane = 0; plane < kPlanes; ++plane) {
      const CircuitReservation r{static_cast<PortId>(w % kPorts),
                                 static_cast<PortId>((w + 1) % kPorts),
                                 start,
                                 end,
                                 0.0,
                                 static_cast<CoflowId>(w),
                                 plane};
      prt.Reserve(r);  // must not throw: planes are independent
      oracle.Add(r);
      // Re-reserving the occupied plane must be rejected...
      EXPECT_THROW(prt.Reserve(r), CheckFailure);
      // ...and must not have half-applied: the probe state is unchanged.
      EXPECT_FALSE(prt.FreeAt(Side::kIn, r.in, start, plane));
    }
    boundaries.push_back(start);
    boundaries.push_back(end - kTimeEps);
  }
  prt.CheckInvariants();

  std::sort(boundaries.begin(), boundaries.end());
  for (PortId p = 0; p < kPorts; ++p) {
    // Forward sweep on every plane, then strictly backward, then
    // ping-pong — alternating planes at every probe so no cursor can
    // coast on a neighbouring plane's progress.
    for (const Time t : boundaries) {
      CheckFabricProbe(prt, oracle, p, p, t, kPlanes);
    }
    for (auto it = boundaries.rbegin(); it != boundaries.rend(); ++it) {
      CheckFabricProbe(prt, oracle, p, p, *it, kPlanes);
    }
    for (std::size_t k = 0; k < boundaries.size(); k += 2) {
      CheckFabricProbe(prt, oracle, p, p, boundaries[k], kPlanes);
      CheckFabricProbe(prt, oracle, p, p,
                       boundaries[boundaries.size() - 1 - k / 2], kPlanes);
    }
  }
}

// Interleaving probes with inserts re-validates the cursor adjustment on
// mid-vector insertion (slots shifting under a live cursor).
TEST(PrtProperty, ProbesInterleavedWithInserts) {
  constexpr PortId kPorts = 8;
  PortReservationTable prt(kPorts);
  Oracle oracle(kPorts);
  Workload workload(/*seed=*/99, kPorts);
  Rng& rng = workload.rng();
  for (int round = 0; round < 40; ++round) {
    workload.Fill(prt, oracle, 100);
    const auto& all = prt.reservations();
    for (int k = 0; k < 50; ++k) {
      const auto in = static_cast<PortId>(rng.UniformInt(0, kPorts - 1));
      const auto out = static_cast<PortId>(rng.UniformInt(0, kPorts - 1));
      CheckProbe(prt, oracle, in, out, workload.ProbeTime(all));
    }
  }
  prt.CheckInvariants();
}

}  // namespace
}  // namespace sunflow
