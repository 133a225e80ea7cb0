#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/assert.h"
#include "common/rng.h"
#include "core/sunflow.h"
#include "exp/classify.h"
#include "sched/kcore.h"
#include "trace/bounds.h"
#include "trace/coflow.h"
#include "trace/demand_matrix.h"
#include "trace/generator.h"
#include "trace/idleness.h"

#include "trace/parser.h"

namespace sunflow {
namespace {

Coflow MakeM2M() {
  // 2 senders x 2 receivers, distinct sizes.
  return Coflow(1, 0.0,
                {{0, 2, MB(10)}, {0, 3, MB(20)}, {1, 2, MB(30)}, {1, 3, MB(5)}});
}

TEST(Coflow, Aggregates) {
  const Coflow c = MakeM2M();
  EXPECT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c.total_bytes(), MB(65));
  EXPECT_EQ(c.category(), CoflowCategory::kManyToMany);
  EXPECT_EQ(c.max_port(), 4);
  EXPECT_DOUBLE_EQ(c.min_flow_bytes(), MB(5));
}

TEST(Coflow, Categories) {
  EXPECT_EQ(Coflow(1, 0, {{0, 1, 1}}).category(), CoflowCategory::kOneToOne);
  EXPECT_EQ(Coflow(2, 0, {{0, 1, 1}, {0, 2, 1}}).category(),
            CoflowCategory::kOneToMany);
  EXPECT_EQ(Coflow(3, 0, {{0, 2, 1}, {1, 2, 1}}).category(),
            CoflowCategory::kManyToOne);
  EXPECT_EQ(MakeM2M().category(), CoflowCategory::kManyToMany);
}

TEST(Coflow, SelfLoopFlowAllowed) {
  // in.i -> out.i is a valid circuit (distinct directions of one port).
  const Coflow c(1, 0, {{2, 2, MB(1)}});
  EXPECT_EQ(c.category(), CoflowCategory::kOneToOne);
}

TEST(Coflow, RejectsDuplicatePairs) {
  EXPECT_THROW(Coflow(1, 0, {{0, 1, 1}, {0, 1, 2}}), CheckFailure);
}

TEST(Coflow, RejectsNonPositiveBytes) {
  EXPECT_THROW(Coflow(1, 0, {{0, 1, 0}}), CheckFailure);
}

TEST(Coflow, RejectsNonFiniteBytesAndArrival) {
  EXPECT_THROW(Coflow(1, 0, {{0, 1, INFINITY}}), CheckFailure);
  EXPECT_THROW(Coflow(1, 0, {{0, 1, NAN}}), CheckFailure);
  EXPECT_THROW(Coflow(1, INFINITY, {{0, 1, 1}}), CheckFailure);
  EXPECT_THROW(Coflow(1, NAN, {{0, 1, 1}}), CheckFailure);
  EXPECT_THROW(Coflow(1, 0, {{0, 1, 1e308}, {0, 2, 1e308}}), CheckFailure);
}

TEST(Coflow, ScaledBytesPreservesStructure) {
  const Coflow c = MakeM2M();
  const Coflow s = c.ScaledBytes(2.0);
  EXPECT_EQ(s.size(), c.size());
  EXPECT_DOUBLE_EQ(s.total_bytes(), 2 * c.total_bytes());
  EXPECT_EQ(s.category(), c.category());
}

TEST(Bounds, PacketLowerBoundIsBusiestPort) {
  const Coflow c = MakeM2M();
  const Bandwidth b = Gbps(1);
  // in.0: 30 MB, in.1: 35 MB, out.2: 40 MB, out.3: 25 MB -> 40 MB.
  EXPECT_DOUBLE_EQ(PacketLowerBound(c, b), MB(40) / b);
}

TEST(Bounds, CircuitLowerBoundAddsDeltaPerFlow) {
  const Coflow c = MakeM2M();
  const Bandwidth b = Gbps(1);
  const Time d = Millis(10);
  // Every port carries two flows: busiest port is out.2 with 40 MB + 2δ.
  EXPECT_DOUBLE_EQ(CircuitLowerBound(c, b, d), MB(40) / b + 2 * d);
}

TEST(Bounds, CircuitBoundReducesToPacketWhenDeltaZero) {
  const Coflow c = MakeM2M();
  EXPECT_DOUBLE_EQ(CircuitLowerBound(c, Gbps(1), 0),
                   PacketLowerBound(c, Gbps(1)));
}

TEST(Bounds, LemmaTwoAlpha) {
  const Coflow c = MakeM2M();
  const Bandwidth b = Gbps(1);
  EXPECT_DOUBLE_EQ(LemmaTwoAlpha(c, b, Millis(10)),
                   Millis(10) / (MB(5) / b));
}

TEST(DemandMatrix, BuildsOverActivePorts) {
  const Coflow c(1, 0, {{5, 9, MB(10)}, {7, 9, MB(20)}});
  DemandMatrix m(c, Gbps(1));
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 1);
  EXPECT_EQ(m.InPort(0), 5);
  EXPECT_EQ(m.InPort(1), 7);
  EXPECT_EQ(m.OutPort(0), 9);
  EXPECT_DOUBLE_EQ(m.at(0, 0), MB(10) / Gbps(1));
  EXPECT_DOUBLE_EQ(m.at(1, 0), MB(20) / Gbps(1));
}

TEST(DemandMatrix, MakeSquarePadsWithDummyPorts) {
  const Coflow c(1, 0, {{5, 9, MB(10)}, {7, 9, MB(20)}});
  DemandMatrix m(c, Gbps(1));
  m.MakeSquare();
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.OutPort(1), -1);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(DemandMatrix, LineSums) {
  DemandMatrix m({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m.RowSum(0), 3);
  EXPECT_DOUBLE_EQ(m.ColSum(1), 6);
  EXPECT_DOUBLE_EQ(m.MaxRowSum(), 7);
  EXPECT_DOUBLE_EQ(m.MaxColSum(), 6);
  EXPECT_DOUBLE_EQ(m.MaxLineSum(), 7);
  EXPECT_DOUBLE_EQ(m.Total(), 10);
}

TEST(Parser, ParsesBenchmarkFormat) {
  std::istringstream in(
      "150 2\n"
      "1 100 2 1 2 1 3:10\n"
      "2 250 1 5 2 6:4 7:2\n");
  const Trace trace = ParseCoflowBenchmark(in);
  EXPECT_EQ(trace.num_ports, 150);
  ASSERT_EQ(trace.coflows.size(), 2u);

  const Coflow& c1 = trace.coflows[0];
  EXPECT_EQ(c1.id(), 1);
  EXPECT_DOUBLE_EQ(c1.arrival(), 0.1);
  // 2 mappers x 1 reducer; 10 MB split across 2 mappers = 5 MB each.
  EXPECT_EQ(c1.size(), 2u);
  EXPECT_DOUBLE_EQ(c1.total_bytes(), MB(10));
  EXPECT_EQ(c1.category(), CoflowCategory::kManyToOne);

  const Coflow& c2 = trace.coflows[1];
  EXPECT_EQ(c2.size(), 2u);
  EXPECT_EQ(c2.category(), CoflowCategory::kOneToMany);
  EXPECT_DOUBLE_EQ(c2.total_bytes(), MB(6));
}

TEST(Parser, SortsByArrival) {
  std::istringstream in(
      "10 2\n"
      "1 500 1 1 1 2:1\n"
      "2 100 1 3 1 4:1\n");
  const Trace trace = ParseCoflowBenchmark(in);
  EXPECT_EQ(trace.coflows[0].id(), 2);
  EXPECT_EQ(trace.coflows[1].id(), 1);
}

TEST(Parser, MergesDuplicateRacks) {
  // The same reducer rack twice: demand must be aggregated.
  std::istringstream in(
      "10 1\n"
      "1 0 1 1 2 2:3 2:4\n");
  const Trace trace = ParseCoflowBenchmark(in);
  ASSERT_EQ(trace.coflows[0].size(), 1u);
  EXPECT_DOUBLE_EQ(trace.coflows[0].total_bytes(), MB(7));
}

TEST(Parser, RejectsBadInput) {
  std::istringstream empty("");
  EXPECT_THROW(ParseCoflowBenchmark(empty), std::runtime_error);
  std::istringstream bad_port(
      "4 1\n"
      "1 0 1 9 1 2:1\n");
  EXPECT_THROW(ParseCoflowBenchmark(bad_port), std::runtime_error);
  std::istringstream bad_token(
      "4 1\n"
      "1 0 1 1 1 2-1\n");
  EXPECT_THROW(ParseCoflowBenchmark(bad_token), std::runtime_error);
}

// Distinct senders (`Flow::src`) or receivers (`Flow::dst`) of a coflow.
std::size_t DistinctPorts(const Coflow& c, PortId Flow::*side) {
  std::set<PortId> ports;
  for (const Flow& f : c.flows()) ports.insert(f.*side);
  return ports.size();
}

TEST(Parser, RoundTripsThroughWriter) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 20;
  cfg.num_ports = 30;
  const Trace original = GenerateSyntheticTrace(cfg);

  std::ostringstream out;
  WriteCoflowBenchmark(out, original);
  std::istringstream in(out.str());
  const Trace parsed = ParseCoflowBenchmark(in);

  EXPECT_EQ(parsed.num_ports, original.num_ports);
  ASSERT_EQ(parsed.coflows.size(), original.coflows.size());
  // Arrivals agree to ms rounding; byte totals to the writer's per-reducer
  // MB rounding (bounded by 0.5 MB per distinct destination port).
  for (std::size_t i = 0; i < parsed.coflows.size(); ++i) {
    const Coflow& a = original.coflows[i];
    const Coflow& b = parsed.coflows[i];
    EXPECT_NEAR(b.arrival(), a.arrival(), 1e-3);
    EXPECT_EQ(DistinctPorts(b, &Flow::src), DistinctPorts(a, &Flow::src));
    EXPECT_EQ(DistinctPorts(b, &Flow::dst), DistinctPorts(a, &Flow::dst));
    EXPECT_NEAR(b.total_bytes(), a.total_bytes(),
                MB(0.5) * DistinctPorts(a, &Flow::dst) + 1);
  }
}

TEST(Generator, DeterministicPerSeed) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 50;
  const Trace a = GenerateSyntheticTrace(cfg);
  const Trace b = GenerateSyntheticTrace(cfg);
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_EQ(a.coflows[i].flows(), b.coflows[i].flows());
    EXPECT_DOUBLE_EQ(a.coflows[i].arrival(), b.coflows[i].arrival());
  }
}

TEST(Generator, MatchesRequestedShape) {
  SyntheticTraceConfig cfg;
  const Trace trace = GenerateSyntheticTrace(cfg);
  EXPECT_EQ(trace.num_ports, 150);
  EXPECT_EQ(trace.coflows.size(), 526u);
  // Flow sizes are MB-rounded with a 1 MB floor.
  for (const auto& c : trace.coflows) {
    for (const auto& f : c.flows()) {
      EXPECT_GE(f.bytes, MB(1) - 1);
      EXPECT_NEAR(f.bytes / 1e6, std::round(f.bytes / 1e6), 1e-9);
    }
  }
}

TEST(Generator, CategoryMixNearTable4) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 2000;  // enough samples to test the mix
  const Trace trace = GenerateSyntheticTrace(cfg);
  const auto breakdown = sunflow::exp::ClassifyTrace(trace);
  EXPECT_NEAR(breakdown[0].coflow_fraction, 0.234, 0.05);  // O2O
  EXPECT_NEAR(breakdown[1].coflow_fraction, 0.099, 0.05);  // O2M
  EXPECT_NEAR(breakdown[2].coflow_fraction, 0.401, 0.05);  // M2O
  EXPECT_NEAR(breakdown[3].coflow_fraction, 0.266, 0.05);  // M2M
  // Table 4: M2M carries ~99.9% of bytes.
  EXPECT_GT(breakdown[3].byte_fraction, 0.95);
}

TEST(Generator, PerturbationStaysWithinBand) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 50;
  const Trace base = GenerateSyntheticTrace(cfg);
  const Trace perturbed = PerturbFlowSizes(base, 0.05, MB(1), 99);
  ASSERT_EQ(perturbed.coflows.size(), base.coflows.size());
  for (std::size_t i = 0; i < base.coflows.size(); ++i) {
    const auto& bf = base.coflows[i].flows();
    const auto& pf = perturbed.coflows[i].flows();
    ASSERT_EQ(bf.size(), pf.size());
    for (std::size_t k = 0; k < bf.size(); ++k) {
      EXPECT_GE(pf[k].bytes, MB(1));
      EXPECT_LE(pf[k].bytes, bf[k].bytes * 1.0501);
      EXPECT_GE(pf[k].bytes, std::min(MB(1), bf[k].bytes * 0.9499));
    }
  }
}

TEST(Idleness, FullyIdleBetweenBursts) {
  Trace trace;
  trace.num_ports = 4;
  // Two 1-second coflows (8 MB at 1 Gbps ≈ 0.064 s)... use explicit sizes:
  // TpL = bytes / B. 125 MB at 1 Gbps = 1 s.
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(125)}}));
  trace.coflows.push_back(Coflow(2, 3.0, {{2, 3, MB(125)}}));
  // Active: [0,1) and [3,4): busy 2 s of 4 s horizon -> idleness 0.5.
  EXPECT_NEAR(NetworkIdleness(trace, Gbps(1)), 0.5, 1e-9);
}

TEST(Idleness, ScalingHitsTarget) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 80;
  const Trace trace = GenerateSyntheticTrace(cfg);
  for (double target : {0.2, 0.4, 0.8}) {
    const auto scaled = ScaleTraceToIdleness(trace, Gbps(1), target, 0.01);
    EXPECT_NEAR(scaled.achieved_idleness, target, 0.02);
    // Structure preserved.
    EXPECT_EQ(scaled.trace.coflows.size(), trace.coflows.size());
  }
}

TEST(Idleness, MonotoneInByteFactor) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 40;
  const Trace trace = GenerateSyntheticTrace(cfg);
  const double idle1 = NetworkIdleness(ScaleTraceBytes(trace, 0.5), Gbps(1));
  const double idle2 = NetworkIdleness(ScaleTraceBytes(trace, 2.0), Gbps(1));
  EXPECT_GE(idle1, idle2);
}

TEST(Classify, Table4Shares) {
  Trace trace;
  trace.num_ports = 8;
  trace.coflows.push_back(Coflow(1, 0, {{0, 1, MB(1)}}));               // O2O
  trace.coflows.push_back(Coflow(2, 1, {{0, 1, MB(1)}, {0, 2, MB(1)}}));  // O2M
  trace.coflows.push_back(
      Coflow(3, 2, {{0, 2, MB(4)}, {1, 2, MB(4)}}));  // M2O
  trace.coflows.push_back(Coflow(
      4, 3, {{0, 2, MB(5)}, {0, 3, MB(5)}, {1, 2, MB(5)}, {1, 3, MB(5)}}));
  const auto b = sunflow::exp::ClassifyTrace(trace);
  EXPECT_DOUBLE_EQ(b[0].coflow_fraction, 0.25);
  EXPECT_DOUBLE_EQ(b[1].coflow_fraction, 0.25);
  EXPECT_DOUBLE_EQ(b[2].coflow_fraction, 0.25);
  EXPECT_DOUBLE_EQ(b[3].coflow_fraction, 0.25);
  EXPECT_DOUBLE_EQ(b[3].byte_fraction, 20.0 / 31.0);
}

TEST(Generator, DefaultCalibrationMatchesPaperWorkload) {
  // Locks the DESIGN.md §4.1 calibration: the default synthetic trace must
  // keep matching the paper's published workload statistics. A change to
  // the generator that silently shifts these shifts every experiment.
  SyntheticTraceConfig cfg;  // paper-scale defaults
  const Trace trace =
      PerturbFlowSizes(GenerateSyntheticTrace(cfg), 0.05, MB(1), cfg.seed + 1);
  // Network idleness at 1 Gbps: paper 12%.
  EXPECT_NEAR(NetworkIdleness(trace, Gbps(1)), 0.12, 0.03);
  // M2M byte share: paper 99.94%.
  const auto breakdown = sunflow::exp::ClassifyTrace(trace);
  EXPECT_GT(breakdown[3].byte_fraction, 0.97);
  // Long coflows (avg subflow >= 5 MB): paper 25.2% of coflows, 98.8% of
  // bytes.
  int long_count = 0;
  Bytes long_bytes = 0, total = 0;
  for (const Coflow& c : trace.coflows) {
    total += c.total_bytes();
    if (c.total_bytes() / static_cast<double>(c.size()) >= MB(5)) {
      ++long_count;
      long_bytes += c.total_bytes();
    }
  }
  const double long_frac =
      static_cast<double>(long_count) / static_cast<double>(trace.coflows.size());
  EXPECT_NEAR(long_frac, 0.252, 0.04);
  EXPECT_GT(long_bytes / total, 0.97);
  // Lemma-2 alpha: min flow is 1 MB at 1 Gbps with delta 10 ms -> 1.25.
  Bytes min_flow = kTimeInf;
  for (const Coflow& c : trace.coflows)
    min_flow = std::min(min_flow, c.min_flow_bytes());
  EXPECT_NEAR(Millis(10) / (min_flow / Gbps(1)), 1.25, 0.01);
}

TEST(TraceValidate, CatchesPortOverflow) {
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0, {{0, 5, MB(1)}}));
  EXPECT_THROW(trace.Validate(), CheckFailure);
}

TEST(TraceValidate, CatchesUnsortedArrivals) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 5.0, {{0, 1, MB(1)}}));
  trace.coflows.push_back(Coflow(2, 1.0, {{2, 3, MB(1)}}));
  EXPECT_THROW(trace.Validate(), CheckFailure);
}

TEST(TraceValidate, CatchesNegativeArrival) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, -0.5, {{0, 1, MB(1)}}));
  EXPECT_THROW(trace.Validate(), CheckFailure);
}

TEST(Parser, RejectsNegativeReducerSize) {
  std::istringstream in(
      "4 1\n"
      "1 0 1 1 1 2:-5\n");
  EXPECT_THROW(ParseCoflowBenchmark(in), std::runtime_error);
}

TEST(Parser, RejectsDuplicateCoflowIds) {
  std::istringstream in(
      "4 2\n"
      "7 0 1 1 1 2:1\n"
      "7 100 1 3 1 4:1\n");
  try {
    ParseCoflowBenchmark(in);
    FAIL() << "duplicate id must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate coflow id 7"),
              std::string::npos)
        << e.what();
  }
}

TEST(Parser, RejectsTruncatedLine) {
  // Reducer count promises two tokens; the line ends after one.
  std::istringstream in(
      "4 1\n"
      "1 0 1 1 2 2:1\n");
  try {
    ParseCoflowBenchmark(in);
    FAIL() << "truncated line must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing reducer token"),
              std::string::npos)
        << e.what();
  }
}

TEST(Parser, ErrorsNameSourceAndLine) {
  std::istringstream in(
      "4 1\n"
      "1 0 1 1 1 2:0\n");
  try {
    ParseCoflowBenchmark(in, "fb-trace.txt");
    FAIL() << "zero-size reducer must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fb-trace.txt"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

// Expects `text` to be rejected with the parser's located error.
void ExpectParseErrorAt(const std::string& text, int line) {
  std::istringstream in(text);
  try {
    ParseCoflowBenchmark(in, "bad.txt");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string want =
        "parse error in bad.txt at line " + std::to_string(line);
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(Parser, RejectsNonFiniteReducerSize) {
  ExpectParseErrorAt("4 1\n1 0 1 1 1 2:inf\n", 2);
  ExpectParseErrorAt("4 1\n1 0 1 1 1 2:nan\n", 2);
  ExpectParseErrorAt("4 1\n1 0 1 1 1 2:1e305\n", 2);  // inf once in bytes
}

TEST(Parser, RejectsPortCountAboveInt32Max) {
  // 2^32 + 1 used to wrap to a valid 1-port fabric.
  ExpectParseErrorAt("4294967297 1\n1 0 1 1 1 1:1\n", 1);
}

TEST(Parser, DoesNotReserveFromTheHeaderCoflowCount) {
  std::istringstream in("4 99999999999999\n1 0 1 1 1 2:1\n");
  const Trace trace = ParseCoflowBenchmark(in);
  EXPECT_EQ(trace.coflows.size(), 1u);
}

TEST(Parser, FileErrorsNameThePath) {
  const std::string path = testing::TempDir() + "/malformed_trace.txt";
  std::ofstream(path) << "4 1\n1 0 1 99 1 2:1\n";  // mapper rack beyond fabric
  try {
    ParseCoflowBenchmarkFile(path);
    FAIL() << "bad mapper rack must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "parse error should carry the file path: " << e.what();
  }
  std::remove(path.c_str());
}

// ---- The flat Coflow checks and per-port sums against the std::set and
// std::map code they replaced. Validation must reject the same flow with the
// same reason text; every aggregate, bound and matrix entry must be equal
// bit for bit, because each port still sums its flows in list order.

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The reason text (after " — ") of the CheckFailure `f` throws, or "".
std::string Reason(const std::function<void()>& f) {
  try {
    f();
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    const std::string sep = " — ";
    return what.substr(what.find(sep) + sep.size());
  }
  return "";
}

struct ReferenceCoflow {
  std::string rejection;  ///< reason text of the failing check, "" if valid
  Bytes total_bytes = 0;
  PortId max_port = 0;
  CoflowCategory category = CoflowCategory::kOneToOne;
};

/// The Coflow constructor's per-flow checks and aggregates over std::sets.
ReferenceCoflow ReferenceValidate(CoflowId id, const std::vector<Flow>& flows) {
  ReferenceCoflow ref;
  std::set<PortId> senders, receivers;
  std::set<std::pair<PortId, PortId>> pairs;
  std::ostringstream why;
  for (const Flow& f : flows) {
    if (!(f.src >= 0 && f.dst >= 0)) {
      why << "negative port in coflow " << id;
    } else if (!(f.bytes > 0 && std::isfinite(f.bytes))) {
      why << "non-positive or non-finite flow size in coflow " << id;
    } else if (!pairs.insert({f.src, f.dst}).second) {
      why << "duplicate (src,dst)=(" << f.src << "," << f.dst
          << ") in coflow " << id;
    }
    if (!why.str().empty()) break;
    senders.insert(f.src);
    receivers.insert(f.dst);
    ref.total_bytes += f.bytes;
    ref.max_port = std::max({ref.max_port, f.src + 1, f.dst + 1});
  }
  if (why.str().empty() && !std::isfinite(ref.total_bytes))
    why << "non-finite total size in coflow " << id;
  ref.rejection = why.str();
  const bool one_sender = senders.size() == 1;
  const bool one_receiver = receivers.size() == 1;
  ref.category = one_sender && one_receiver ? CoflowCategory::kOneToOne
                 : one_sender               ? CoflowCategory::kOneToMany
                 : one_receiver             ? CoflowCategory::kManyToOne
                                            : CoflowCategory::kManyToMany;
  return ref;
}

/// Max over ports of summed cost(f), each port's sum kept in a std::map.
template <typename Flows, typename CostFn>
Time ReferenceMaxPortLoad(const Flows& flows, CostFn cost) {
  std::map<PortId, Time> in_load, out_load;
  for (const auto& f : flows) {
    const Time c = cost(f);
    in_load[f.src] += c;
    out_load[f.dst] += c;
  }
  Time best = 0;
  for (const auto& [p, v] : in_load) best = std::max(best, v);
  for (const auto& [p, v] : out_load) best = std::max(best, v);
  return best;
}

/// DemandMatrix(coflow, bandwidth) with its port maps in std::maps.
struct ReferenceMatrix {
  std::vector<PortId> in_ports, out_ports;
  std::vector<std::vector<Time>> m;
};
ReferenceMatrix ReferenceDemandMatrix(const Coflow& coflow, Bandwidth b) {
  std::map<PortId, int> in_index, out_index;
  for (const Flow& f : coflow.flows()) {
    in_index.emplace(f.src, 0);
    out_index.emplace(f.dst, 0);
  }
  ReferenceMatrix ref;
  for (auto& [port, idx] : in_index) {
    idx = static_cast<int>(ref.in_ports.size());
    ref.in_ports.push_back(port);
  }
  for (auto& [port, idx] : out_index) {
    idx = static_cast<int>(ref.out_ports.size());
    ref.out_ports.push_back(port);
  }
  ref.m.assign(in_index.size(), std::vector<Time>(out_index.size(), 0));
  for (const Flow& f : coflow.flows())
    ref.m[in_index[f.src]][out_index[f.dst]] = f.bytes / b;
  return ref;
}

/// 0–400 flows on distinct pairs of 1–40 ports (a quarter of the lists on
/// high ports only), sizes over 13 decades so each port's sum depends on
/// its order. When `malformed`, each at a random position: 0–3 flows that
/// repeat a pair, and often one flow with a negative port or a zero,
/// negative or non-finite size.
std::vector<Flow> RandomFlowList(Rng& rng, bool malformed) {
  const auto ports = static_cast<PortId>(rng.UniformInt(1, 40));
  const auto base = static_cast<PortId>(
      rng.UniformInt(0, 3) == 0 ? rng.UniformInt(100, 5000) : 0);
  std::vector<std::pair<PortId, PortId>> pairs;
  for (PortId s = 0; s < ports; ++s)
    for (PortId d = 0; d < ports; ++d) pairs.emplace_back(base + s, base + d);
  const auto n = static_cast<std::size_t>(std::min<std::int64_t>(
      rng.UniformInt(0, 400), static_cast<std::int64_t>(pairs.size())));
  auto size = [&] { return std::exp(rng.Uniform(0, 30)); };
  auto at = [&](const std::vector<Flow>& v) {
    return v.begin() + rng.UniformInt(0, static_cast<std::int64_t>(v.size()));
  };
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = i + static_cast<std::size_t>(rng.UniformInt(
                           0, static_cast<std::int64_t>(pairs.size() - i - 1)));
    std::swap(pairs[i], pairs[j]);
    flows.push_back({pairs[i].first, pairs[i].second, size()});
  }
  if (!malformed) return flows;
  for (std::int64_t r = rng.UniformInt(0, 3); r > 0 && !flows.empty(); --r) {
    Flow repeat = flows[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(flows.size()) - 1))];
    repeat.bytes = size();
    flows.insert(at(flows), repeat);
  }
  Flow bad{base + static_cast<PortId>(rng.UniformInt(0, ports - 1)),
           base + static_cast<PortId>(rng.UniformInt(0, ports - 1)), size()};
  switch (rng.UniformInt(0, 9)) {
    case 0: bad.src = -static_cast<PortId>(rng.UniformInt(1, 70)); break;
    case 1: bad.dst = -1; break;
    case 2: bad.bytes = 0; break;
    case 3: bad.bytes = -bad.bytes; break;
    case 4: bad.bytes = std::numeric_limits<double>::infinity(); break;
    case 5: bad.bytes = std::numeric_limits<double>::quiet_NaN(); break;
    default: return flows;
  }
  flows.insert(at(flows), bad);
  return flows;
}

TEST(Coflow, ValidationMatchesSetReference) {
  Rng rng(2016);
  std::map<std::string, int> seen;  // reason kind -> lists
  for (int trial = 0; trial < 4000; ++trial) {
    const std::vector<Flow> flows = RandomFlowList(rng, /*malformed=*/true);
    const ReferenceCoflow want = ReferenceValidate(trial, flows);
    ++seen[want.rejection.substr(0, want.rejection.find(' '))];
    const std::string got = Reason([&] {
      const Coflow c(trial, 0, flows);
      EXPECT_EQ(Bits(c.total_bytes()), Bits(want.total_bytes)) << trial;
      EXPECT_EQ(c.max_port(), want.max_port) << trial;
      if (!flows.empty()) {
        EXPECT_EQ(c.category(), want.category) << trial;
      }
    });
    ASSERT_EQ(got, want.rejection) << "trial " << trial;
  }
  // Every outcome occurs often enough to catch a reordered check.
  for (const char* kind : {"", "duplicate", "negative", "non-positive"})
    EXPECT_GT(seen[kind], 200) << "'" << kind << "'";
}

TEST(Bounds, PerPortSumsMatchMapReference) {
  Rng rng(1603);
  for (int trial = 0; trial < 1000; ++trial) {
    const Coflow c(trial, 0, RandomFlowList(rng, /*malformed=*/false));
    const Bandwidth b = Gbps(rng.Uniform(0.1, 100));
    const Time delta = rng.Uniform(0, 0.1);
    EXPECT_EQ(Bits(PacketLowerBound(c, b)),
              Bits(ReferenceMaxPortLoad(
                  c.flows(), [&](const Flow& f) { return f.bytes / b; })))
        << trial;
    EXPECT_EQ(Bits(CircuitLowerBound(c, b, delta)),
              Bits(ReferenceMaxPortLoad(c.flows(), [&](const Flow& f) {
                return f.bytes / b + delta;
              })))
        << trial;
    const PlanRequest req = PlanRequest::FromCoflow(c, b);
    EXPECT_EQ(Bits(BottleneckProcessing(req)),
              Bits(ReferenceMaxPortLoad(req.demand, [](const FlowDemand& f) {
                return f.processing;
              })))
        << trial;
  }
}

TEST(DemandMatrix, MatchesMapReference) {
  Rng rng(526);
  for (int trial = 0; trial < 1000; ++trial) {
    const Coflow c(trial, 0, RandomFlowList(rng, /*malformed=*/false));
    const Bandwidth b = Gbps(rng.Uniform(0.1, 100));
    const DemandMatrix got(c, b);
    const ReferenceMatrix want = ReferenceDemandMatrix(c, b);
    ASSERT_EQ(static_cast<std::size_t>(got.rows()), want.in_ports.size());
    ASSERT_EQ(static_cast<std::size_t>(got.cols()), want.out_ports.size());
    for (int r = 0; r < got.rows(); ++r)
      EXPECT_EQ(got.InPort(r), want.in_ports[r]);
    for (int col = 0; col < got.cols(); ++col)
      EXPECT_EQ(got.OutPort(col), want.out_ports[col]);
    for (int r = 0; r < got.rows(); ++r)
      for (int col = 0; col < got.cols(); ++col)
        EXPECT_EQ(Bits(got.at(r, col)), Bits(want.m[r][col])) << trial;
  }
}

}  // namespace
}  // namespace sunflow
