// Tests for src/obs: trace sinks, JSONL/Chrome exporters, the metrics
// registry, and the instrumentation contracts of core/sched/sim (event
// ordering, disabled-tracer no-op, setup counts matching
// ExecutionResult::circuit_setups).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/admission.h"
#include "core/policy.h"
#include "core/sunflow.h"
#include "exp/csv_export.h"
#include "exp/intra_runner.h"
#include "obs/chrome_trace.h"
#include "obs/event.h"
#include "obs/json.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sched/executor.h"
#include "sched/schedule.h"
#include "sim/engine/scenario.h"
#include "trace/coflow.h"
#include "trace/demand_matrix.h"

namespace sunflow {
namespace {

using obs::Event;
using obs::EventType;
using obs::MemorySink;

// ---------------------------------------------------------------------------
// A minimal JSON well-formedness checker, enough to validate the Chrome
// exporter's output without a JSON library: strings with escapes, numbers,
// literals, arrays, objects.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(s_[pos_])) return false;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(s_[pos_]) || s_[pos_] == '.' || s_[pos_] == 'e' ||
            s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::size_t CountDeltaSetups(const std::vector<Event>& events) {
  std::size_t n = 0;
  for (const Event& e : events) {
    if (e.type == EventType::kCircuitSetup && e.value > 0) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Event type names.

TEST(ObsEvent, TypeNamesRoundTrip) {
  for (int i = 0; i < obs::kNumEventTypes; ++i) {
    const auto type = static_cast<EventType>(i);
    EventType back = EventType::kCircuitSetup;
    ASSERT_TRUE(obs::EventTypeFromString(obs::ToString(type), back))
        << obs::ToString(type);
    EXPECT_EQ(back, type);
  }
  EventType out;
  EXPECT_FALSE(obs::EventTypeFromString("NoSuchEvent", out));
  EXPECT_FALSE(obs::EventTypeFromString("", out));
}

// ---------------------------------------------------------------------------
// Sinks.

TEST(ObsSink, EmitToNullSinkIsNoOp) {
  // The zero-cost-when-disabled contract: a null sink is simply skipped.
  obs::Emit(nullptr, {.type = EventType::kCircuitSetup, .t = 1.0});
}

TEST(ObsSink, MemorySinkBuffersInOrder) {
  MemorySink sink;
  obs::Emit(&sink, {.type = EventType::kCoflowAdmitted, .t = 1.0, .coflow = 7});
  obs::Emit(&sink, {.type = EventType::kCircuitSetup, .t = 2.0, .in = 3});
  obs::Emit(&sink, {.type = EventType::kCircuitSetup, .t = 3.0, .in = 4});
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].coflow, 7);
  EXPECT_EQ(sink.events()[2].in, 4);
  EXPECT_EQ(sink.CountOf(EventType::kCircuitSetup), 2u);
  EXPECT_EQ(sink.CountOf(EventType::kCoflowCompleted), 0u);
  sink.Clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(ObsSink, OffsetSinkShiftsTime) {
  MemorySink inner;
  obs::OffsetSink shifted(&inner);
  shifted.set_offset(10.0);
  obs::Emit(&shifted, {.type = EventType::kCoflowCompleted, .t = 2.5});
  ASSERT_EQ(inner.events().size(), 1u);
  EXPECT_DOUBLE_EQ(inner.events()[0].t, 12.5);
  // A null inner sink swallows events.
  obs::OffsetSink detached(nullptr);
  obs::Emit(&detached, {.type = EventType::kCircuitSetup});
}

// ---------------------------------------------------------------------------
// JSONL round trip.

TEST(ObsJsonl, EscapeJson) {
  EXPECT_EQ(obs::EscapeJson("plain"), "plain");
  EXPECT_EQ(obs::EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::EscapeJson("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::EscapeJson(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(ObsJsonl, RoundTripsAllFields) {
  std::vector<Event> events = {
      {.type = EventType::kCircuitSetup,
       .t = 0.123456789012345,
       .dur = 1e-9,
       .coflow = 42,
       .in = 3,
       .out = 141,
       .value = 0.01,
       .count = 9},
      {.type = EventType::kCoflowCompleted, .t = 3600.5, .coflow = 1,
       .value = 17.25},
      {.type = EventType::kAssignmentComputed, .value = 123456789.0,
       .count = 1000000},
      {.type = EventType::kStarvationRound, .t = -1.5, .dur = 0.2, .count = 3},
      {.type = EventType::kFlowFinished},  // all defaults
  };
  std::ostringstream out;
  obs::WriteJsonl(out, events);
  std::istringstream in(out.str());
  const auto back = obs::ReadJsonl(in);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i], events[i]) << "event " << i << ":\n" << out.str();
  }
}

TEST(ObsJsonl, BlockedPairRoundTripsReasonAndBlamer) {
  // A full blocked episode: value carries the blaming coflow, count the
  // BlockReason, and the closing event's dur spans back to the opener.
  std::vector<Event> events = {
      {.type = EventType::kFlowBlocked, .t = 1.5, .coflow = 4, .in = 2,
       .out = 9,
       .value = static_cast<double>(7),
       .count = static_cast<std::int64_t>(obs::BlockReason::kInputPortBusy)},
      {.type = EventType::kFlowUnblocked, .t = 2.25, .dur = 0.75, .coflow = 4,
       .in = 2, .out = 9,
       .value = static_cast<double>(7),
       .count = static_cast<std::int64_t>(obs::BlockReason::kInputPortBusy)},
      {.type = EventType::kFlowBlocked, .t = 3.0, .coflow = 4, .in = 2,
       .out = 9, .value = -1.0,
       .count = static_cast<std::int64_t>(obs::BlockReason::kStarvationHold)},
  };
  std::ostringstream out;
  obs::WriteJsonl(out, events);
  std::istringstream in(out.str());
  const auto back = obs::ReadJsonl(in);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i], events[i]) << "event " << i << ":\n" << out.str();
  }
  EXPECT_EQ(static_cast<obs::BlockReason>(back[0].count),
            obs::BlockReason::kInputPortBusy);
  EXPECT_EQ(static_cast<CoflowId>(back[1].value), 7);
  EXPECT_DOUBLE_EQ(back[1].t - back[1].dur, back[0].t);
}

TEST(ObsJsonl, SkipsBlankLinesAndReportsBadLines) {
  std::istringstream ok("\n{\"type\":\"CircuitSetup\",\"t\":1}\n\n");
  const auto events = obs::ReadJsonl(ok);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].t, 1.0);

  std::istringstream bad("{\"type\":\"CircuitSetup\",\"t\":1}\n{\"t\":2}\n");
  try {
    obs::ReadJsonl(bad);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// Reads a two-line stream whose second line is `line`; expects an error
// naming line 2 and `field`.
void ExpectLineRejected(const std::string& line, const std::string& field) {
  std::istringstream in("{\"type\":\"FlowFinished\",\"t\":0}\n" + line +
                        "\n");
  try {
    obs::ReadJsonl(in);
    ADD_FAILURE() << "accepted: " << line;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
}

TEST(ObsJsonl, RejectsIdsThatAreNotInt32Integers) {
  // A fractional id used to truncate, and an id past INT32_MAX to wrap
  // negative, where the auditor exempts it as matching padding.
  ExpectLineRejected(R"({"type":"CircuitSetup","t":1,"coflow":1.9})",
                     "\"coflow\" must be an integer in [0, 2147483647], "
                     "got 1.9");
  ExpectLineRejected(R"({"type":"CircuitSetup","t":1,"in":4294967296})",
                     "\"in\" must be an integer in [0, 2147483647], got "
                     "4294967296");
  ExpectLineRejected(R"({"type":"CircuitSetup","t":1,"out":-1})", "\"out\"");
  ExpectLineRejected(R"({"type":"CircuitSetup","t":1,"plane":2147483648})",
                     "\"plane\"");
  ExpectLineRejected(R"({"type":"CircuitSetup","t":1,"in":"3"})", "\"in\"");
}

TEST(ObsJsonl, RejectsNonFiniteTimesValuesAndOutOfRangeCounts) {
  ExpectLineRejected(R"({"type":"CircuitSetup","t":1e400})",
                     "\"t\" must be a finite number");
  ExpectLineRejected(R"({"type":"CircuitSetup","t":1,"dur":-1e400})",
                     "\"dur\"");
  ExpectLineRejected(R"({"type":"CircuitSetup","t":1,"value":null})",
                     "\"value\"");
  ExpectLineRejected(
      R"({"type":"CircuitSetup","t":1,"count":9223372036854775808})",
      "\"count\" must be an integer in int64 range");
  ExpectLineRejected(R"({"type":"CircuitSetup","t":1,"count":0.5})",
                     "\"count\"");
  ExpectLineRejected(R"({"type":"CircuitSetup"})", "missing \"t\"");
}

TEST(ObsJsonl, RejectsWhatIsNotOneJsonObject) {
  // Trailing characters after a number used to read as the number.
  ExpectLineRejected(R"({"type":"CircuitSetup","t":12abc})", "json parse");
  ExpectLineRejected(R"({"type":"CircuitSetup","t":nan})", "json parse");
  ExpectLineRejected(R"({"type":"CircuitSetup","t":1} x)", "json parse");
  ExpectLineRejected(R"(["CircuitSetup", 1])", "not a JSON object");
  ExpectLineRejected(R"({"type":7,"t":1})", "missing \"type\"");
}

TEST(ObsJsonl, AcceptsTheLimitsOfEachField) {
  std::istringstream in(
      R"({"type":"CircuitSetup","t":-2.5,"coflow":2147483647,"in":0,)"
      R"("out":2147483647,"plane":2147483647,"count":-9223372036854775808})");
  const auto events = obs::ReadJsonl(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t, -2.5);
  EXPECT_EQ(events[0].coflow, 2147483647);
  EXPECT_EQ(events[0].in, 0);
  EXPECT_EQ(events[0].out, 2147483647);
  EXPECT_EQ(events[0].plane, 2147483647);
  EXPECT_EQ(events[0].count, std::numeric_limits<std::int64_t>::min());
}

// ---------------------------------------------------------------------------
// Chrome trace exporter.

TEST(ObsChromeTrace, EmitsValidJson) {
  std::vector<Event> events = {
      {.type = EventType::kCoflowAdmitted, .t = 0, .coflow = 1},
      {.type = EventType::kCircuitSetup, .t = 0, .dur = 0.11, .coflow = 1,
       .in = 0, .out = 1, .value = 0.01},
      {.type = EventType::kCircuitSetup, .t = 0.11, .dur = 0.1, .coflow = 1,
       .in = 0, .out = 2},  // carried over: no delta slice
      {.type = EventType::kCircuitTeardown, .t = 0.21, .coflow = 1, .in = 0,
       .out = 2},
      {.type = EventType::kFlowFinished, .t = 0.21, .coflow = 1, .in = 0,
       .out = 2},
      {.type = EventType::kAssignmentComputed, .t = 0.21, .value = 5000,
       .count = 1},
      {.type = EventType::kStarvationRound, .t = 0.3, .dur = 0.05, .count = 2},
      {.type = EventType::kCoflowCompleted, .t = 0.21, .coflow = 1,
       .value = 0.21},
  };
  std::ostringstream out;
  obs::WriteChromeTrace(out, events);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Structural spot checks: the three processes are named, circuit slices
  // land on the port track, and sim seconds became microseconds.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("switch ports"), std::string::npos);
  EXPECT_NE(json.find("coflows"), std::string::npos);
  EXPECT_NE(json.find("scheduler"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // 0.11 s -> 110000 us, in the shortest form that round-trips.
  EXPECT_NE(json.find("\"dur\":1.1e+05"), std::string::npos);
}

TEST(ObsChromeTrace, BlockedEpisodeRendersSpanOnCoflowTrack) {
  std::vector<Event> events = {
      {.type = EventType::kFlowBlocked, .t = 0.1, .coflow = 3, .in = 1,
       .out = 2, .value = 8.0,
       .count = static_cast<std::int64_t>(obs::BlockReason::kOutputPortBusy)},
      {.type = EventType::kFlowUnblocked, .t = 0.4, .dur = 0.3, .coflow = 3,
       .in = 1, .out = 2, .value = 8.0,
       .count = static_cast<std::int64_t>(obs::BlockReason::kOutputPortBusy)},
  };
  std::ostringstream out;
  obs::WriteChromeTrace(out, events);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // The opener is an instant marker; the closer renders the whole episode
  // as a 300000 us slice starting at t - dur = 100000 us, both carrying
  // the blamer and the reason so Perfetto tooltips explain the wait.
  EXPECT_NE(json.find("blocked 1->2"), std::string::npos) << json;
  EXPECT_NE(json.find("wait 1->2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"blamer\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("output-port-busy"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":3e+05"), std::string::npos) << json;
}

TEST(ObsChromeTrace, TrackSelectionAndEmptyInput) {
  std::vector<Event> events = {
      {.type = EventType::kCircuitSetup, .t = 0, .dur = 1, .coflow = 1,
       .in = 0, .out = 1, .value = 0.01},
      {.type = EventType::kCoflowCompleted, .t = 1, .coflow = 1, .value = 1},
  };
  // Every track that has events is named: the port Gantt and the coflow
  // lifetimes, beside the always-present scheduler process.
  std::ostringstream out;
  obs::WriteChromeTrace(out, events);
  EXPECT_TRUE(JsonChecker(out.str()).Valid()) << out.str();
  EXPECT_NE(out.str().find("switch ports"), std::string::npos);
  EXPECT_NE(out.str().find("coflow 1"), std::string::npos);
  EXPECT_NE(out.str().find("scheduler"), std::string::npos);

  std::ostringstream empty;
  obs::WriteChromeTrace(empty, {});
  EXPECT_TRUE(JsonChecker(empty.str()).Valid()) << empty.str();
}

TEST(ObsChromeTrace, TimestampsKeepEveryDigit) {
  // Two setups 4 ms apart, 20 minutes into a run: at the stream's default
  // 6 significant digits both export as "ts":1.23457e+09.
  const std::vector<Event> events = {
      {.type = EventType::kCircuitSetup, .t = 1234.567, .dur = 0.002,
       .coflow = 1, .in = 0, .out = 1, .value = 0.001},
      {.type = EventType::kCircuitSetup, .t = 1234.571, .dur = 0.002,
       .coflow = 2, .in = 1, .out = 0, .value = 0.001},
  };
  std::ostringstream out;
  obs::WriteChromeTrace(out, events);
  const obs::JsonValue doc = obs::JsonValue::Parse(out.str());
  std::vector<double> ts;
  for (const obs::JsonValue& record : doc.at("traceEvents").AsArray()) {
    if (record.at("name").AsString().rfind("circuit ", 0) == 0)
      ts.push_back(record.at("ts").AsNumber());
  }
  ASSERT_EQ(ts.size(), 2u) << out.str();
  EXPECT_EQ(ts[0], 1234.567 * 1e6) << out.str();
  EXPECT_EQ(ts[1], 1234.571 * 1e6) << out.str();
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(ObsMetrics, CounterBasics) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("c"), nullptr);
  obs::Counter& c = reg.GetCounter("c");
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.GetCounter("c"), &c);  // stable address on re-get
  EXPECT_EQ(reg.FindCounter("c")->value(), 5u);

  reg.Reset();
  EXPECT_EQ(c.value(), 0u);            // cached reference still valid
  EXPECT_NE(reg.FindCounter("c"), nullptr);  // registration survives Reset
}

TEST(ObsMetrics, HistogramMatchesStatsPercentile) {
  // Log-uniform samples over 6 decades: the log-bucketed histogram's
  // quantiles must stay within its ~1.1% bucket width of the exact
  // (sorted-sample) percentiles from common/stats.
  obs::Histogram hist;
  std::vector<double> samples;
  std::uint64_t state = 88172645463325252ull;
  auto next = [&state]() {  // xorshift64
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) / 9007199254740992.0;  // [0,1)
  };
  for (int i = 0; i < 20000; ++i) {
    const double v = std::pow(10.0, 6.0 * next());  // [1, 1e6)
    samples.push_back(v);
    hist.Record(v);
  }
  EXPECT_EQ(hist.count(), samples.size());
  EXPECT_NEAR(hist.mean(), stats::Mean(samples), stats::Mean(samples) * 1e-9);
  EXPECT_DOUBLE_EQ(hist.min(), stats::Min(samples));
  EXPECT_DOUBLE_EQ(hist.max(), stats::Max(samples));
  for (double pct : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = stats::Percentile(samples, pct);
    const double approx = hist.ValueAtPercentile(pct);
    EXPECT_NEAR(approx, exact, exact * 0.03)
        << "p" << pct << ": hist=" << approx << " exact=" << exact;
  }
  EXPECT_LE(hist.ValueAtPercentile(100), hist.max());
  EXPECT_GE(hist.ValueAtPercentile(0), hist.min());
}

TEST(ObsMetrics, HistogramEdgeCases) {
  obs::Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.ValueAtPercentile(50), 0.0);
  hist.Record(0.0);    // underflow bucket
  hist.Record(-3.0);   // underflow bucket
  hist.Record(8.0);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.min(), -3.0);
  EXPECT_DOUBLE_EQ(hist.max(), 8.0);
  // Two of three samples are non-positive, so p50 sits in the underflow
  // bucket and clamps to min.
  EXPECT_DOUBLE_EQ(hist.ValueAtPercentile(50), -3.0);
  EXPECT_NEAR(hist.ValueAtPercentile(99), 8.0, 8.0 * 0.02);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
}

TEST(ObsMetrics, RowsSortedAndTextDump) {
  obs::MetricsRegistry reg;
  reg.GetCounter("z.last").Increment(2);
  reg.GetHistogram("a.first").Record(5.0);
  reg.GetCounter("m.mid").Increment(3);
  const auto rows = reg.Rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "a.first");
  EXPECT_EQ(rows[0].kind, "histogram");
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_EQ(rows[1].name, "m.mid");
  EXPECT_DOUBLE_EQ(rows[1].value, 3.0);
  EXPECT_EQ(rows[2].name, "z.last");
  EXPECT_DOUBLE_EQ(rows[2].value, 2.0);
  std::ostringstream text;
  reg.WriteText(text);
  EXPECT_NE(text.str().find("a.first"), std::string::npos);
  EXPECT_NE(text.str().find("z.last"), std::string::npos);
}

TEST(ObsMetrics, CsvExportRoundTrips) {
  obs::MetricsRegistry reg;
  reg.GetCounter("executor.circuit_setups").Increment(7);
  reg.GetHistogram("scheduler.compute_ns").Record(1000);
  const std::string path = ::testing::TempDir() + "/obs_metrics_test.csv";
  exp::WriteMetricsCsv(path, reg);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string header, line1, line2;
  std::getline(f, header);
  std::getline(f, line1);
  std::getline(f, line2);
  EXPECT_EQ(header, "name,kind,count,value,mean,p50,p95,max");
  EXPECT_NE(line1.find("executor.circuit_setups,counter,7"),
            std::string::npos)
      << line1;
  EXPECT_NE(line2.find("scheduler.compute_ns,histogram,1"), std::string::npos)
      << line2;
}

// ---------------------------------------------------------------------------
// Instrumentation contracts.

Coflow M2MCoflow() {
  return Coflow(5, 0.0,
                {{0, 2, MB(10)},
                 {0, 3, MB(25)},
                 {1, 2, MB(40)},
                 {1, 3, MB(5)}});
}

TEST(ObsInstrumentation, PlannerEventsOrderedAndCounted) {
  SunflowConfig cfg;
  MemorySink sink;
  const auto schedule = ScheduleSingleCoflow(M2MCoflow(), 4, cfg, &sink);

  // §6 latency hiding: within one ScheduleOne pass, setup emissions are
  // non-decreasing in start time.
  Time last = -kTimeInf;
  for (const Event& e : sink.events()) {
    if (e.type != EventType::kCircuitSetup) continue;
    EXPECT_GE(e.t, last - kTimeEps);
    last = e.t;
    EXPECT_EQ(e.coflow, 5);
    EXPECT_GE(e.in, 0);
    EXPECT_GE(e.out, 0);
    EXPECT_GT(e.dur, 0);
  }
  // One setup span + one teardown per reservation; Sunflow pays δ on every
  // reservation from an empty table, and every flow's completion is traced.
  EXPECT_EQ(sink.CountOf(EventType::kCircuitSetup),
            schedule.reservations.size());
  EXPECT_EQ(CountDeltaSetups(sink.events()), schedule.reservations.size());
  EXPECT_EQ(sink.CountOf(EventType::kCircuitTeardown),
            schedule.reservations.size());
  EXPECT_EQ(sink.CountOf(EventType::kFlowFinished), M2MCoflow().size());
}

TEST(ObsInstrumentation, DisabledTracerLeavesScheduleUnchanged) {
  SunflowConfig cfg;
  MemorySink sink;
  const auto traced = ScheduleSingleCoflow(M2MCoflow(), 4, cfg, &sink);
  const auto plain = ScheduleSingleCoflow(M2MCoflow(), 4, cfg, nullptr);
  EXPECT_EQ(traced.completion_time, plain.completion_time);
  EXPECT_EQ(traced.reservation_count, plain.reservation_count);
  ASSERT_EQ(traced.reservations.size(), plain.reservations.size());
  EXPECT_FALSE(sink.events().empty());
}

TEST(ObsInstrumentation, ExecutorSetupEventsMatchResultCount) {
  // 2x2 demand drained by two assignments: the traced δ-paying setups and
  // the executor.circuit_setups metric must both equal the result's count.
  DemandMatrix demand({{1.0, 0.5}, {0.0, 2.0}});
  AssignmentSchedule schedule;
  schedule.algorithm = "test";
  schedule.slots.push_back({.col_of_row = {0, 1}, .duration = 2.0});
  schedule.slots.push_back({.col_of_row = {1, -1}, .duration = 0.5});

  const std::uint64_t metric_before =
      obs::GlobalMetrics().GetCounter("executor.circuit_setups").value();
  MemorySink sink;
  const auto result = ExecuteNotAllStop(demand, schedule, /*delta=*/0.01,
                                        /*start=*/0, &sink, /*coflow=*/9);
  EXPECT_EQ(CountDeltaSetups(sink.events()),
            static_cast<std::size_t>(result.circuit_setups));
  EXPECT_EQ(obs::GlobalMetrics().GetCounter("executor.circuit_setups").value(),
            metric_before + static_cast<std::uint64_t>(result.circuit_setups));
  for (const Event& e : sink.events()) {
    EXPECT_EQ(e.coflow, 9);
  }

  // All-stop model: same contract, independent code path.
  MemorySink all_stop_sink;
  const std::uint64_t before2 =
      obs::GlobalMetrics().GetCounter("executor.circuit_setups").value();
  const auto all_stop = ExecuteAllStop(demand, schedule, /*delta=*/0.01,
                                       /*start=*/0, &all_stop_sink, 9);
  EXPECT_EQ(CountDeltaSetups(all_stop_sink.events()),
            static_cast<std::size_t>(all_stop.circuit_setups));
  EXPECT_EQ(obs::GlobalMetrics().GetCounter("executor.circuit_setups").value(),
            before2 + static_cast<std::uint64_t>(all_stop.circuit_setups));
}

TEST(ObsInstrumentation, ReplayEmitsLifecycleEvents) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 2, MB(50)}, {1, 3, MB(20)}}));
  trace.coflows.push_back(Coflow(2, 0.05, {{0, 3, MB(10)}}));
  trace.coflows.push_back(Coflow(3, 0.30, {{1, 2, MB(30)}}));

  engine::EngineConfig cfg;
  cfg.sunflow.delta = Millis(10);
  MemorySink sink;
  cfg.sink = &sink;
  const auto policy = MakeShortestFirstPolicy();
  const auto result = engine::ScenarioRegistry::Global().Run(
      "circuit", trace, policy.get(), cfg);

  EXPECT_EQ(sink.CountOf(EventType::kCoflowAdmitted), trace.coflows.size());
  EXPECT_EQ(sink.CountOf(EventType::kCoflowCompleted), trace.coflows.size());
  EXPECT_EQ(sink.CountOf(EventType::kAssignmentComputed), result.replans);
  for (const Event& e : sink.events()) {
    if (e.type != EventType::kCoflowCompleted) continue;
    EXPECT_NEAR(e.value, result.cct.at(e.coflow), 1e-9) << e.coflow;
    EXPECT_NEAR(e.t, result.completion.at(e.coflow), 1e-9) << e.coflow;
  }
  // Traced circuit spans never extend past the makespan: only the executed
  // portion of each plan is emitted, not superseded reservations.
  for (const Event& e : sink.events()) {
    if (e.type != EventType::kCircuitSetup) continue;
    EXPECT_LE(e.t + e.dur, result.makespan + kTimeEps);
  }
}

TEST(ObsInstrumentation, ReplayWithAndWithoutSinkAgree) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 2, MB(50)}, {1, 3, MB(20)}}));
  trace.coflows.push_back(Coflow(2, 0.05, {{0, 3, MB(10)}}));
  engine::EngineConfig cfg;
  const auto policy = MakeShortestFirstPolicy();
  auto& registry = engine::ScenarioRegistry::Global();
  const auto plain = registry.Run("circuit", trace, policy.get(), cfg);
  MemorySink sink;
  cfg.sink = &sink;
  const auto traced = registry.Run("circuit", trace, policy.get(), cfg);
  EXPECT_EQ(plain.cct, traced.cct);
  EXPECT_EQ(plain.replans, traced.replans);
  EXPECT_NEAR(plain.makespan, traced.makespan, 1e-12);
}

TEST(ObsInstrumentation, AdmissionTracesOnlyCommittedDecisions) {
  SunflowConfig cfg;
  SunflowPlanner planner(4, cfg);
  MemorySink sink;
  planner.SetTraceSink(&sink);

  auto& metrics = obs::GlobalMetrics();
  const std::uint64_t admits_before =
      metrics.GetCounter("admission.admits").value();
  const std::uint64_t rejects_before =
      metrics.GetCounter("admission.rejects").value();

  SunflowSchedule out;
  const auto request = PlanRequest::FromCoflow(
      Coflow(1, 0.0, {{0, 1, MB(100)}}), cfg.bandwidth);
  const auto admitted =
      TryAdmitWithDeadline(planner, request, /*deadline=*/3600.0, out);
  EXPECT_TRUE(admitted.admitted);
  EXPECT_EQ(sink.CountOf(EventType::kCoflowAdmitted), 1u);

  // A hopeless deadline: rejected, and the probe leaves no trace events.
  const std::size_t events_after_admit = sink.events().size();
  const auto request2 = PlanRequest::FromCoflow(
      Coflow(2, 0.0, {{0, 1, MB(100)}}), cfg.bandwidth);
  const auto rejected =
      TryAdmitWithDeadline(planner, request2, /*deadline=*/1e-6, out);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_GT(rejected.planned_cct, 1e-6);
  EXPECT_EQ(sink.events().size(), events_after_admit);

  EXPECT_EQ(metrics.GetCounter("admission.admits").value(), admits_before + 1);
  EXPECT_EQ(metrics.GetCounter("admission.rejects").value(),
            rejects_before + 1);
}

TEST(ObsInstrumentation, IntraRunnerSequencesCoflowsOnSharedClock) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 2, MB(30)}, {1, 3, MB(10)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{0, 3, MB(20)}}));

  exp::IntraRunConfig cfg;
  MemorySink sink;
  cfg.sink = &sink;
  const auto run = exp::RunIntra(trace, exp::IntraAlgorithm::kSunflow, cfg);

  EXPECT_EQ(sink.CountOf(EventType::kCoflowAdmitted), trace.coflows.size());
  EXPECT_EQ(sink.CountOf(EventType::kCoflowCompleted), trace.coflows.size());
  // Back-to-back evaluation: completion instants are strictly increasing
  // and each equals the running sum of CCTs.
  Time clock = 0, last_completion = -kTimeInf;
  std::size_t record = 0;
  for (const Event& e : sink.events()) {
    if (e.type != EventType::kCoflowCompleted) continue;
    ASSERT_LT(record, run.records.size());
    clock += run.records[record].cct;
    EXPECT_NEAR(e.t, clock, 1e-9);
    EXPECT_GT(e.t, last_completion);
    last_completion = e.t;
    ++record;
  }
  // δ-paying setups across the run match the summed switching counts (the
  // cross-check fig5_switching prints under --trace_out).
  long long switching = 0;
  for (const auto& rec : run.records) switching += rec.switching_count;
  EXPECT_EQ(CountDeltaSetups(sink.events()),
            static_cast<std::size_t>(switching));
}

TEST(ObsInstrumentation, SchedulerComputeHistogramPopulated) {
  // Solstice's compute time is its sched.solstice phase: one entry per
  // coflow an intra run decomposes.
  const auto entries = [] {
    const obs::MetricsRegistry merged = obs::GlobalMetrics().Merged();
    const obs::PhaseStats* p = merged.FindPhase("sched.solstice");
    return p != nullptr ? p->count : 0;
  };
  const std::uint64_t before = entries();
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 2, MB(30)}, {1, 3, MB(10)}}));
  trace.coflows.push_back(Coflow(2, 1.0, {{0, 3, MB(20)}, {2, 1, MB(5)}}));
  trace.coflows.push_back(Coflow(3, 2.0, {{1, 2, MB(8)}}));
  exp::IntraRunConfig cfg;
  (void)exp::RunIntra(trace, exp::IntraAlgorithm::kSolstice, cfg);
  EXPECT_EQ(entries() - before, trace.coflows.size());
}

}  // namespace
}  // namespace sunflow
