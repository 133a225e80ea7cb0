// sunflow_trace_inspect — summarize a structured JSONL trace.
//
// Reads an event stream written by the obs tracer (JsonlStreamSink or
// WriteJsonl) and reports what the paper's evaluation cares about:
// per-coflow Gantt stats, the δ-overhead fraction (reconfiguration time
// over circuit-hold time), per-port idleness over the horizon, and
// scheduler compute-time percentiles. The same numbers are cross-checkable
// against trace/idleness (network idleness) and viz/timeline (Gantt).
//
// Usage:
//   sunflow_trace_inspect --trace=run.jsonl [--top=20] [--csv]
//   sunflow_trace_inspect --trace=run.jsonl --attribution [--csv]
//   sunflow_trace_inspect --trace=run.jsonl --audit [--manifest=...]
//   sunflow_trace_inspect --manifest=run.manifest.json
//
// --csv switches the per-coflow section to machine-readable CSV on stdout.
// --attribution decomposes every coflow's CCT into additive causal
// components (obs/attribution.h) and prints the critical path of the
// largest coflow. --audit verifies the physical invariants of
// obs/audit.h and exits 1 on any violation; combined with --manifest it
// also cross-checks the δ-paying setup count against the producer's
// executor.circuit_setups metric.
// --manifest alone inspects a run manifest instead of an event trace: it
// prints the parallel-planning counters (plan.parallel_fallbacks /
// pool.waiter_steals) and each profiled phase's share of total self time —
// the numbers the planner perf work is judged by.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/version.h"
#include "obs/attribution.h"
#include "obs/audit.h"
#include "obs/jsonl.h"
#include "obs/manifest.h"

using namespace sunflow;
using obs::Event;
using obs::EventType;

namespace {

struct CoflowStats {
  Time admitted = -1;
  Time completed = -1;
  Time cct = 0;
  int setups = 0;          // circuit setups that paid δ
  int reservations = 0;    // all circuit-hold spans
  Time circuit_seconds = 0;
  Time delta_seconds = 0;
  Time first_circuit = kTimeInf;
  Time last_release = 0;
  int flows_finished = 0;

  double DeltaFraction() const {
    return circuit_seconds > 0 ? delta_seconds / circuit_seconds : 0;
  }
};

struct PortStats {
  Time busy = 0;
  int setups = 0;
};

// --timeline mode: render a bench's --timeline_out CSV
// (sunflow.timeline/v1, obs/timeline.h) as ASCII sparklines + summary.

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = line.find(',', begin);
    if (comma == std::string::npos) {
      out.push_back(line.substr(begin));
      return out;
    }
    out.push_back(line.substr(begin, comma - begin));
    begin = comma + 1;
  }
}

// Downsamples a series to `width` bucket maxima and renders each bucket as
// one of ten ASCII levels scaled to the series max. Max (not mean) so a
// narrow burst — one busy window among dozens of idle ones in the same
// bucket — still shows up instead of averaging down to a blank cell.
std::string Sparkline(const std::vector<double>& xs, std::size_t width) {
  static const char kLevels[] = " .:-=+*#%@";
  if (xs.empty()) return {};
  width = std::min(width, xs.size());
  double max = 0;
  for (double x : xs) max = std::max(max, x);
  std::string out;
  out.reserve(width);
  for (std::size_t b = 0; b < width; ++b) {
    const std::size_t lo = b * xs.size() / width;
    const std::size_t hi = std::max(lo + 1, (b + 1) * xs.size() / width);
    double v = 0;
    for (std::size_t i = lo; i < hi; ++i) v = std::max(v, xs[i]);
    const int level =
        max > 0 ? std::min(9, static_cast<int>(v / max * 9.999)) : 0;
    out.push_back(kLevels[level]);
  }
  return out;
}

int InspectTimeline(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "error: cannot open " << path << "\n";
    return 1;
  }
  std::string line, schema_comment, meta_comment;
  std::vector<std::string> cols;
  std::vector<std::vector<double>> rows;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      (schema_comment.empty() ? schema_comment : meta_comment) = line;
      continue;
    }
    std::vector<std::string> fields = SplitCsvLine(line);
    if (cols.empty()) {
      cols = std::move(fields);
      continue;
    }
    std::vector<double> row;
    row.reserve(fields.size());
    for (const std::string& s : fields) row.push_back(std::atof(s.c_str()));
    rows.push_back(std::move(row));
  }
  if (schema_comment.find("sunflow.timeline/v1") == std::string::npos) {
    std::cerr << "error: " << path
              << " is not a telemetry timeline (no sunflow.timeline/v1 "
                 "header; expected a bench's --timeline_out CSV)\n";
    return 1;
  }
  if (rows.empty()) {
    std::printf("telemetry timeline %s: no samples\n", path.c_str());
    return 0;
  }

  const auto col = [&](const std::string& name) -> int {
    for (std::size_t i = 0; i < cols.size(); ++i)
      if (cols[i] == name) return static_cast<int>(i);
    return -1;
  };
  const auto series = [&](int c) {
    std::vector<double> out;
    if (c < 0) return out;
    out.reserve(rows.size());
    for (const auto& r : rows)
      out.push_back(static_cast<std::size_t>(c) < r.size()
                        ? r[static_cast<std::size_t>(c)]
                        : 0);
    return out;
  };

  // Overall utilization: mean across every util_* column per sample.
  std::vector<double> util(rows.size(), 0);
  int util_cols = 0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].rfind("util_", 0) != 0) continue;
    ++util_cols;
    for (std::size_t rix = 0; rix < rows.size(); ++rix)
      if (i < rows[rix].size()) util[rix] += rows[rix][i];
  }
  if (util_cols > 0)
    for (double& u : util) u /= util_cols;

  const Time t0 = rows.front()[0];
  const Time t1 = rows.back().size() > 1 ? rows.back()[1] : t0;
  std::printf("telemetry timeline %s\n", path.c_str());
  std::printf("%zu samples over sim [%g, %g] s\n", rows.size(), t0, t1);
  if (!meta_comment.empty()) std::printf("%s\n", meta_comment.c_str());
  std::printf("\n");

  constexpr std::size_t kWidth = 64;
  const auto print_row = [&](const char* name, const std::vector<double>& xs) {
    if (xs.empty()) return;
    double max = 0;
    for (double x : xs) max = std::max(max, x);
    std::printf("  %-18s peak %-12.4g |%s|\n", name, max,
                Sparkline(xs, kWidth).c_str());
  };
  print_row("fabric util", util);
  print_row("engine active", series(col("engine_active_frac")));
  print_row("active coflows", series(col("active")));
  print_row("queue depth", series(col("queue_depth")));
  print_row("blocked coflows", series(col("blocked")));
  print_row("replans", series(col("replans")));
  const std::vector<double> p99 = series(col("rolling_p99_ns"));
  if (!p99.empty()) print_row("replan p99 ns", p99);

  std::printf("\n");
  std::printf("  util mean %.4f  p99 %.4f\n", stats::Mean(util),
              stats::Percentile(util, 99));
  double total_replans = 0;
  for (double r : series(col("replans"))) total_replans += r;
  std::printf("  replans %g", total_replans);
  const std::vector<double> admitted = series(col("admitted"));
  if (!admitted.empty()) std::printf("  admitted %g", admitted.back());
  std::printf("\n");
  return 0;
}

// --manifest mode: parallel-planning counters and per-phase self-time shares
// from a run manifest (obs/manifest.h).
int InspectManifest(const std::string& path) {
  obs::RunManifest m;
  try {
    m = obs::RunManifest::FromJson(obs::JsonValue::ParseFile(path));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::printf("manifest: %s\n", path.c_str());
  std::printf("tool: %s, wall %.2f ms, %d thread(s)\n", m.tool.c_str(),
              m.wall_ns / 1e6, m.threads);

  double parallel_fallbacks = -1, waiter_steals = -1;
  for (const obs::MetricRow& r : m.metrics) {
    if (r.name == "plan.parallel_fallbacks") parallel_fallbacks = r.value;
    if (r.name == "pool.waiter_steals") waiter_steals = r.value;
  }
  if (parallel_fallbacks >= 0) {
    std::printf(
        "parallel plan fallbacks: %.0f replan(s) fell back to the serial "
        "path (no pool, one group, or an observer attached)\n",
        parallel_fallbacks);
  }
  if (waiter_steals >= 0) {
    std::printf(
        "pool waiter steals: %.0f queued task(s) run by a caller while "
        "waiting for its ParallelFor to drain\n",
        waiter_steals);
  }

  double total_self = 0;
  for (const obs::ProfileRow& r : m.profile) total_self += r.stats.self_ns;
  if (m.profile.empty()) {
    std::printf(
        "no profile block in this manifest (the producing run was built "
        "without profiling or wrote a reduced manifest) — phase table "
        "skipped\n");
    return 0;
  }
  std::vector<obs::ProfileRow> rows = m.profile;
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.stats.self_ns > b.stats.self_ns;
  });
  TextTable table("Per-phase self time (share of " +
                  TextTable::Fmt(total_self / 1e6, 2) + " ms total self)");
  table.SetHeader({"phase", "count", "total ms", "self ms", "self %"});
  for (const obs::ProfileRow& r : rows) {
    table.AddRow({r.name, std::to_string(r.stats.count),
                  TextTable::Fmt(r.stats.total_ns / 1e6, 2),
                  TextTable::Fmt(r.stats.self_ns / 1e6, 2),
                  TextTable::Fmt(
                      total_self > 0 ? 100.0 * r.stats.self_ns / total_self : 0,
                      2)});
  }
  std::printf("\n");
  table.Print(std::cout);
  return 0;
}

// --attribution mode: the causal CCT decomposition of obs/attribution.h.
int RunAttribution(const std::vector<Event>& events, bool csv,
                   std::size_t top) {
  const obs::AttributionReport report = obs::Attribute(events);
  if (report.coflows.empty()) {
    std::cerr << "error: no completed coflows in the trace — nothing to "
                 "attribute (was the trace produced with admissions and "
                 "completions enabled?)\n";
    return 1;
  }

  if (csv) {
    std::printf(
        "coflow,cct_s,pre_admission_s,delta_s,contention_s,starvation_s,"
        "transmit_s,unattributed_s,sum_s,residual_s,top_blamer,"
        "top_blamer_s,planner_ns\n");
    for (const obs::CoflowAttribution& a : report.coflows) {
      const Time sum = a.Sum();
      const CoflowId top_blamer =
          a.by_blamer.empty() ? -1 : a.by_blamer.front().blamer;
      const Time top_blamer_s =
          a.by_blamer.empty() ? 0 : a.by_blamer.front().seconds;
      std::printf("%lld,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.3g,%lld,"
                  "%.9g,%.9g\n",
                  static_cast<long long>(a.coflow), a.cct, a.pre_admission,
                  a.delta, a.contention, a.starvation_hold, a.transmit,
                  a.unattributed, sum, a.cct - sum,
                  static_cast<long long>(top_blamer), top_blamer_s,
                  a.planner_compute_ns);
    }
    return 0;
  }

  TextTable table("CCT attribution (top " +
                  std::to_string(std::min(top, report.coflows.size())) +
                  " by CCT; components sum to the measured CCT)");
  table.SetHeader({"coflow", "cct_s", "wait_s", "delta_s", "contend_s",
                   "hold_s", "transmit_s", "unattr_s", "top blamer"});
  for (std::size_t i = 0; i < report.coflows.size() && i < top; ++i) {
    const obs::CoflowAttribution& a = report.coflows[i];
    std::string blamer = "-";
    if (!a.by_blamer.empty()) {
      blamer = std::to_string(a.by_blamer.front().blamer) + " (" +
               TextTable::Fmt(a.by_blamer.front().seconds, 4) + " s)";
    }
    table.AddRow({std::to_string(a.coflow), TextTable::Fmt(a.cct, 4),
                  TextTable::Fmt(a.pre_admission, 4),
                  TextTable::Fmt(a.delta, 4),
                  TextTable::Fmt(a.contention, 4),
                  TextTable::Fmt(a.starvation_hold, 4),
                  TextTable::Fmt(a.transmit, 4),
                  TextTable::Fmt(a.unattributed, 4), blamer});
  }
  table.AddFootnote(
      "aggregate shares of " + TextTable::Fmt(report.total_cct, 4) +
      " s total CCT: wait " +
      TextTable::FmtPct(report.pre_admission_fraction, 1) + ", delta " +
      TextTable::FmtPct(report.delta_fraction, 1) + ", contention " +
      TextTable::FmtPct(report.contention_fraction, 1) + ", hold " +
      TextTable::FmtPct(report.starvation_fraction, 1) + ", transmit " +
      TextTable::FmtPct(report.transmit_fraction, 1) + ", unattributed " +
      TextTable::FmtPct(report.unattributed_fraction, 1));
  table.Print(std::cout);

  // Per-plane δ only when the trace actually spans a K-core fabric, so
  // classic single-plane output is unchanged.
  const auto& by_plane = report.delta_seconds_by_plane;
  if (by_plane.size() > 1 ||
      (by_plane.size() == 1 && by_plane.begin()->first != 0)) {
    std::printf("\ndelta seconds by switch plane:\n");
    for (const auto& [plane, seconds] : by_plane) {
      std::printf("  plane %d: %.6f s\n", static_cast<int>(plane), seconds);
    }
  }

  std::printf("\ncritical path of coflow %lld (completion first):\n",
              static_cast<long long>(report.critical_coflow));
  for (const obs::CriticalPathStep& s : report.critical_path) {
    std::printf("  %-8s [%.6f, %.6f] (%.6f s)",
                obs::ToString(s.kind), s.begin, s.end, s.end - s.begin);
    if (s.in >= 0) std::printf("  flow %lld->%lld",
                               static_cast<long long>(s.in),
                               static_cast<long long>(s.out));
    if (s.kind == obs::CriticalPathStep::Kind::kBlocked) {
      std::printf("  behind coflow %lld (%s)",
                  static_cast<long long>(s.blamer), obs::ToString(s.reason));
    }
    std::printf("\n");
  }
  return 0;
}

// --audit mode: physical-invariant verification, nonzero exit on any
// violation so CI can gate on it.
int RunAudit(const std::vector<Event>& events,
             const std::string& manifest_path, obs::AuditScope scope) {
  long long expected_setups = -1;
  if (!manifest_path.empty()) {
    try {
      const obs::RunManifest m =
          obs::RunManifest::FromJson(obs::JsonValue::ParseFile(manifest_path));
      for (const obs::MetricRow& r : m.metrics) {
        if (r.name == "executor.circuit_setups") {
          expected_setups = static_cast<long long>(r.value);
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  const obs::AuditReport report =
      obs::AuditTrace(events, expected_setups, scope);
  std::printf("audit: %zu events, %zu checks, %zu violation(s)\n",
              report.events, report.checks, report.violations.size());
  for (const obs::AuditViolation& v : report.violations) {
    std::printf("  [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
  }
  if (!report.ok()) {
    std::printf("audit FAILED\n");
    return 1;
  }
  std::printf("audit passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string path =
      flags.GetString("trace", "", "JSONL trace file to inspect");
  const auto top =
      static_cast<std::size_t>(flags.GetInt("top", 20, "coflow rows to show"));
  const bool csv =
      flags.GetBool("csv", false, "emit the per-coflow table as CSV");
  const std::string manifest_path = flags.GetString(
      "manifest", "",
      "run manifest JSON to inspect instead of a trace: prints the "
      "plan-cache counters and per-phase self-time shares (with --audit: "
      "cross-checks the trace's setup count against its metrics)");
  const bool attribution = flags.GetBool(
      "attribution", false,
      "decompose each coflow's CCT into causal components (with --csv for "
      "machine-readable rows) and print the largest coflow's critical path");
  const bool do_audit = flags.GetBool(
      "audit", false,
      "verify the trace's physical invariants; exit 1 on any violation");
  const std::string audit_scope = flags.GetString(
      "audit_scope", "fabric",
      "\"fabric\" = one shared timeline (engine replays, strict); "
      "\"coflow\" = concatenated standalone replays (intra benches), "
      "fabric checks keyed per coflow lifecycle");
  const std::string timeline_path = flags.GetString(
      "timeline", "",
      "telemetry-timeline CSV (a bench's --timeline_out) to render as "
      "ASCII sparklines + summary instead of a trace");
  const bool version =
      flags.GetBool("version", false, "print build/version info and exit");
  if (version) {
    std::printf("%s\n", VersionString("sunflow_trace_inspect").c_str());
    return 0;
  }
  if (!timeline_path.empty() && !flags.help_requested())
    return InspectTimeline(timeline_path);
  if (flags.help_requested() || (path.empty() && manifest_path.empty())) {
    flags.PrintHelp("Summarize a Sunflow JSONL event trace or run manifest");
    return path.empty() && manifest_path.empty() && !flags.help_requested()
               ? 2
               : 0;
  }
  if (path.empty()) return InspectManifest(manifest_path);

  std::vector<Event> events;
  try {
    events = obs::ReadJsonlFile(path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (do_audit) {
    if (audit_scope != "fabric" && audit_scope != "coflow") {
      std::cerr << "error: --audit_scope must be \"fabric\" or \"coflow\"\n";
      return 2;
    }
    return RunAudit(events, manifest_path,
                    audit_scope == "coflow" ? obs::AuditScope::kPerCoflow
                                            : obs::AuditScope::kSharedFabric);
  }
  if (attribution && !events.empty()) return RunAttribution(events, csv, top);

  std::map<EventType, std::size_t> type_counts;
  std::map<CoflowId, CoflowStats> coflows;
  std::map<PortId, PortStats> ports;
  std::map<PlaneId, Time> plane_circuit_seconds;
  std::vector<double> compute_ns;
  Time t_min = kTimeInf, t_max = 0;
  int starvation_rounds = 0;
  Time blocked_seconds = 0;
  int blocked_episodes = 0;

  for (const Event& e : events) {
    ++type_counts[e.type];
    t_min = std::min(t_min, e.t);
    t_max = std::max(t_max, e.t + std::max(0.0, e.dur));
    switch (e.type) {
      case EventType::kCircuitSetup: {
        plane_circuit_seconds[e.plane] += e.dur;
        auto& cs = coflows[e.coflow];
        ++cs.reservations;
        if (e.value > 0) ++cs.setups;
        cs.circuit_seconds += e.dur;
        cs.delta_seconds += e.value;
        cs.first_circuit = std::min(cs.first_circuit, e.t);
        cs.last_release = std::max(cs.last_release, e.t + e.dur);
        auto& ps = ports[e.in];
        ps.busy += e.dur;
        if (e.value > 0) ++ps.setups;
        break;
      }
      case EventType::kCircuitTeardown:
        break;
      case EventType::kCoflowAdmitted:
        coflows[e.coflow].admitted = e.t;
        break;
      case EventType::kCoflowCompleted: {
        auto& cs = coflows[e.coflow];
        cs.completed = e.t;
        cs.cct = e.value;
        break;
      }
      case EventType::kAssignmentComputed:
        compute_ns.push_back(e.value);
        break;
      case EventType::kStarvationRound:
        ++starvation_rounds;
        break;
      case EventType::kFlowFinished:
        ++coflows[e.coflow].flows_finished;
        break;
      case EventType::kFlowBlocked:
        break;  // only the closing event carries the span
      case EventType::kFlowUnblocked:
        blocked_seconds += e.dur;
        ++blocked_episodes;
        break;
    }
  }
  if (events.empty()) {
    // An empty trace is almost always a truncated or wrong file (a crash
    // before the flush, or a path typo), not a legitimate run: every
    // tracer-enabled replay emits at least the admission events. Fail
    // loudly instead of printing an all-zero summary that looks fine.
    std::cerr << "error: " << path
              << " contains no events — the producing run likely exited "
                 "before flushing its trace, or this is not a Sunflow "
                 "JSONL trace\n";
    return 1;
  }
  const Time horizon = std::max(kTimeEps, t_max - std::min(t_min, t_max));

  std::printf("trace: %s\n", path.c_str());
  std::printf("events: %zu over [%.6f, %.6f] s (horizon %.6f s)\n",
              events.size(), std::min(t_min, t_max), t_max, horizon);
  for (const auto& [type, n] : type_counts) {
    std::printf("  %-20s %zu\n", obs::ToString(type), n);
  }

  // δ overhead: reconfiguration seconds over total circuit-hold seconds.
  Time total_circuit = 0, total_delta = 0;
  int total_setups = 0;
  for (const auto& [id, cs] : coflows) {
    total_circuit += cs.circuit_seconds;
    total_delta += cs.delta_seconds;
    total_setups += cs.setups;
  }
  std::printf("\ncircuit setups paying delta: %d\n", total_setups);
  std::printf("circuit-hold time: %.6f s, of which delta: %.6f s (%.2f%%)\n",
              total_circuit, total_delta,
              total_circuit > 0 ? 100.0 * total_delta / total_circuit : 0.0);
  if (plane_circuit_seconds.size() > 1) {
    std::printf("circuit-hold by switch plane (K=%zu):\n",
                plane_circuit_seconds.size());
    for (const auto& [plane, seconds] : plane_circuit_seconds) {
      std::printf("  plane %d: %.6f s\n", static_cast<int>(plane), seconds);
    }
  }

  // Port idleness: fraction of the horizon each seen input port held no
  // circuit (the executable-trace analogue of trace/idleness).
  if (!ports.empty()) {
    std::vector<double> idle;
    idle.reserve(ports.size());
    for (const auto& [p, ps] : ports) {
      idle.push_back(std::max(0.0, 1.0 - ps.busy / horizon));
    }
    std::printf("port idleness over %zu active ports: %s\n", ports.size(),
                stats::ToString(stats::Summarize(idle)).c_str());
  }

  if (!compute_ns.empty()) {
    std::printf("scheduler compute (ns): %s\n",
                stats::ToString(stats::Summarize(compute_ns)).c_str());
  }
  if (starvation_rounds > 0) {
    std::printf("starvation-guard rounds: %d\n", starvation_rounds);
  }
  if (blocked_episodes > 0) {
    std::printf(
        "blocked episodes: %d totaling %.6f s (see --attribution for the "
        "per-coflow, per-blamer breakdown)\n",
        blocked_episodes, blocked_seconds);
  }

  // Per-coflow Gantt stats, largest CCT first.
  std::vector<std::pair<CoflowId, CoflowStats>> rows(coflows.begin(),
                                                     coflows.end());
  std::erase_if(rows, [](const auto& kv) { return kv.first < 0; });
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.cct > b.second.cct;
  });

  if (csv) {
    std::printf(
        "\ncoflow,admitted_s,completed_s,cct_s,setups,reservations,"
        "circuit_s,delta_s,delta_fraction,flows_finished\n");
    for (const auto& [id, cs] : rows) {
      std::printf("%lld,%.9g,%.9g,%.9g,%d,%d,%.9g,%.9g,%.6f,%d\n",
                  static_cast<long long>(id), cs.admitted, cs.completed,
                  cs.cct, cs.setups, cs.reservations, cs.circuit_seconds,
                  cs.delta_seconds, cs.DeltaFraction(), cs.flows_finished);
    }
    return 0;
  }

  TextTable table("Per-coflow Gantt stats (top " +
                  std::to_string(std::min(top, rows.size())) + " by CCT)");
  table.SetHeader({"coflow", "cct_s", "setups", "circuit_s", "delta_s",
                   "delta%", "flows"});
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    const auto& [id, cs] = rows[i];
    table.AddRow({std::to_string(id), TextTable::Fmt(cs.cct, 4),
                  std::to_string(cs.setups),
                  TextTable::Fmt(cs.circuit_seconds, 4),
                  TextTable::Fmt(cs.delta_seconds, 4),
                  TextTable::Fmt(100 * cs.DeltaFraction(), 2),
                  std::to_string(cs.flows_finished)});
  }
  std::printf("\n");
  table.Print(std::cout);
  return 0;
}
