// Benchmark binary. Each invocation is one cold process, so the
// process-global plan memo never serves a measurement from an earlier one.
//
//   perfbench --phase=setup --workload=W --seed=S --dir=D
//       builds the workload's input file D/input.sft and times each step.
//   perfbench --phase=run --workload=W --seed=S --dir=D --mode=M
//       replays D/input.sft once. M is one of
//         plain   the timed run: profiler off, no trace sink, no timeline;
//         layers  profiler on and a replan timeline on the circuit replay;
//         obs     a counting trace sink on every arm that takes one.
//
// Either phase prints one JSON object as its last stdout line; run.py
// repeats the pair, checks the results and aggregates medians.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/stats.h"
#include "common/version.h"
#include "core/policy.h"
#include "core/sunflow.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "obs/trace_sink.h"
#include "packet/aalo.h"
#include "packet/replay.h"
#include "packet/varys.h"
#include "runtime/thread_pool.h"
#include "sched/executor.h"
#include "sched/solstice.h"
#include "sim/engine/driver.h"
#include "sim/engine/scenario.h"
#include "trace/bounds.h"
#include "trace/demand_matrix.h"
#include "trace/extsort.h"
#include "trace/generator.h"
#include "trace/stream.h"

namespace {

using namespace sunflow;
using Clock = std::chrono::steady_clock;

// §5.1 setup shared by every workload: the calibrated 150-port synthetic
// trace (fixed generator seed), 1 Gbps links, δ = 10 ms, and ±5% flow-size
// perturbation floored at 1 MB. --seed drives only the perturbation, so
// every seed is a fresh instance of one family with near-equal work.
constexpr std::uint64_t kTraceSeed = 20161212;
constexpr PortId kPorts = 150;
constexpr int kPaperCoflows = 526;
constexpr double kPerturb = 0.05;
constexpr Bandwidth kBandwidth = Gbps(1);
constexpr Time kDelta = Millis(10);

enum class Kind { kInter, kIntra, kStream };

struct WorkloadSpec {
  Kind kind = Kind::kInter;
  /// paper_*: the first `coflows` arrivals of the 526-coflow trace.
  /// stream_scale: a fresh i.i.d.-arrival trace of this many coflows over
  /// a horizon scaled to keep the paper's offered load.
  int coflows = 0;
};

// Sizes keep one replay within a few seconds (paper_inter: ~15 s, Aalo
// being dominated by the trace's early wide coflows), so every run holds
// several cold replays.
WorkloadSpec FindWorkload(const std::string& name) {
  if (name == "paper_inter") return {Kind::kInter, 100};
  if (name == "paper_intra") return {Kind::kIntra, 80};
  if (name == "stream_scale") return {Kind::kStream, 400};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// External-sort run budget for stream_scale: small enough that the sort
/// spills several runs and merges them.
constexpr std::size_t kSortRunBytes = 1u << 20;

double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Flat JSON object writer: numbers at full precision, plain strings.
class JsonLine {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Add(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Add(key, "\"" + v + "\"");
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void Add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

/// Times every TraceReader::Next call it forwards (trace.read_s).
class TimedSource final : public CoflowSource {
 public:
  explicit TimedSource(CoflowSource& inner) : inner_(&inner) {}
  PortId num_ports() const override { return inner_->num_ports(); }
  std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }
  bool Next(Coflow& out) override {
    const auto begin = Clock::now();
    const bool more = inner_->Next(out);
    seconds_ += SecondsSince(begin);
    return more;
  }
  double seconds() const { return seconds_; }

 private:
  CoflowSource* inner_;
  double seconds_ = 0;
};

/// Pays the full emission cost of every event but stores none of them, so
/// the traced run's memory stays that of the untraced one.
class CountingSink final : public obs::TraceSink {
 public:
  void OnEvent(const obs::Event&) override { ++events_; }
  std::uint64_t events() const { return events_; }

 private:
  std::uint64_t events_ = 0;
};

// --------------------------------------------------------------- setup --

int Setup(const WorkloadSpec& w, std::uint64_t seed, const std::string& dir) {
  const std::string input = dir + "/input.sft";
  const auto begin = Clock::now();
  double generate_s = 0, write_s = 0, sort_s = 0;
  std::uint64_t payload_bytes = 0, sort_runs = 0;
  if (w.kind != Kind::kStream) {
    auto t = Clock::now();
    SyntheticTraceConfig cfg;
    cfg.num_ports = kPorts;
    cfg.num_coflows = kPaperCoflows;
    cfg.seed = kTraceSeed;
    Trace paper = PerturbFlowSizes(GenerateSyntheticTrace(cfg), kPerturb,
                                   MB(1), seed + 1);
    paper.coflows.resize(static_cast<std::size_t>(w.coflows));
    generate_s = SecondsSince(t);
    t = Clock::now();
    TraceWriter writer(input, paper.num_ports);
    for (const Coflow& c : paper.coflows) writer.Append(c);
    writer.Close();
    write_s = SecondsSince(t);
    payload_bytes = writer.stats().payload_bytes;
  } else {
    // Generation order is not arrival order here; the sorter fixes that.
    const std::string unsorted = dir + "/unsorted.sft";
    SyntheticTraceConfig cfg;
    cfg.num_ports = kPorts;
    cfg.num_coflows = w.coflows;
    cfg.seed = kTraceSeed;
    cfg.horizon = 3600.0 * w.coflows / kPaperCoflows;
    cfg.iid_arrivals = true;
    auto t = Clock::now();
    {
      TraceWriter writer(unsorted, kPorts);
      GenerateSyntheticTrace(cfg, [&](Coflow&& c) {
        Trace one;
        one.num_ports = kPorts;
        one.coflows.push_back(std::move(c));
        const std::uint64_t coflow_seed =
            (seed + 1) * 1000003u + static_cast<std::uint64_t>(
                                        one.coflows[0].id());
        const Trace perturbed =
            PerturbFlowSizes(one, kPerturb, MB(1), coflow_seed);
        const auto w0 = Clock::now();
        writer.Append(perturbed.coflows[0]);
        write_s += SecondsSince(w0);
      });
      const auto w0 = Clock::now();
      writer.Close();
      write_s += SecondsSince(w0);
      payload_bytes = writer.stats().payload_bytes;
    }
    generate_s = SecondsSince(t) - write_s;
    t = Clock::now();
    ExtSortOptions so;
    so.run_payload_bytes = kSortRunBytes;
    const ExtSortStats stats = ExternalSortTrace(unsorted, input, so);
    sort_s = SecondsSince(t);
    sort_runs = stats.runs;
    std::remove(unsorted.c_str());
  }
  const double setup_s = SecondsSince(begin);

  JsonLine out;
  out.Num("setup_s", setup_s);
  out.Num("trace.generate_s", generate_s);
  out.Num("trace.write_s", write_s);
  out.Num("trace.write_mb_s", payload_bytes / 1e6 / write_s);
  out.Num("trace.sort_s", sort_s);
  out.Num("trace.sort_runs", static_cast<double>(sort_runs));
  out.Num("trace.payload_mb", payload_bytes / 1e6);
  out.Print();
  return 0;
}

// ----------------------------------------------------------------- run --

/// One arm's per-coflow outcomes, checked against the paper's bounds.
struct Arm {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  double cct_sum = 0;

  /// CCT ≥ TpL always; intra Sunflow also TcL ≤ CCT ≤ 2·TcL (Lemma 1).
  void Check(const Coflow& c, const Time* cct, bool lemma1) {
    ++attempted;
    if (cct == nullptr) {
      ++failed;
      return;
    }
    ++completed;
    cct_sum += *cct;
    const double slack = 1e-9 * std::max(1.0, *cct);
    bool ok = *cct + slack >= PacketLowerBound(c, kBandwidth);
    if (lemma1) {
      const Time tcl = CircuitLowerBound(c, kBandwidth, kDelta);
      ok = ok && *cct + slack >= tcl && *cct <= 2 * tcl + slack;
    }
    if (!ok) ++failed;
  }
  void CheckAll(const Trace& trace, const std::map<CoflowId, Time>& cct) {
    for (const Coflow& c : trace.coflows) {
      const auto it = cct.find(c.id());
      Check(c, it == cct.end() ? nullptr : &it->second, false);
    }
  }
};

double Percentile(std::vector<double> xs, double pct) {
  return xs.empty() ? 0 : stats::Percentile(xs, pct);
}

Trace LoadInput(const std::string& path, double& read_s) {
  TraceReader reader(path);
  TimedSource timed(reader);
  Trace trace = MaterializeSource(timed);
  read_s = timed.seconds();
  return trace;
}

int Run(const WorkloadSpec& w, std::uint64_t seed, const std::string& dir,
        const std::string& mode) {
  if (mode != "plain" && mode != "layers" && mode != "obs")
    throw std::invalid_argument("unknown mode '" + mode + "'");
  obs::SetProfilingEnabled(mode == "layers");
  const std::string input = dir + "/input.sft";
  const int pool_size = std::min(runtime::HardwareConcurrency(), 4);

  CountingSink counting_sink;
  obs::TraceSink* sink = mode == "obs" ? &counting_sink : nullptr;
  obs::TimelineConfig tc;
  tc.include_wall = true;
  obs::TimelineSampler sampler(tc);
  obs::TimelineSampler* timeline = mode == "layers" ? &sampler : nullptr;

  engine::EngineConfig ec;
  ec.sunflow.bandwidth = kBandwidth;
  ec.sunflow.delta = kDelta;
  ec.sink = sink;
  ec.timeline = timeline;
  const auto policy = MakeShortestFirstPolicy();

  JsonLine out;
  std::vector<Arm> arms;
  double wall_s = 0, read_s = 0, engine_s = 0, traced_arms_s = 0;
  engine::EngineResult er;
  bool ran_engine = false;
  double varys_s = 0, aalo_s = 0;
  std::size_t varys_reschedules = 0, aalo_reschedules = 0;
  std::vector<double> intra_ns, solstice_ns;
  std::uint64_t solstice_switches = 0;

  if (w.kind == Kind::kIntra) {
    // Fig 3/5: each coflow planned alone from an empty PRT, back to back.
    const Trace trace = LoadInput(input, read_s);
    SunflowConfig sc;
    sc.bandwidth = kBandwidth;
    sc.delta = kDelta;
    Arm sunflow{"sunflow"}, solstice{"solstice"};
    const auto begin = Clock::now();
    for (const Coflow& c : trace.coflows) {
      const Coflow at_zero = c.WithArrival(0);
      const auto t = Clock::now();
      try {
        const SunflowSchedule s =
            ScheduleSingleCoflow(at_zero, trace.num_ports, sc, sink);
        intra_ns.push_back(SecondsSince(t) * 1e9);
        const auto it = s.completion_time.find(c.id());
        sunflow.Check(c, it == s.completion_time.end() ? nullptr : &it->second,
                      true);
      } catch (const std::exception&) {
        sunflow.Check(c, nullptr, true);
      }
    }
    for (const Coflow& c : trace.coflows) {
      try {
        DemandMatrix demand(c, kBandwidth);
        demand.MakeSquare();
        const auto t = Clock::now();
        const AssignmentSchedule s = ScheduleSolstice(demand);
        solstice_ns.push_back(SecondsSince(t) * 1e9);
        const ExecutionResult exec =
            ExecuteNotAllStop(demand, s, kDelta, 0, sink, c.id());
        solstice_switches += static_cast<std::uint64_t>(exec.circuit_setups);
        solstice.Check(c, &exec.cct, false);
      } catch (const std::exception&) {
        solstice.Check(c, nullptr, false);
      }
    }
    wall_s = SecondsSince(begin);
    traced_arms_s = wall_s;
    arms = {sunflow, solstice};
  } else if (w.kind == Kind::kInter) {
    // §5.4 original load: circuit replay, then Varys, then Aalo.
    const Trace trace = LoadInput(input, read_s);
    runtime::ThreadPool pool(pool_size);
    ec.plan_pool = &pool;
    packet::PacketReplayConfig varys_cfg;
    varys_cfg.bandwidth = kBandwidth;
    packet::PacketReplayConfig aalo_cfg = varys_cfg;
    aalo_cfg.reallocate_on_flow_completion = true;
    aalo_cfg.track_queue_crossings = true;

    const auto begin = Clock::now();
    auto t = Clock::now();
    er = engine::ScenarioRegistry::Global().Run("circuit", trace,
                                                policy.get(), ec);
    engine_s = SecondsSince(t);
    ran_engine = true;
    t = Clock::now();
    const auto varys_alloc = packet::MakeVarysAllocator();
    const packet::PacketReplayResult varys =
        packet::ReplayPacketTrace(trace, *varys_alloc, varys_cfg);
    varys_s = SecondsSince(t);
    t = Clock::now();
    const auto aalo_alloc = packet::MakeAaloAllocator();
    const packet::PacketReplayResult aalo =
        packet::ReplayPacketTrace(trace, *aalo_alloc, aalo_cfg);
    aalo_s = SecondsSince(t);
    wall_s = SecondsSince(begin);
    traced_arms_s = engine_s;
    varys_reschedules = varys.reschedules;
    aalo_reschedules = aalo.reschedules;

    Arm circuit{"circuit"}, varys_arm{"varys"}, aalo_arm{"aalo"};
    circuit.CheckAll(trace, er.cct);
    varys_arm.CheckAll(trace, varys.cct);
    aalo_arm.CheckAll(trace, aalo.cct);
    arms = {circuit, varys_arm, aalo_arm};
  } else {
    // Out-of-core: the sorted stream replayed with a completion sink; the
    // pool serves both the planner and the reader's block prefetch.
    runtime::ThreadPool pool(pool_size);
    ec.plan_pool = &pool;
    TraceStreamOptions so;
    so.pool = &pool;
    std::vector<std::pair<CoflowId, Time>> done;
    {
      TraceReader reader(input, so);
      TimedSource timed(reader);
      done.reserve(reader.size_hint().value_or(0));
      const auto scenario =
          engine::MakeCircuitScenario(reader.num_ports(), *policy, ec);
      const auto begin = Clock::now();
      er = engine::RunScenarioStream(
          timed, *scenario, sink, timeline,
          [&](const engine::CompletionRecord& r) {
            done.emplace_back(r.id, r.cct);
          });
      wall_s = SecondsSince(begin);
      read_s = timed.seconds();
    }
    engine_s = wall_s - read_s;
    traced_arms_s = engine_s;
    ran_engine = true;
    // Checked after the clock stopped, against a second (untimed) read.
    const std::map<CoflowId, Time> cct(done.begin(), done.end());
    Arm circuit{"circuit"};
    TraceReader reader(input);
    Coflow c;
    while (reader.Next(c)) {
      const auto it = cct.find(c.id());
      circuit.Check(c, it == cct.end() ? nullptr : &it->second, false);
    }
    arms = {circuit};
  }
  const double peak_rss_mb = PeakRssMb();

  std::uint64_t attempted = 0, failed = 0, completed = 0;
  for (const Arm& a : arms) {
    attempted += a.attempted;
    failed += a.failed;
    completed += a.completed;
    out.Num("avg_cct." + a.name,
            a.completed > 0 ? a.cct_sum / static_cast<double>(a.completed)
                            : 0);
    out.Num("attempted." + a.name, static_cast<double>(a.attempted));
    out.Num("failed." + a.name, static_cast<double>(a.failed));
  }
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Num("wall_s", wall_s);
  out.Num("coflows_per_s", static_cast<double>(completed) / wall_s);
  out.Num("peak_rss_mb", peak_rss_mb);
  out.Num("traced_arms_s", traced_arms_s);

  // Layer attribution: times measured around the calls above, plus the
  // counts the calls and the existing instrumentation already keep.
  out.Num("trace.read_s", read_s);
  out.Num("engine.replay_s", engine_s);
  out.Num("engine.replans", ran_engine ? static_cast<double>(er.replans) : 0);
  out.Num("engine.replans_per_s",
          ran_engine ? static_cast<double>(er.replans) / engine_s : 0);
  out.Num("engine.event_pushes", static_cast<double>(er.queue.pushes));
  out.Num("engine.event_pops", static_cast<double>(er.queue.pops));
  out.Num("engine.queue_hwm", static_cast<double>(er.queue.depth_high_water));
  const obs::ReplanSloStats slo = sampler.Summarize().slo;
  out.Num("engine.replan_p50_us", slo.p50_ns / 1e3);
  out.Num("engine.replan_p99_us", slo.p99_ns / 1e3);

  double intra_sum = 0;
  for (double ns : intra_ns) intra_sum += ns;
  out.Num("core.intra_plan_s", intra_sum / 1e9);
  out.Num("core.intra_plan_p50_us", Percentile(intra_ns, 50) / 1e3);
  out.Num("core.intra_plan_p99_us", Percentile(intra_ns, 99) / 1e3);
  const auto counter = [](const char* name) {
    const obs::Counter* c = obs::GlobalMetrics().FindCounter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  out.Num("core.memo_hits", counter("plan.cache_hits"));
  out.Num("core.memo_misses", counter("plan.cache_misses"));
  out.Num("core.parallel_groups", counter("plan.parallel_groups"));
  out.Num("core.parallel_fallbacks", counter("plan.parallel_fallbacks"));
  out.Num("core.prt_reservations", counter("prt.reservations"));

  double solstice_sum = 0;
  for (double ns : solstice_ns) solstice_sum += ns;
  out.Num("sched.solstice_s", solstice_sum / 1e9);
  out.Num("sched.solstice_p99_us", Percentile(solstice_ns, 99) / 1e3);
  out.Num("sched.solstice_switches", static_cast<double>(solstice_switches));

  out.Num("packet.varys_s", varys_s);
  out.Num("packet.aalo_s", aalo_s);
  out.Num("packet.varys_reschedules", static_cast<double>(varys_reschedules));
  out.Num("packet.aalo_reschedules", static_cast<double>(aalo_reschedules));
  out.Num("packet.aalo_us_per_reschedule",
          aalo_reschedules > 0 ? aalo_s * 1e6 / aalo_reschedules : 0);

  out.Num("obs.events", static_cast<double>(counting_sink.events()));

  // Self times only: engine.plan is recorded flat beside the nested
  // core.plan scope, so inclusive totals would count planning twice.
  const obs::Profiler profile = obs::GlobalProfiler().Merged();
  for (const char* phase : {"engine.admit", "engine.plan", "engine.execute",
                            "engine.harvest", "core.plan", "prt.reserve"}) {
    const obs::PhaseStats* p = profile.FindPhase(phase);
    out.Num(std::string("profile.") + phase + "_s",
            p == nullptr ? 0 : p->self_ns / 1e9);
  }

  out.Str("version", VersionString("perfbench"));
  out.Str("build_type", SUNFLOW_CMAKE_BUILD_TYPE);
  out.Num("nproc", runtime::HardwareConcurrency());
  out.Num("pool_threads", w.kind == Kind::kIntra ? 1 : pool_size);
  out.Num("seed", static_cast<double>(seed));
  out.Num("coflows", static_cast<double>(w.coflows));
  out.Num("ports", kPorts);
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliFlags flags(argc, argv);
    const std::string phase = flags.GetString("phase", "", "setup | run");
    const WorkloadSpec w = FindWorkload(
        flags.GetString("workload", "", "paper_inter | paper_intra | "
                                        "stream_scale"));
    const auto seed =
        static_cast<std::uint64_t>(flags.GetInt("seed", 20161212, "seed"));
    const std::string dir = flags.GetString("dir", ".", "work directory");
    if (phase == "setup") return Setup(w, seed, dir);
    if (phase == "run")
      return Run(w, seed, dir, flags.GetString("mode", "plain", "run mode"));
    std::fprintf(stderr, "perfbench: --phase must be setup or run\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 1;
}
