// Shared workload construction and session plumbing for the bench
// binaries.
//
// Every bench accepts the same flags so experiments are reproducible and
// scalable: --coflows, --ports, --seed, --perturb, --threads, and (where
// meaningful) --bandwidth_gbps / --delta_ms. The default workload matches §5.1: a
// 526-coflow, 150-port one-hour trace with ±5% flow-size perturbation
// floored at 1 MB. Pass --trace=<file> to use a real coflow-benchmark file
// (e.g. FB2010-1Hr-150-0.txt) instead of the synthetic trace.
//
// BenchSession below is the one-stop preamble/epilogue: flags, workload,
// --threads/--engine, the event tracer, and the run manifest every bench
// emits (obs/manifest.h). A bench main is
//   bench::BenchSession s(argc, argv, {.name = "fig5_switching",
//                                      .help = "...", .banner = "..."});
//   ... register bench-specific flags via s.flags() ...
//   if (s.done()) return 0;   // --help path; else prints the banner
//   ... run, using s.workload()/s.threads()/s.engine()/s.sink() ...
//   return s.Finish();
// Finish (or the destructor, which also runs when the bench throws)
// flushes the trace, reports metrics, and writes the manifest.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "exp/csv_export.h"
#include "sim/engine/scenario.h"
#include "obs/attribution.h"
#include "obs/chrome_trace.h"
#include "obs/jsonl.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "obs/trace_sink.h"
#include "runtime/thread_pool.h"
#include "trace/coflow.h"
#include "trace/generator.h"
#include "trace/parser.h"

namespace sunflow::bench {

struct Workload {
  Trace trace;
  std::string description;
  std::uint64_t seed = 0;  ///< the --seed flag (for run manifests)
};

inline Workload LoadWorkload(CliFlags& flags) {
  const std::string path = flags.GetString(
      "trace", "", "coflow-benchmark trace file (empty = synthetic)");
  const auto coflows =
      flags.GetInt("coflows", 526, "synthetic trace: number of coflows");
  const auto ports = flags.GetInt("ports", 150, "synthetic trace: fabric ports");
  const auto seed = flags.GetInt("seed", 20161212, "synthetic trace seed");
  const double perturb =
      flags.GetDouble("perturb", 0.05, "flow-size perturbation fraction");

  Workload w;
  w.seed = static_cast<std::uint64_t>(seed);
  if (!path.empty()) {
    w.trace = ParseCoflowBenchmarkFile(path);
    w.description = "trace file " + path;
  } else {
    SyntheticTraceConfig cfg;
    cfg.num_coflows = static_cast<int>(coflows);
    cfg.num_ports = static_cast<PortId>(ports);
    cfg.seed = static_cast<std::uint64_t>(seed);
    w.trace = GenerateSyntheticTrace(cfg);
    w.description = "synthetic FB-like trace (" + std::to_string(coflows) +
                    " coflows, " + std::to_string(ports) + " ports, seed " +
                    std::to_string(seed) + ")";
  }
  if (perturb > 0) {
    w.trace = PerturbFlowSizes(w.trace, perturb, MB(1),
                               static_cast<std::uint64_t>(seed) + 1);
    w.description += ", ±" + std::to_string(static_cast<int>(perturb * 100)) +
                     "% perturbation";
  }
  return w;
}

/// The shared --threads flag: worker threads for the parallel sweep
/// engine (src/runtime). The default uses every hardware thread; results
/// are bit-identical at any value — deterministic sharding plus the
/// sharded-merge obs contract mean --threads only changes wall-clock
/// time, never output. Pass --threads=1 for a serial run.
inline int Threads(CliFlags& flags) {
  const auto n = flags.GetInt(
      "threads", 0,
      "worker threads for parallel sweeps (0 = all hardware threads; "
      "output is identical at any value)");
  return n <= 0 ? runtime::HardwareConcurrency() : static_cast<int>(n);
}

/// The shared --engine flag of the inter benches: which registered
/// simulation-kernel scenario (sim/engine) replays the trace. They default
/// to "circuit" (the paper's Sunflow replay). The help text lists the
/// registry so new scenarios are discoverable without touching the benches.
inline std::string Engine(CliFlags& flags, const std::string& def) {
  std::string names;
  for (const auto& [name, desc] : engine::ScenarioRegistry::Global().List()) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return flags.GetString("engine", def,
                         "simulation kernel scenario (registered: " + names +
                             ")");
}

/// Standard preamble: handles --help, prints the workload banner.
inline bool HandleHelp(CliFlags& flags, const std::string& what) {
  if (flags.help_requested()) {
    flags.PrintHelp(what);
    return true;
  }
  return false;
}

inline void Banner(const std::string& title, const Workload& w) {
  if (w.description.empty()) {
    std::printf("### %s\n\n", title.c_str());
  } else {
    std::printf("### %s\n### workload: %s\n\n", title.c_str(),
                w.description.c_str());
  }
}

/// Structured-tracing and metrics support shared by the bench binaries.
/// Pass --trace_out=<file> to record the run's events: a ".jsonl" suffix
/// writes the compact line format (inspect with sunflow_trace_inspect),
/// anything else writes Chrome trace-event JSON (open in Perfetto or
/// chrome://tracing). Without the flag, sink() is null and tracing
/// compiles down to a skipped branch at every emission site. --metrics
/// prints the global registry at exit; --metrics_csv=<file> dumps it as
/// CSV. Construct before HandleHelp so the flags appear in --help.
///
/// Durability: Finish() is idempotent and the destructor calls it, so the
/// buffered trace reaches disk even when the bench exits early or unwinds
/// through an exception (a destructor-context failure is reported to
/// stderr instead of throwing).
class BenchTracer {
 public:
  explicit BenchTracer(CliFlags& flags)
      : path_(flags.GetString(
            "trace_out", "",
            "write a structured event trace (.jsonl = compact lines, "
            "otherwise Chrome trace JSON)")),
        print_metrics_(
            flags.GetBool("metrics", false, "print the metrics registry")),
        metrics_csv_(flags.GetString(
            "metrics_csv", "", "write the metrics registry as CSV")) {
    // Fail before the run, not after: a typo'd path should not cost a
    // full bench execution.
    if (!path_.empty() && !std::ofstream(path_)) {
      throw std::runtime_error("cannot open trace output " + path_);
    }
  }

  BenchTracer(const BenchTracer&) = delete;
  BenchTracer& operator=(const BenchTracer&) = delete;

  ~BenchTracer() {
    try {
      Finish();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench tracer: %s\n", e.what());
    }
  }

  obs::TraceSink* sink() { return path_.empty() ? nullptr : &sink_; }
  bool enabled() const { return !path_.empty(); }
  const std::vector<obs::Event>& events() const { return sink_.events(); }

  /// Writes the buffered events (if tracing was requested) and reports
  /// where they went. Idempotent: the first call wins, later calls (and
  /// the destructor) are no-ops.
  void Finish() {
    if (path_.empty() || finished_) return;
    finished_ = true;
    if (path_.size() >= 6 &&
        path_.compare(path_.size() - 6, 6, ".jsonl") == 0) {
      std::ofstream f(path_);
      if (!f) throw std::runtime_error("cannot open " + path_);
      obs::WriteJsonl(f, sink_.events());
      f.flush();
      if (!f) throw std::runtime_error("failed writing " + path_);
    } else {
      obs::WriteChromeTraceFile(path_, sink_.events());
    }
    std::printf("\nwrote %zu trace events to %s\n", sink_.events().size(),
                path_.c_str());
    if (sink_.events().empty()) {
      std::fprintf(stderr,
                   "warning: --trace_out recorded no events: this bench "
                   "does not attach the trace sink to its runs\n");
    }
  }

  /// Dumps the global metrics registry as requested by --metrics /
  /// --metrics_csv. Call once at the end of the bench.
  void ReportMetrics() const {
    if (print_metrics_) {
      std::printf("\n--- metrics ---\n");
      obs::GlobalMetrics().WriteText(std::cout);
    }
    if (!metrics_csv_.empty()) {
      exp::WriteMetricsCsv(metrics_csv_, obs::GlobalMetrics().Merged());
      std::printf("wrote metrics to %s\n", metrics_csv_.c_str());
    }
  }

 private:
  std::string path_;
  bool print_metrics_ = false;
  bool finished_ = false;
  std::string metrics_csv_;
  obs::MemorySink sink_;
};

struct BenchOptions {
  std::string name = {};    ///< tool name: manifest + default manifest file
  std::string help = {};    ///< --help description
  std::string banner = {};  ///< printed banner (defaults to `help`)
  /// Default for the shared --engine flag; nullopt skips registering it.
  std::optional<std::string> engine_default = std::nullopt;
  /// Registers the --timeline_* flags. Set it only in a bench that hands
  /// timeline() to a replay: elsewhere nothing would feed the sampler.
  bool use_timeline = false;
  bool load_workload = true;
};

/// The standard bench preamble/epilogue as one RAII object: parses flags,
/// loads the workload, registers --threads/--engine, owns the tracer and
/// the run manifest (obs/manifest.h), handles --help, prints the banner.
/// Finish() — or the destructor, including during exception unwind —
/// flushes the trace, reports metrics, finalizes the manifest (wall time,
/// peak RSS, merged metrics + phase-profile snapshot, profiler-overhead
/// estimate) and writes it to --manifest_out (default
/// "<name>.manifest.json"; empty skips).
class BenchSession {
 public:
  BenchSession(int argc, char** argv, BenchOptions opts)
      : opts_(std::move(opts)),
        flags_(argc, argv),
        manifest_(obs::RunManifest::Begin(opts_.name, argc, argv)) {
    if (opts_.load_workload) workload_ = LoadWorkload(flags_);
    threads_ = Threads(flags_);
    if (opts_.engine_default.has_value())
      engine_ = Engine(flags_, *opts_.engine_default);
    tracer_.emplace(flags_);
    if (opts_.use_timeline) AddTimelineFlags();
    manifest_path_ = flags_.GetString(
        "manifest_out", opts_.name + ".manifest.json",
        "write the self-describing run manifest JSON (empty = skip)");
    if (flags_.GetBool("no_profile", false,
                       "disable the phase profiler for this run")) {
      obs::SetProfilingEnabled(false);
    }
  }

  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;

  ~BenchSession() {
    try {
      Finish();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench session: %s\n", e.what());
    }
  }

  /// Call once after registering bench-specific flags: on --help, prints
  /// the help text (covering the just-registered flags) and returns true
  /// — main should return 0 and the manifest is suppressed. A flag no
  /// Get* call registered is a typo or belongs to another bench: it is
  /// named on stderr and the process exits 1 before any run. Otherwise
  /// prints the workload banner and returns false.
  bool done() {
    if (flags_.help_requested()) {
      flags_.PrintHelp(opts_.help);
      done_ = true;
      return true;
    }
    const std::vector<std::string> unknown = flags_.Unregistered();
    if (!unknown.empty()) {
      for (const std::string& name : unknown)
        std::fprintf(stderr, "unknown flag --%s; see --help\n", name.c_str());
      std::exit(1);
    }
    Banner(opts_.banner.empty() ? opts_.help : opts_.banner, workload_);
    return false;
  }

  CliFlags& flags() { return flags_; }
  const Workload& workload() const { return workload_; }
  const Trace& trace() const { return workload_.trace; }
  int threads() const { return threads_; }
  const std::string& engine() const { return engine_; }
  BenchTracer& tracer() { return *tracer_; }
  obs::TraceSink* sink() { return tracer_->sink(); }
  /// The telemetry sampler, or null when --timeline_out was not given.
  /// Wire it into EngineConfig::timeline / InterRunConfig::timeline for
  /// the run that should be charted.
  obs::TimelineSampler* timeline() {
    return timeline_.has_value() ? &*timeline_ : nullptr;
  }
  /// Bench-specific scalars surfaced in the manifest's "run" object.
  void AddManifestValue(const std::string& key, double value) {
    manifest_.extra[key] = value;
  }
  /// For benches that skip LoadWorkload but still have a seed to record.
  void SetManifestSeed(std::uint64_t seed) { workload_.seed = seed; }

  /// Epilogue: trace flush + metrics report + manifest emission. Runs at
  /// most once; returns 0 so a bench can `return session.Finish();`.
  int Finish() {
    if (finished_ || done_) return 0;
    finished_ = true;
    tracer_->Finish();
    tracer_->ReportMetrics();
    // When the run was traced, fold the CCT attribution aggregates into
    // the manifest so a regression in δ overhead or contention shows up
    // in bench_compare's informational rows without re-reading the trace.
    if (tracer_->enabled() && !tracer_->events().empty()) {
      const obs::AttributionReport attr = obs::Attribute(tracer_->events());
      if (attr.total_cct > 0) {
        AddManifestValue("attr.delta_fraction", attr.delta_fraction);
        AddManifestValue("attr.contention_fraction", attr.contention_fraction);
        AddManifestValue("attr.transmit_fraction", attr.transmit_fraction);
        AddManifestValue("attr.starvation_fraction", attr.starvation_fraction);
      }
    }
    if (timeline_.has_value() && !timeline_->empty()) {
      std::ofstream f(timeline_path_);
      if (!f) {
        throw std::runtime_error("cannot open " + timeline_path_);
      }
      timeline_->WriteCsv(f);
      f.flush();
      if (!f) throw std::runtime_error("failed writing " + timeline_path_);
      std::printf("wrote %zu timeline samples to %s\n",
                  timeline_->samples().size(), timeline_path_.c_str());
      // The aggregates come from exact accumulators, not the decimated
      // samples; the wall-latency ones are host-dependent, which is fine
      // here — manifests are never byte-diffed (bench_compare treats
      // non-rate extras as informational rows).
      const obs::TimelineSummary ts = timeline_->Summarize();
      AddManifestValue("util.mean", ts.util_mean);
      AddManifestValue("util.p99", ts.util_p99);
      AddManifestValue("idle.fraction", ts.idle_fraction);
      AddManifestValue("engine.active_fraction", ts.engine_active_fraction);
      AddManifestValue("timeline.samples",
                       static_cast<double>(ts.samples));
      AddManifestValue("timeline.decimations",
                       static_cast<double>(ts.decimations));
      AddManifestValue("replan.p50_us", ts.slo.p50_ns / 1e3);
      AddManifestValue("replan.p99_us", ts.slo.p99_ns / 1e3);
      AddManifestValue("replan.max_us", ts.slo.max_ns / 1e3);
      AddManifestValue("slo.burn", static_cast<double>(ts.slo.burn));
      if (ts.slo.first_breach_t >= 0)
        AddManifestValue("slo.first_breach_t", ts.slo.first_breach_t);
    }
    if (!manifest_path_.empty()) {
      manifest_.seed = workload_.seed;
      manifest_.threads = threads_;
      manifest_.Finalize();
      manifest_.WriteFile(manifest_path_);
      std::printf("wrote run manifest to %s\n", manifest_path_.c_str());
    }
    return 0;
  }

 private:
  /// Telemetry-timeline flags (obs/timeline.h). The sampler exists only
  /// when an output path was given, so default runs skip every sampling
  /// branch.
  void AddTimelineFlags() {
    timeline_path_ = flags_.GetString(
        "timeline_out", "",
        "write the sim-time telemetry timeline as CSV; also folds "
        "util.*/idle.*/replan.*/slo.* aggregates into the run manifest");
    const double timeline_dt_ms = flags_.GetDouble(
        "timeline_dt_ms", 100.0, "timeline sample window, sim milliseconds");
    const auto timeline_cap = flags_.GetInt(
        "timeline_cap", 4096,
        "max retained timeline samples; at the cap the buffer halves "
        "resolution (adjacent-sample merge) so memory stays bounded");
    const double timeline_slo_us = flags_.GetDouble(
        "timeline_slo_us", 0.0,
        "replan wall-latency SLO budget in microseconds (0 = no SLO)");
    const bool timeline_wall = flags_.GetBool(
        "timeline_wall", false,
        "include host-dependent columns (replan wall latency) in the "
        "timeline export; off keeps the file byte-identical at any "
        "--threads");
    if (!timeline_path_.empty()) {
      if (!std::ofstream(timeline_path_)) {
        throw std::runtime_error("cannot open timeline output " +
                                 timeline_path_);
      }
      obs::TimelineConfig tc;
      tc.dt = timeline_dt_ms / 1e3;
      tc.cap = static_cast<std::size_t>(std::max<long long>(timeline_cap, 2));
      tc.slo_budget_us = timeline_slo_us;
      tc.include_wall = timeline_wall;
      timeline_.emplace(tc);
    }
  }

  BenchOptions opts_;
  CliFlags flags_;
  obs::RunManifest manifest_;
  Workload workload_;
  int threads_ = 1;
  std::string engine_;
  std::optional<BenchTracer> tracer_;
  std::optional<obs::TimelineSampler> timeline_;
  std::string timeline_path_;
  std::string manifest_path_;
  bool done_ = false;
  bool finished_ = false;
};

}  // namespace sunflow::bench
