// Run manifest — one self-describing JSON artifact per run.
//
// Every bench and runner invocation records what ran (tool, argv, git
// SHA, build type, compiler), where (host kernel + architecture +
// hardware threads), with what inputs (seed, worker threads), and what it
// cost (wall time, peak RSS) — plus a merged snapshot of the metrics
// registry's instruments and profiled phases, and a calibrated estimate of
// the profiler's own overhead. A manifest is the unit the bench regression
// harness (bench/harness.py) aggregates and tools/bench_compare diffs,
// so a number in a BENCH_*.json trajectory can always be traced back to
// the exact configuration that produced it.
//
// Usage (BenchSession in bench/bench_util.h wires this up for benches):
//   auto manifest = obs::RunManifest::Begin("fig5_switching", argc, argv);
//   ... run ...
//   manifest.Finalize();             // wall time, RSS, obs snapshots
//   manifest.WriteFile("fig5_switching.manifest.json");
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace sunflow::obs {

inline constexpr const char* kRunManifestSchema = "sunflow.run_manifest/v1";

struct RunManifest {
  /// Captures start time and the static environment (git, build,
  /// compiler, host). argv may be null (argc 0) for in-process runs.
  static RunManifest Begin(std::string tool, int argc = 0,
                           const char* const* argv = nullptr);

  // --- Identity and environment (filled by Begin) -----------------------
  std::string tool;
  std::vector<std::string> argv;
  std::string git_sha;
  bool git_dirty = false;
  std::string build_type;
  std::string compiler;
  std::string host;          ///< "<sysname> <release> <machine>"
  int hardware_threads = 0;
  std::int64_t created_unix = 0;

  // --- Run parameters (filled by the caller before Finalize) ------------
  std::uint64_t seed = 0;
  int threads = 0;
  /// Bench-specific scalars (e.g. coflows, ports) surfaced at top level.
  std::map<std::string, double> extra;

  // --- Measured outcome (filled by Finalize) ----------------------------
  double wall_ns = 0;
  std::int64_t peak_rss_kb = 0;  ///< getrusage ru_maxrss; 0 where unsupported
  std::vector<MetricRow> metrics;
  std::vector<ProfileRow> profile;
  std::uint64_t profile_scopes = 0;   ///< total scope entries recorded
  double profile_ns_per_scope = 0;    ///< calibrated per-scope cost
  double profile_overhead_fraction = 0;  ///< scopes * cost / wall_ns

  /// Stamps wall time and peak RSS and snapshots GlobalMetrics()'s
  /// instruments and phases (call only after workers have quiesced). Safe to
  /// call more than once; later calls refresh the snapshots.
  void Finalize();

  /// Serializes to the sunflow.run_manifest/v1 JSON schema.
  JsonValue ToJson() const;
  void WriteJson(std::ostream& out, int indent = 2) const;
  /// Writes the file, fsync-free but flush-checked: throws
  /// std::runtime_error if the file cannot be opened or written.
  void WriteFile(const std::string& path, int indent = 2) const;

  /// Rebuilds a manifest from ToJson() output (round-trip for tests and
  /// the compare tooling). Throws std::runtime_error on schema mismatch.
  static RunManifest FromJson(const JsonValue& json);

 private:
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace sunflow::obs
