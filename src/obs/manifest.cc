#include "obs/manifest.h"

#include <ctime>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/utsname.h>
#endif

#include "obs/profiler.h"

#if __has_include("sunflow_version.h")
#include "sunflow_version.h"
#else  // building without the CMake-generated header (e.g. bare tooling)
#define SUNFLOW_GIT_SHA "unknown"
#define SUNFLOW_GIT_DIRTY 0
#define SUNFLOW_CMAKE_BUILD_TYPE "unknown"
#endif

namespace sunflow::obs {

namespace {

std::string HostDescription() {
#if defined(__unix__) || defined(__APPLE__)
  utsname u{};
  if (uname(&u) == 0) {
    return std::string(u.sysname) + " " + u.release + " " + u.machine;
  }
#endif
  return "unknown";
}

std::int64_t PeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return usage.ru_maxrss / 1024;  // bytes on macOS
#else
    return usage.ru_maxrss;  // kilobytes on Linux
#endif
  }
#endif
  return 0;
}

std::string CompilerDescription() {
#if defined(__VERSION__)
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#else
  return std::string("gcc ") + __VERSION__;
#endif
#else
  return "unknown";
#endif
}

}  // namespace

RunManifest RunManifest::Begin(std::string tool, int argc,
                               const char* const* argv) {
  RunManifest m;
  m.tool = std::move(tool);
  for (int i = 0; i < argc; ++i) m.argv.emplace_back(argv[i]);
  m.git_sha = SUNFLOW_GIT_SHA;
  m.git_dirty = SUNFLOW_GIT_DIRTY != 0;
  m.build_type = SUNFLOW_CMAKE_BUILD_TYPE;
  m.compiler = CompilerDescription();
  m.host = HostDescription();
  m.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  m.created_unix = static_cast<std::int64_t>(std::time(nullptr));
  m.start_ = std::chrono::steady_clock::now();
  return m;
}

void RunManifest::Finalize() {
  wall_ns = std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - start_)
                .count();
  peak_rss_kb = PeakRssKb();
  const MetricsRegistry merged = GlobalMetrics().Merged();
  metrics = merged.Rows();
  profile = merged.PhaseRows();
  profile_scopes = 0;
  for (const ProfileRow& row : profile) profile_scopes += row.stats.count;
  profile_ns_per_scope = CalibrateScopeCostNs();
  profile_overhead_fraction =
      wall_ns > 0
          ? static_cast<double>(profile_scopes) * profile_ns_per_scope / wall_ns
          : 0;
}

JsonValue RunManifest::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j["schema"] = kRunManifestSchema;
  j["tool"] = tool;
  JsonValue args = JsonValue::MakeArray();
  for (const std::string& a : argv) args.Append(a);
  j["argv"] = std::move(args);
  j["git_sha"] = git_sha;
  j["git_dirty"] = git_dirty;
  j["build_type"] = build_type;
  j["compiler"] = compiler;
  j["host"] = host;
  j["hardware_threads"] = hardware_threads;
  j["created_unix"] = created_unix;

  JsonValue run = JsonValue::MakeObject();
  run["seed"] = seed;
  run["threads"] = threads;
  run["wall_ns"] = wall_ns;
  run["peak_rss_kb"] = peak_rss_kb;
  for (const auto& [key, value] : extra) run[key] = value;
  j["run"] = std::move(run);

  JsonValue prof = JsonValue::MakeObject();
  JsonValue phases = JsonValue::MakeObject();
  for (const ProfileRow& row : profile) {
    JsonValue p = JsonValue::MakeObject();
    p["count"] = row.stats.count;
    p["total_ns"] = row.stats.total_ns;
    p["self_ns"] = row.stats.self_ns;
    p["max_ns"] = row.stats.max_ns;
    phases[row.name] = std::move(p);
  }
  prof["phases"] = std::move(phases);
  JsonValue overhead = JsonValue::MakeObject();
  overhead["scopes"] = profile_scopes;
  overhead["ns_per_scope"] = profile_ns_per_scope;
  overhead["fraction"] = profile_overhead_fraction;
  prof["overhead"] = std::move(overhead);
  j["profile"] = std::move(prof);

  JsonValue mets = JsonValue::MakeObject();
  for (const MetricRow& row : metrics) {
    JsonValue m = JsonValue::MakeObject();
    m["kind"] = row.kind;
    m["count"] = row.count;
    m["value"] = row.value;
    if (row.kind == "histogram") {
      m["mean"] = row.mean;
      m["p50"] = row.p50;
      m["p95"] = row.p95;
      m["max"] = row.max;
    }
    mets[row.name] = std::move(m);
  }
  j["metrics"] = std::move(mets);
  return j;
}

void RunManifest::WriteJson(std::ostream& out, int indent) const {
  ToJson().Write(out, indent);
  out << "\n";
}

void RunManifest::WriteFile(const std::string& path, int indent) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open manifest output " + path);
  WriteJson(f, indent);
  f.flush();
  if (!f) throw std::runtime_error("failed writing manifest " + path);
}

RunManifest RunManifest::FromJson(const JsonValue& json) {
  if (json.at("schema").AsString() != kRunManifestSchema) {
    throw std::runtime_error("unexpected manifest schema \"" +
                             json.at("schema").AsString() + "\"");
  }
  RunManifest m;
  m.tool = json.at("tool").AsString();
  for (const JsonValue& a : json.at("argv").AsArray())
    m.argv.push_back(a.AsString());
  m.git_sha = json.at("git_sha").AsString();
  m.git_dirty = json.at("git_dirty").AsBool();
  m.build_type = json.at("build_type").AsString();
  m.compiler = json.at("compiler").AsString();
  m.host = json.at("host").AsString();
  m.hardware_threads = static_cast<int>(json.at("hardware_threads").AsNumber());
  m.created_unix =
      static_cast<std::int64_t>(json.at("created_unix").AsNumber());

  const JsonValue& run = json.at("run");
  m.seed = static_cast<std::uint64_t>(run.at("seed").AsNumber());
  m.threads = static_cast<int>(run.at("threads").AsNumber());
  m.wall_ns = run.at("wall_ns").AsNumber();
  m.peak_rss_kb = static_cast<std::int64_t>(run.at("peak_rss_kb").AsNumber());
  for (const auto& [key, value] : run.AsObject()) {
    if (key == "seed" || key == "threads" || key == "wall_ns" ||
        key == "peak_rss_kb")
      continue;
    m.extra[key] = value.AsNumber();
  }

  // The profile and metrics blocks are optional on read: manifests written
  // by stripped-down producers (or hand-built fixtures) may omit them, and
  // a reader that throws here can surface nothing at all. Consumers see
  // empty profile/metrics and degrade on their own terms.
  if (const JsonValue* prof = json.Find("profile")) {
    if (const JsonValue* phases = prof->Find("phases")) {
      for (const auto& [name, p] : phases->AsObject()) {
        ProfileRow row;
        row.name = name;
        row.stats.count = static_cast<std::uint64_t>(p.at("count").AsNumber());
        row.stats.total_ns = p.at("total_ns").AsNumber();
        row.stats.self_ns = p.at("self_ns").AsNumber();
        row.stats.max_ns = p.at("max_ns").AsNumber();
        m.profile.push_back(std::move(row));
      }
    }
    if (const JsonValue* overhead = prof->Find("overhead")) {
      m.profile_scopes =
          static_cast<std::uint64_t>(overhead->at("scopes").AsNumber());
      m.profile_ns_per_scope = overhead->at("ns_per_scope").AsNumber();
      m.profile_overhead_fraction = overhead->at("fraction").AsNumber();
    }
  }

  const JsonValue* metrics_block = json.Find("metrics");
  if (metrics_block == nullptr) return m;
  for (const auto& [name, v] : metrics_block->AsObject()) {
    MetricRow row;
    row.name = name;
    row.kind = v.at("kind").AsString();
    row.count = static_cast<std::uint64_t>(v.at("count").AsNumber());
    row.value = v.at("value").AsNumber();
    if (row.kind == "histogram") {
      row.mean = v.at("mean").AsNumber();
      row.p50 = v.at("p50").AsNumber();
      row.p95 = v.at("p95").AsNumber();
      row.max = v.at("max").AsNumber();
    }
    m.metrics.push_back(std::move(row));
  }
  return m;
}

}  // namespace sunflow::obs
