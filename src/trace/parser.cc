#include "trace/parser.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "common/units.h"

namespace sunflow {

namespace {

[[noreturn]] void Fail(const std::string& source, int line_no,
                       const std::string& why) {
  throw std::runtime_error("coflow-benchmark parse error in " + source +
                           " at line " + std::to_string(line_no) + ": " + why);
}

}  // namespace

Trace ParseCoflowBenchmark(std::istream& in, const std::string& source) {
  Trace trace;
  std::string line;
  line.reserve(256);
  int line_no = 0;

  if (!std::getline(in, line)) Fail(source, 1, "empty input");
  ++line_no;
  {
    std::istringstream hdr(line);
    long long ports = 0, coflows = 0;
    if (!(hdr >> ports >> coflows) || ports <= 0 || coflows < 0)
      Fail(source, line_no, "expected '<num_ports> <num_coflows>'");
    if (ports > INT32_MAX)
      Fail(source, line_no, "num_ports " + std::to_string(ports) +
                                " above INT32_MAX");
    // The header's coflow count is unchecked, so nothing is reserved from it.
    trace.num_ports = static_cast<PortId>(ports);
  }

  // Hoisted per-line scratch: the containers are cleared, not
  // reconstructed, so steady-state parsing reuses their allocations.
  std::vector<PortId> mappers;
  std::map<std::pair<PortId, PortId>, Bytes> demand;
  std::unordered_set<CoflowId> seen_ids;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    long long id = 0;
    double arrival_ms = 0;
    int num_mappers = 0;
    if (!(ls >> id >> arrival_ms >> num_mappers) || num_mappers <= 0)
      Fail(source, line_no, "expected '<id> <arrival_ms> <num_mappers> ...'");
    if (!seen_ids.insert(static_cast<CoflowId>(id)).second)
      Fail(source, line_no,
           "duplicate coflow id " + std::to_string(id));

    mappers.clear();
    for (int m = 0; m < num_mappers; ++m) {
      long long rack = 0;
      if (!(ls >> rack) || rack < 1 || rack > trace.num_ports)
        Fail(source, line_no, "bad mapper rack");
      mappers.push_back(static_cast<PortId>(rack - 1));  // to 0-based
    }

    int num_reducers = 0;
    if (!(ls >> num_reducers) || num_reducers <= 0)
      Fail(source, line_no, "bad reducer count");

    // Aggregate by (src,dst): real traces occasionally repeat a rack in the
    // mapper or reducer list; the Coflow invariant requires unique pairs.
    demand.clear();
    for (int r = 0; r < num_reducers; ++r) {
      std::string tok;
      if (!(ls >> tok)) Fail(source, line_no, "missing reducer token");
      const auto colon = tok.find(':');
      if (colon == std::string::npos)
        Fail(source, line_no, "reducer token lacks ':'");
      long long rack = 0;
      double mb = 0;
      try {
        rack = std::stoll(tok.substr(0, colon));
        mb = std::stod(tok.substr(colon + 1));
      } catch (const std::exception&) {
        Fail(source, line_no, "unparseable reducer token '" + tok + "'");
      }
      if (rack < 1 || rack > trace.num_ports)
        Fail(source, line_no, "bad reducer rack");
      if (mb <= 0) Fail(source, line_no, "non-positive reducer size");
      if (!std::isfinite(MB(mb)))
        Fail(source, line_no, "non-finite reducer size '" + tok + "'");
      const PortId dst = static_cast<PortId>(rack - 1);
      const Bytes per_mapper = MB(mb) / num_mappers;
      for (PortId src : mappers) demand[{src, dst}] += per_mapper;
    }

    std::vector<Flow> flows;
    flows.reserve(demand.size());
    for (const auto& [pair, bytes] : demand)
      flows.push_back({pair.first, pair.second, bytes});
    trace.coflows.emplace_back(static_cast<CoflowId>(id),
                               Millis(arrival_ms), std::move(flows));
  }

  std::sort(trace.coflows.begin(), trace.coflows.end(),
            [](const Coflow& a, const Coflow& b) {
              return a.arrival() < b.arrival() ||
                     (a.arrival() == b.arrival() && a.id() < b.id());
            });
  trace.Validate();
  return trace;
}

Trace ParseCoflowBenchmarkFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  return ParseCoflowBenchmark(f, path);
}

void WriteCoflowBenchmarkHeader(std::ostream& out, PortId num_ports,
                                std::uint64_t num_coflows) {
  out << num_ports << " " << num_coflows << "\n";
}

void WriteCoflowBenchmarkLine(std::ostream& out, const Coflow& c) {
  // Reconstruct the mapper/reducer view: mappers are the distinct sources,
  // reducer size is the total received (in MB).
  std::map<PortId, bool> mappers;
  std::map<PortId, Bytes> reducer_bytes;
  for (const Flow& f : c.flows()) {
    mappers[f.src] = true;
    reducer_bytes[f.dst] += f.bytes;
  }
  out << c.id() << " " << std::llround(c.arrival() * 1e3) << " "
      << mappers.size();
  for (const auto& [src, unused] : mappers) out << " " << (src + 1);
  out << " " << reducer_bytes.size();
  for (const auto& [dst, bytes] : reducer_bytes) {
    out << " " << (dst + 1) << ":" << std::llround(bytes / 1e6);
  }
  out << "\n";
}

void WriteCoflowBenchmark(std::ostream& out, const Trace& trace) {
  WriteCoflowBenchmarkHeader(out, trace.num_ports, trace.coflows.size());
  for (const Coflow& c : trace.coflows) WriteCoflowBenchmarkLine(out, c);
}

}  // namespace sunflow
