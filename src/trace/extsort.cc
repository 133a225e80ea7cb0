#include "trace/extsort.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "obs/profiler.h"

namespace sunflow {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Serialized-size estimate for run budgeting (varints assumed mid-width;
/// exactness is irrelevant — it only shapes run boundaries).
std::size_t ApproxPayloadBytes(const Coflow& c) {
  return 16 + 20 * c.size();
}

bool ArrivalLess(const Coflow& a, const Coflow& b) {
  return a.arrival() < b.arrival() ||
         (a.arrival() == b.arrival() && a.id() < b.id());
}

/// rename(2) with a byte-copy fallback for cross-filesystem moves.
void MoveFile(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) == 0) return;
  std::ifstream src(from, std::ios::binary);
  std::ofstream dst(to, std::ios::binary | std::ios::trunc);
  if (!src || !dst)
    throw std::runtime_error("extsort: cannot move " + from + " to " + to);
  dst << src.rdbuf();
  dst.flush();
  if (!dst) throw std::runtime_error("extsort: copy to " + to + " failed");
  src.close();
  std::remove(from.c_str());
}

/// One k-way merge of arrival-sorted stream files into `output`. The heap
/// key (arrival, id, input index) keeps duplicate (arrival, id) records in
/// input-file order.
void MergeRuns(const std::vector<std::string>& inputs,
               const std::string& output, PortId num_ports,
               const ExtSortOptions& options) {
  std::vector<std::unique_ptr<TraceReader>> readers;
  readers.reserve(inputs.size());
  for (const std::string& path : inputs)
    readers.push_back(std::make_unique<TraceReader>(path, options.stream));

  using Key = std::tuple<Time, CoflowId, std::size_t>;
  using HeapItem = std::pair<Key, Coflow>;
  auto greater = [](const HeapItem& a, const HeapItem& b) {
    return a.first > b.first;
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(greater)>
      heap(greater);
  Coflow c;
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (readers[i]->Next(c))
      heap.emplace(Key{c.arrival(), c.id(), i}, std::move(c));
  }

  TraceWriter writer(output, num_ports, options.stream);
  while (!heap.empty()) {
    // priority_queue::top is const — const_cast to move out is safe here
    // because pop() immediately destroys the slot.
    auto& top = const_cast<HeapItem&>(heap.top());
    const std::size_t src = std::get<2>(top.first);
    Coflow next = std::move(top.second);
    heap.pop();
    writer.Append(next);
    if (readers[src]->Next(c))
      heap.emplace(Key{c.arrival(), c.id(), src}, std::move(c));
  }
  writer.Close();
  readers.clear();
  if (!options.keep_runs)
    for (const std::string& path : inputs) std::remove(path.c_str());
}

}  // namespace

ExtSortStats ExternalSortTrace(const std::string& input_path,
                               const std::string& output_path,
                               const ExtSortOptions& options) {
  SUNFLOW_CHECK(options.fan_in >= 2);
  SUNFLOW_CHECK(options.run_payload_bytes > 0);
  const std::string prefix = output_path + ".run";
  ExtSortStats stats;

  // Phase 1: bounded-memory run generation. Each run is sorted in memory
  // and spilled as its own (already arrival-ordered) stream file.
  PortId num_ports = 0;
  std::vector<std::string> runs;
  const auto run_begin = Clock::now();
  {
    SUNFLOW_PROFILE_SCOPE("extsort.runs");
    TraceReader reader(input_path, options.stream);
    num_ports = reader.num_ports();
    std::vector<Coflow> buffer;
    std::size_t buffered_bytes = 0;
    auto spill = [&] {
      if (buffer.empty()) return;
      std::stable_sort(buffer.begin(), buffer.end(), ArrivalLess);
      const std::string path = prefix + "." + std::to_string(runs.size()) +
                               ".sft";
      TraceWriter writer(path, num_ports, options.stream);
      for (const Coflow& c : buffer) writer.Append(c);
      writer.Close();
      runs.push_back(path);
      buffer.clear();
      buffered_bytes = 0;
    };
    Coflow c;
    while (reader.Next(c)) {
      buffered_bytes += ApproxPayloadBytes(c);
      buffer.push_back(std::move(c));
      if (buffered_bytes >= options.run_payload_bytes) spill();
    }
    spill();
    stats.coflows = reader.stats().coflows;
    stats.payload_bytes = reader.stats().payload_bytes;
  }
  stats.runs = runs.size();
  stats.run_seconds = Seconds(run_begin, Clock::now());

  // Phase 2: fan_in-way merge levels until one file remains. A single run
  // (or an empty input) short-circuits: the run already is the answer.
  const auto merge_begin = Clock::now();
  {
    SUNFLOW_PROFILE_SCOPE("extsort.merge");
    if (runs.empty()) {
      TraceWriter writer(output_path, num_ports, options.stream);
      writer.Close();
    } else if (runs.size() == 1 && !options.keep_runs) {
      MoveFile(runs[0], output_path);
    } else {
      std::size_t level = 0;
      while (runs.size() > 1 || options.keep_runs) {
        ++stats.merge_passes;
        std::vector<std::string> next_level;
        const bool last =
            runs.size() <= options.fan_in;
        for (std::size_t i = 0; i < runs.size(); i += options.fan_in) {
          const std::size_t end = std::min(runs.size(), i + options.fan_in);
          std::vector<std::string> group(runs.begin() + i, runs.begin() + end);
          const std::string out =
              last ? output_path
                   : prefix + ".L" + std::to_string(level) + "." +
                         std::to_string(next_level.size()) + ".sft";
          // keep_runs preserves the *initial* runs only; intermediate
          // levels are always reclaimed.
          ExtSortOptions merge_options = options;
          merge_options.keep_runs = options.keep_runs && level == 0;
          MergeRuns(group, out, num_ports, merge_options);
          next_level.push_back(out);
        }
        runs = std::move(next_level);
        ++level;
        if (last) break;
      }
    }
  }
  stats.merge_seconds = Seconds(merge_begin, Clock::now());
  return stats;
}

}  // namespace sunflow
