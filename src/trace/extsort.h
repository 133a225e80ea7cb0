// External-memory arrival-order sort for trace stream files.
//
// Huge generated traces (trace_tool generate --stream_out) arrive on disk
// in generation order, which need not be arrival order; the engine's
// admission contract requires (arrival, id)-sorted input. This sorter
// never materializes the trace: it reads the input stream into
// bounded-size runs (each sorted in memory and spilled as its own stream
// file), then k-way-merges the runs — multiple passes when the run count
// exceeds the fan-in — so peak memory is O(run_payload_bytes + fan_in ·
// block read-ahead) regardless of trace length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/stream.h"

namespace sunflow {

struct ExtSortOptions {
  /// In-memory run budget, measured in serialized payload bytes. Each run
  /// holds at most this much coflow data before it is sorted and spilled.
  std::size_t run_payload_bytes = 64ull << 20;
  /// Streams merged per pass (>= 2). Runs beyond this merge in multiple
  /// passes: ceil(log_fan_in(runs)) levels.
  std::size_t fan_in = 16;
  /// Spilled run files are named "<output_path>.run*" and deleted as they
  /// are consumed unless keep_runs.
  bool keep_runs = false;
  /// Block size / codec / read-ahead / decode pool for every stream
  /// opened by the sorter.
  TraceStreamOptions stream;
};

struct ExtSortStats {
  std::uint64_t coflows = 0;
  std::uint64_t payload_bytes = 0;  ///< uncompressed serialized bytes (input)
  std::uint64_t runs = 0;
  std::uint64_t merge_passes = 0;
  double run_seconds = 0;    ///< run generation (read + sort + spill)
  double merge_seconds = 0;  ///< all merge passes
};

/// Sorts the stream file at `input_path` by (arrival, id) into
/// `output_path` (a closed stream file with counted header). The sort is
/// stable in the sense that (arrival, id) is a total order over valid
/// traces — duplicate ids with equal arrivals keep input order. Throws
/// std::runtime_error on I/O or format errors.
ExtSortStats ExternalSortTrace(const std::string& input_path,
                               const std::string& output_path,
                               const ExtSortOptions& options = {});

}  // namespace sunflow
