// Plain-text table and CDF rendering for bench binaries.
//
// Every bench prints the rows/series of one paper table or figure; this
// keeps the formatting consistent and aligned.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"

namespace sunflow {

/// Column-aligned text table with a title and optional footnotes.
class TextTable {
 public:
  explicit TextTable(std::string title) : title_(std::move(title)) {}

  void SetHeader(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  void AddFootnote(std::string note);

  /// Renders with column alignment and a rule under the header.
  void Print(std::ostream& os) const;

  // Convenience formatters.
  static std::string Fmt(double v, int precision = 2);
  static std::string FmtPct(double fraction, int precision = 1);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> footnotes_;
};

/// Prints an empirical CDF as rows "value  fraction" downsampled to at most
/// `max_rows` points (always keeping the first and last).
void PrintCdf(std::ostream& os, const std::string& name,
              std::span<const double> samples, std::size_t max_rows = 20);

/// Prints an ASCII line rendering of a CDF (value axis horizontal).
void PrintCdfAscii(std::ostream& os, const std::string& name,
                   std::span<const double> samples, double min_value,
                   double max_value, int width = 60, int height = 10);

}  // namespace sunflow
