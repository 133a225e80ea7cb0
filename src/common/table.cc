#include "common/table.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/assert.h"

namespace sunflow {

void TextTable::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::AddRow(std::vector<std::string> row) {
  if (!header_.empty()) {
    SUNFLOW_CHECK_MSG(row.size() == header_.size(),
                      "row width " << row.size() << " != header width "
                                   << header_.size());
  }
  rows_.push_back(std::move(row));
}

void TextTable::AddFootnote(std::string note) {
  footnotes_.push_back(std::move(note));
}

void TextTable::Print(std::ostream& os) const {
  std::vector<std::size_t> widths;
  auto account = [&](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  };
  if (!header_.empty()) account(header_);
  for (const auto& r : rows_) account(r);

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
    }
    os << '\n';
  };

  os << "== " << title_ << " ==\n";
  if (!header_.empty()) {
    print_row(header_);
    std::size_t total = 0;
    for (auto w : widths) total += w + 2;
    os << std::string(total, '-') << '\n';
  }
  for (const auto& r : rows_) print_row(r);
  for (const auto& n : footnotes_) os << "  * " << n << '\n';
  os << '\n';
}

std::string TextTable::Fmt(double v, int precision) {
  std::ostringstream o;
  o << std::fixed << std::setprecision(precision) << v;
  return o.str();
}

std::string TextTable::FmtPct(double fraction, int precision) {
  std::ostringstream o;
  o << std::fixed << std::setprecision(precision) << fraction * 100.0 << "%";
  return o.str();
}

void PrintCdf(std::ostream& os, const std::string& name,
              std::span<const double> samples, std::size_t max_rows) {
  const auto cdf = stats::EmpiricalCdf(samples);
  os << "-- CDF: " << name << " (n=" << samples.size() << ") --\n";
  if (cdf.empty()) {
    os << "  (no samples)\n";
    return;
  }
  const std::size_t step = std::max<std::size_t>(1, cdf.size() / max_rows);
  for (std::size_t i = 0; i < cdf.size(); i += step) {
    os << "  " << std::setw(12) << TextTable::Fmt(cdf[i].value, 4) << "  "
       << TextTable::Fmt(cdf[i].fraction, 4) << '\n';
  }
  if ((cdf.size() - 1) % step != 0) {
    os << "  " << std::setw(12) << TextTable::Fmt(cdf.back().value, 4) << "  "
       << TextTable::Fmt(cdf.back().fraction, 4) << '\n';
  }
}

void PrintCdfAscii(std::ostream& os, const std::string& name,
                   std::span<const double> samples, double min_value,
                   double max_value, int width, int height) {
  SUNFLOW_CHECK(width > 1 && height > 1 && max_value > min_value);
  os << "-- " << name << " (CDF, x in [" << TextTable::Fmt(min_value, 2)
     << ", " << TextTable::Fmt(max_value, 2) << "]) --\n";
  if (samples.empty()) {
    os << "  (no samples)\n";
    return;
  }
  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));
  for (int c = 0; c < width; ++c) {
    const double x = min_value + (max_value - min_value) *
                                     static_cast<double>(c) /
                                     static_cast<double>(width - 1);
    const double f = stats::FractionAtMost(samples, x);
    int r = static_cast<int>(std::lround(f * (height - 1)));
    r = std::clamp(r, 0, height - 1);
    grid[static_cast<std::size_t>(height - 1 - r)]
        [static_cast<std::size_t>(c)] = '*';
  }
  for (int r = 0; r < height; ++r) {
    const double frac =
        1.0 - static_cast<double>(r) / static_cast<double>(height - 1);
    os << "  " << std::setw(5) << TextTable::Fmt(frac, 2) << " |"
       << grid[static_cast<std::size_t>(r)] << '\n';
  }
  os << "        +" << std::string(static_cast<std::size_t>(width), '-')
     << '\n';
}

}  // namespace sunflow
