// table.hpp - fixed-width table printing for the benchmark harnesses.
//
// Every figure/table reproduction prints both a human-readable aligned table
// and machine-readable CSV lines (prefixed "CSV,") so plots can be
// regenerated from captured output.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace support {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row; the row must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Render the aligned table to `os`.
  void print(std::ostream& os) const;

  /// Render CSV lines ("CSV,<h1>,<h2>,..." then one line per row) to `os`.
  /// Cells holding a comma or a quote are quoted (RFC 4180).
  void print_csv(std::ostream& os, const std::string& tag) const;

  [[nodiscard]] std::size_t num_rows() const { return _rows.size(); }

 private:
  std::vector<std::string> _headers;
  std::vector<std::vector<std::string>> _rows;
};

/// Format a double with the given precision (fixed notation).
[[nodiscard]] std::string fmt(double value, int precision = 2);

/// Format an integer with thousands separators for readability.
[[nodiscard]] std::string fmt_count(long long value);

/// Print a section banner used by all bench mains.
void banner(std::ostream& os, const std::string& title);

}  // namespace support
