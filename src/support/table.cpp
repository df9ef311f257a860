#include "support/table.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace support {

Table::Table(std::vector<std::string> headers) : _headers(std::move(headers)) {}

void Table::add_row(std::vector<std::string> row) {
  assert(row.size() == _headers.size());
  _rows.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(_headers.size());
  for (std::size_t c = 0; c < _headers.size(); ++c) widths[c] = _headers[c].size();
  for (const auto& row : _rows)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c)
      os << " " << std::setw(static_cast<int>(widths[c])) << std::left << row[c] << " |";
    os << "\n";
  };

  print_row(_headers);
  os << "|";
  for (std::size_t c = 0; c < widths.size(); ++c)
    os << std::string(widths[c] + 2, '-') << "|";
  os << "\n";
  for (const auto& row : _rows) print_row(row);
}

void Table::print_csv(std::ostream& os, const std::string& tag) const {
  // RFC 4180: a cell holding a comma or a quote is quoted and its quotes
  // doubled, so a fmt_count() cell such as "16,384" stays one cell.
  auto emit = [&](const std::vector<std::string>& row) {
    os << "CSV," << tag;
    for (const auto& cell : row) {
      os << ",";
      if (cell.find_first_of(",\"") == std::string::npos) {
        os << cell;
        continue;
      }
      os << '"';
      for (char c : cell) {
        if (c == '"') os << '"';
        os << c;
      }
      os << '"';
    }
    os << "\n";
  };
  emit(_headers);
  for (const auto& row : _rows) emit(row);
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string fmt_count(long long value) {
  std::string digits = std::to_string(value < 0 ? -value : value);
  std::string out;
  int cnt = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (cnt != 0 && cnt % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++cnt;
  }
  if (value < 0) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

void banner(std::ostream& os, const std::string& title) {
  const std::size_t pad = title.size() < 72 ? 76 - title.size() : 4;
  os << "\n== " << title << " " << std::string(pad, '=') << "\n\n";
}

}  // namespace support
