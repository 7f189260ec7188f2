#include "util/table_printer.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/contracts.hpp"

namespace hetsched {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  HETSCHED_REQUIRE(!headers_.empty());
  aligns_.assign(headers_.size(), Align::kRight);
  aligns_[0] = Align::kLeft;  // first column is usually a label
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  HETSCHED_REQUIRE(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::pct(double ratio, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.*f%%", precision, ratio * 100.0);
  return buf;
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_sep = [&] {
    os << '+';
    for (std::size_t w : widths) {
      os << std::string(w + 2, '-') << '+';
    }
    os << '\n';
  };
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::size_t pad = widths[c] - cells[c].size();
      os << ' ';
      if (aligns_[c] == Align::kRight) os << std::string(pad, ' ');
      os << cells[c];
      if (aligns_[c] == Align::kLeft) os << std::string(pad, ' ');
      os << " |";
    }
    os << '\n';
  };

  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

std::string TablePrinter::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

}  // namespace hetsched
