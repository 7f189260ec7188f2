// Aligned ASCII table output for the bench harnesses: every figure/table
// reproduction prints through this so bench output is uniform and easy to
// diff against EXPERIMENTS.md.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace hetsched {

class TablePrinter {
 public:
  // Column headers fix the column count; subsequent rows must match it.
  // The first column is left-aligned, the others right-aligned.
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  // Convenience: formats doubles with the given precision.
  static std::string num(double value, int precision = 3);
  // Percent-formatted delta, e.g. "-28.4%".
  static std::string pct(double ratio, int precision = 1);

  // Render with box-drawing separators.
  void print(std::ostream& os) const;
  std::string to_string() const;

 private:
  enum class Align { kLeft, kRight };

  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hetsched
