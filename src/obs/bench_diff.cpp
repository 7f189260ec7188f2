#include "obs/bench_diff.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>

#include "util/csv.hpp"

namespace hetsched {
namespace {

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

// Recursive-descent walker over the JSON subset the benches emit.
class Flattener {
 public:
  explicit Flattener(std::string_view json) : text_(json) {}

  std::vector<std::pair<std::string, double>> run() {
    skip_ws();
    value("");
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return std::move(out_);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("bench-diff: malformed JSON at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw std::runtime_error("bench-diff: unexpected end of JSON");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string string_token() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Bench names are ASCII; keep the escape verbatim.
            out += "\\u";
            break;
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  void value(const std::string& path) {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      object(path);
    } else if (c == '[') {
      array(path);
    } else if (c == '"') {
      (void)string_token();
    } else if (c == 't') {
      literal("true");
    } else if (c == 'f') {
      literal("false");
    } else if (c == 'n') {
      literal("null");
    } else {
      number(path);
    }
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  void number(const std::string& path) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number '" + token + "'");
    out_.emplace_back(path.empty() ? "value" : path, parsed);
  }

  void object(const std::string& path) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = string_token();
      skip_ws();
      expect(':');
      value(path.empty() ? key : path + "." + key);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void array(const std::string& path) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    std::size_t index = 0;
    while (true) {
      value(path + "[" + std::to_string(index++) + "]");
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<std::pair<std::string, double>> out_;
};

}  // namespace

std::vector<std::pair<std::string, double>> flatten_json_numbers(
    std::string_view json) {
  return Flattener(json).run();
}

MetricDirection classify_metric(std::string_view path) {
  // Strip array indices so "runs[3].wall_ms" classifies like "wall_ms".
  // Match on the final path segment only: a parent object's name must
  // not decide the direction of an unrelated child.
  const std::size_t dot = path.rfind('.');
  std::string_view leaf =
      dot == std::string_view::npos ? path : path.substr(dot + 1);

  // Format markers are never a quality axis: a file gaining (or an old
  // baseline lacking) a "schema" field must not gate the diff.
  if (leaf == "schema") return MetricDirection::kIgnored;
  if (leaf.ends_with("_ms") || contains(leaf, "overhead") ||
      contains(leaf, "rss") || contains(leaf, "growth") ||
      contains(leaf, "violation") || contains(leaf, "dropped")) {
    return MetricDirection::kLowerIsBetter;
  }
  if (contains(leaf, "per_sec") || contains(leaf, "speedup") ||
      contains(leaf, "accuracy") || contains(leaf, "hit_rate")) {
    return MetricDirection::kHigherIsBetter;
  }
  return MetricDirection::kIgnored;
}

bool metric_regressed(MetricDirection direction, double baseline,
                      double current, double tolerance) {
  if (direction == MetricDirection::kIgnored || !(baseline > 0.0) ||
      !std::isfinite(baseline)) {
    return false;
  }
  // A NaN/Inf candidate value is always a regression: NaN compares
  // false against everything, so without this guard a broken bench
  // would sail through the gate.
  return !std::isfinite(current) ||
         (direction == MetricDirection::kLowerIsBetter
              ? current > baseline * (1.0 + tolerance)
              : current < baseline / (1.0 + tolerance));
}

bool BenchDiffResult::regressed() const {
  if (!missing_in_current.empty()) return true;
  for (const BenchComparison& c : compared) {
    if (c.regressed) return true;
  }
  return false;
}

std::string BenchDiffResult::summary(double tolerance) const {
  std::string out;
  for (const BenchComparison& c : compared) {
    const char* dir =
        c.direction == MetricDirection::kLowerIsBetter ? "<=" : ">=";
    out += c.regressed ? "REGRESSED " : "ok        ";
    out += c.path + ": baseline " + CsvWriter::number(c.baseline) +
           ", current " + CsvWriter::number(c.current) + " (" + dir +
           " tolerance " + CsvWriter::number(tolerance) + ")\n";
  }
  for (const std::string& path : missing_in_current) {
    out += "MISSING   " + path + ": present in baseline, absent now\n";
  }
  for (const std::string& path : new_in_current) {
    out += "new-metric " + path +
           ": absent in baseline (informational; refresh the baseline to "
           "start gating it)\n";
  }
  out += regressed() ? "verdict: REGRESSION\n" : "verdict: pass\n";
  return out;
}

BenchDiffResult bench_diff(std::string_view baseline_json,
                           std::string_view current_json, double tolerance) {
  if (tolerance < 0.0) {
    throw std::runtime_error("bench-diff: tolerance must be >= 0");
  }
  const auto baseline = flatten_json_numbers(baseline_json);
  const auto current = flatten_json_numbers(current_json);
  std::unordered_map<std::string, double> current_by_path;
  for (const auto& [path, v] : current) current_by_path.emplace(path, v);

  BenchDiffResult result;
  for (const auto& [path, base] : baseline) {
    const MetricDirection direction = classify_metric(path);
    if (direction == MetricDirection::kIgnored) {
      result.skipped.push_back(path);
      continue;
    }
    const auto it = current_by_path.find(path);
    if (it == current_by_path.end()) {
      result.missing_in_current.push_back(path);
      continue;
    }
    if (base <= 0.0 || !std::isfinite(base)) {
      result.skipped.push_back(path);
      continue;
    }
    BenchComparison c;
    c.path = path;
    c.baseline = base;
    c.current = it->second;
    c.direction = direction;
    c.regressed = metric_regressed(direction, base, c.current, tolerance);
    result.compared.push_back(std::move(c));
  }

  // The reverse direction: metrics the candidate gained that the
  // baseline has never seen. Reported in the candidate's document order
  // (deterministic), never a gate failure — but never silent either.
  std::unordered_map<std::string, double> baseline_by_path;
  for (const auto& [path, v] : baseline) baseline_by_path.emplace(path, v);
  for (const auto& [path, v] : current) {
    (void)v;
    if (baseline_by_path.find(path) == baseline_by_path.end()) {
      result.new_in_current.push_back(path);
    }
  }
  return result;
}

}  // namespace hetsched
