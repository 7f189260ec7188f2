#include "util/snapshot_text.hpp"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/hash.hpp"

namespace hetsched::snapshot_text {

void fail(const std::string& context, const std::string& what) {
  throw std::runtime_error(context + ": " + what);
}

void write_double(std::ostream& out, double v) {
  out << std::hexfloat << v << std::defaultfloat;
}

void Reader::fail(const std::string& what) const {
  snapshot_text::fail(context_, what);
}

std::string Reader::token(const char* what) {
  std::string text;
  if (!(in_ >> text)) fail(std::string("cannot read ") + what);
  return text;
}

void Reader::expect(std::string_view keyword) {
  std::string text;
  if (!(in_ >> text) || text != keyword) {
    fail("expected '" + std::string(keyword) + "'");
  }
}

double Reader::parse_double(const std::string& text, const char* what) const {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    fail(std::string("malformed double for ") + what);
  }
  return value;
}

bool Reader::flag(const char* what) {
  const auto value = read<int>(what);
  if (value != 0 && value != 1) fail(std::string(what) + " must be 0 or 1");
  return value == 1;
}

std::size_t Reader::count(const char* what, std::size_t min_chars) {
  const auto items = read<std::size_t>(what);
  require_fit(items, min_chars, what);
  return items;
}

void Reader::require_fit(std::size_t items, std::size_t min_chars,
                         const char* what) {
  if (items == 0) return;
  // The characters left after the read position (none once the stream
  // hit its end or cannot report a position).
  std::size_t left = 0;
  const std::istream::pos_type here =
      in_.good() ? in_.tellg() : std::istream::pos_type(-1);
  if (here != std::istream::pos_type(-1)) {
    in_.seekg(0, std::ios::end);
    const std::istream::pos_type end = in_.tellg();
    in_.seekg(here);
    if (end != std::istream::pos_type(-1) && end >= here) {
      left = static_cast<std::size_t>(end - here);
    }
  }
  if (items > left / std::max<std::size_t>(min_chars, 1)) {
    fail(std::string(what) + " exceeds the rest of the input");
  }
}

bool Reader::at_end() {
  in_ >> std::ws;
  return in_.eof();
}

void write_with_checksum(std::ostream& out, const std::string& body) {
  out << body << "checksum " << std::hex << fnv1a(body) << std::dec
      << "\n";
}

namespace {

std::string verify(std::istream& in, const std::string& context,
                   bool required) {
  std::ostringstream slurp;
  slurp << in.rdbuf();
  std::string content = slurp.str();

  const std::string::size_type mark = content.rfind("\nchecksum ");
  if (mark == std::string::npos) {
    if (required) fail(context, "missing checksum line");
    return content;
  }

  std::string body = content.substr(0, mark + 1);
  std::istringstream tail(content.substr(mark + 1));
  std::string token, rest;
  std::uint64_t stored = 0;
  if (!(tail >> token >> std::hex >> stored) || token != "checksum") {
    fail(context, "malformed checksum line");
  }
  if (tail >> rest) fail(context, "trailing garbage after checksum");
  if (stored != fnv1a(body)) {
    fail(context, "checksum mismatch (truncated or corrupted snapshot)");
  }
  return body;
}

}  // namespace

std::string read_verified(std::istream& in, const std::string& context) {
  return verify(in, context, false);
}

std::string read_checksummed(std::istream& in, const std::string& context) {
  return verify(in, context, true);
}

}  // namespace hetsched::snapshot_text
