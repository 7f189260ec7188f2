#include "util/snapshot_text.hpp"

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

template <>
double read_value<double>(std::istream& in, const char* what,
                          const std::string& context) {
  std::string token;
  if (!(in >> token)) {
    fail(context, std::string("cannot read ") + what);
  }
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    fail(context, std::string("malformed double for ") + what);
  }
  return value;
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
