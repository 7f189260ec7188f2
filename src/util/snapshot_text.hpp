// Shared helpers for versioned text snapshot formats.
//
// Every state format (checkpoints, sweep manifests, the predictor
// snapshot and the characterisation profile cache) follows the same
// conventions: whitespace-token bodies, doubles in hexfloat so round
// trips are bit-exact, and a trailing "checksum <hex>" FNV-1a line over
// the exact body bytes so truncated or bit-flipped files are rejected at
// load time. Their parsers read every token through a Reader.
#pragma once

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace hetsched::snapshot_text {

// Throws std::runtime_error("<context>: <what>").
[[noreturn]] void fail(const std::string& context, const std::string& what);

// Writes `v` in hexfloat (bit-exact round trip).
void write_double(std::ostream& out, double v);

// The one token reader of the state parsers, bound to a stream and the
// context its errors are tagged with. Malformed input always fails with
// std::runtime_error("<context>: <what>"): no wrapped or partly parsed
// numbers, and no allocation sized by a corrupted count.
class Reader {
 public:
  Reader(std::istream& in, std::string context)
      : in_(in), context_(std::move(context)) {}

  [[noreturn]] void fail(const std::string& what) const;

  // The next token ("cannot read <what>" at the end of the input).
  std::string token(const char* what);
  // The next token must be `keyword` ("expected '<keyword>'").
  void expect(std::string_view keyword);

  // A number parsed from the whole token: integers with from_chars (so
  // "-1" is no unsigned value and "2x" is not 2), doubles with strtod
  // (so hexfloat round-trips).
  template <typename T>
  T read(const char* what, int base = 10) {
    const std::string text = token(what);
    if constexpr (std::is_floating_point_v<T>) {
      return parse_double(text, what);
    } else {
      T value{};
      const char* end = text.data() + text.size();
      const auto [stop, error] = std::from_chars(text.data(), end, value, base);
      if (error != std::errc{} || stop != end) {
        fail(std::string("cannot read ") + what);
      }
      return value;
    }
  }

  // A 0/1 flag.
  bool flag(const char* what);

  // A list length, rejected unless that many items of at least
  // `min_chars` characters each fit in the rest of the input (a token
  // and its separator take two), so nothing is allocated for a list the
  // input cannot hold.
  std::size_t count(const char* what, std::size_t min_chars = 2);
  // The same bound for `items` items whose count is already known.
  void require_fit(std::size_t items, std::size_t min_chars,
                   const char* what);

  // True when nothing but whitespace is left.
  bool at_end();

  std::istream& stream() { return in_; }

 private:
  double parse_double(const std::string& text, const char* what) const;

  std::istream& in_;
  std::string context_;
};

// Writes `body` followed by its FNV-1a checksum line.
void write_with_checksum(std::ostream& out, const std::string& body);

// Slurps `in`; when a trailing checksum line is present, verifies it and
// returns the body without it (fail()s on mismatch or a malformed line).
// Bodies without a checksum line are returned as-is, so formats predating
// the checksum (predictor snapshots, profile caches) stay loadable.
std::string read_verified(std::istream& in, const std::string& context);

// As read_verified, but a missing checksum line fail()s too: for formats
// that never had a checksum-less version (checkpoints, sweep manifests).
std::string read_checksummed(std::istream& in, const std::string& context);

}  // namespace hetsched::snapshot_text
