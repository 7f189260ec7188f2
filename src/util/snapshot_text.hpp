// Shared helpers for versioned text snapshot formats.
//
// Both on-disk formats (the predictor snapshot and the characterisation
// profile cache) follow the same conventions: whitespace-token bodies,
// doubles in hexfloat so round trips are bit-exact, and a trailing
// "checksum <hex>" FNV-1a line over the exact body bytes so truncated or
// bit-flipped files are rejected at load time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace hetsched::snapshot_text {

// Throws std::runtime_error("<context>: <what>").
[[noreturn]] void fail(const std::string& context, const std::string& what);

// Writes `v` in hexfloat (bit-exact round trip).
void write_double(std::ostream& out, double v);

// Reads one whitespace token and parses it as T; fail()s on malformed
// input. The double specialisation parses via strtod because istream's
// operator>> does not accept hexfloat.
template <typename T>
T read_value(std::istream& in, const char* what,
             const std::string& context) {
  T value;
  if (!(in >> value)) {
    fail(context, std::string("cannot read ") + what);
  }
  return value;
}

template <>
double read_value<double>(std::istream& in, const char* what,
                          const std::string& context);

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
