// Durable whole-file writes.
//
// Every artifact sink (run reports, windows JSONL, metrics snapshots,
// Chrome traces, CSVs, checkpoints, sweep manifests) writes through
// atomic_write_file: the content lands in a sibling temp file which is
// renamed over the destination only after a successful close. A crash,
// kill or full disk can therefore never leave a torn or truncated
// artifact behind — the destination either keeps its previous content or
// holds the complete new one. (The pattern was first proven by the
// characterisation profile cache; this is the shared extraction.)
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace hetsched {

// Atomically replaces `path` with what `write` streams into the temp
// file (so a large artifact is never built in memory first), via
// temp-file + rename. Returns false (destination untouched, temp file
// cleaned up) when the temp file cannot be created, written, or renamed.
bool atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& write);

// The same for content already in memory.
bool atomic_write_file(const std::string& path, std::string_view content);

}  // namespace hetsched
