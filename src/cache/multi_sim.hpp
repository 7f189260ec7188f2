// Single-pass multi-configuration cache simulation.
//
// Characterisation replays every kernel trace once per Table-1
// configuration — 18 full replays per benchmark instance. For LRU with
// write-back + write-allocate (the default and the only mode the
// characterisation uses), hit/miss behaviour of *every* set-count and
// associativity point with a given line size can be decided in one sweep
// using per-set LRU stack distances (Mattson et al.'s inclusion property,
// as exploited by Hill & Smith's all-associativity simulation):
//
//   * With bit-selection indexing and no invalidations, the content of an
//     A-way LRU set is exactly the A most-recently-used distinct lines
//     mapping to that set. An access therefore hits in (S sets, A ways)
//     iff its same-set reuse rank under S is < A.
//   * On a miss the evicted line is the set's rank-(A-1) line, so dirty
//     state (one bit per configuration) and writeback/eviction counts
//     are tracked exactly, not approximated.
//
// Per (line size, set count) the engine keeps a tiny per-set recency
// array bounded by the largest associativity sharing that set count
// (≤ 4 in Table 1), so the inner loop is a ≤ 4-entry scan instead of a
// full cache model. Set counts are powers of two, so every finer set
// count splits the sets of the coarsest one: a line that is the MRU entry
// of its set under the fewest sets is the MRU entry of its set under all
// of them, and hits everywhere. Such an access (90–98 % of the suite's)
// is decided by one compare; only a write then changes state.
// Configurations that need FIFO/random replacement, write-through, or
// prefetching fall back to the reference Cache.
//
// Contract: the returned CacheStats are bit-identical to running
// simulate_trace per configuration.
#pragma once

#include <vector>

#include "cache/cache.hpp"

namespace hetsched {

// True if the single-pass engine handles `options` (LRU, write-back +
// write-allocate, no prefetch — the simulate_trace defaults).
bool multi_sim_supported(const CacheOptions& options);

// Simulates all `configs` in one sweep over `trace`; result i corresponds
// to configs[i]. Every config must be valid. Uses the default
// CacheOptions (LRU / write-back) semantics.
std::vector<CacheSimResult> simulate_trace_multi(
    const MemTrace& trace, const std::vector<CacheConfig>& configs);

}  // namespace hetsched
