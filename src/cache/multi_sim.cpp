#include "cache/multi_sim.hpp"

#include <algorithm>
#include <bit>

#include "util/contracts.hpp"

namespace hetsched {
namespace {

// One output configuration inside a SetGroup: an associativity plus the
// per-config counters the shared recency array cannot derive.
struct ConfigSlot {
  std::uint32_t assoc = 0;
  std::size_t result_index = 0;  // into the caller's configs vector
  std::uint64_t misses = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
};

// All configurations sharing (line size, set count). `capacity` is the
// largest associativity among them; the per-set recency arrays hold the
// `capacity` most-recently-used distinct lines of each set, most recent
// first — precisely the resident lines of the capacity-way LRU cache.
struct SetGroup {
  std::uint32_t num_sets = 0;
  std::uint32_t set_mask = 0;   // num_sets - 1 (num_sets is a power of two)
  std::uint32_t capacity = 0;
  std::uint32_t all_dirty = 0;  // one dirty bit per slot
  std::vector<ConfigSlot> slots;

  struct Entry {
    std::uint32_t line = 0;
    std::uint32_t dirty = 0;  // bit s: dirty in slots[s]'s configuration
  };
  std::vector<Entry> entries;       // num_sets * capacity, set-major
  std::vector<std::uint8_t> sizes;  // valid entries per set (≤ capacity)

  // The recency array of the set `line_addr` maps to.
  Entry* set_of(std::uint32_t line_addr) {
    return &entries[static_cast<std::size_t>(line_addr & set_mask) *
                    capacity];
  }
  bool is_mru(std::uint32_t line_addr) {
    return sizes[line_addr & set_mask] != 0 &&
           set_of(line_addr)->line == line_addr;
  }
  void access(std::uint32_t line_addr, bool is_write);
};

void SetGroup::access(std::uint32_t line_addr, bool is_write) {
  const std::uint32_t set = line_addr & set_mask;
  Entry* const base = set_of(line_addr);
  const std::uint32_t n = sizes[set];

  // Reuse rank of the line within its set (capacity == not resident
  // anywhere, i.e. a miss for every configuration in the group).
  std::uint32_t rank = capacity;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (base[i].line == line_addr) {
      rank = i;
      break;
    }
  }

  for (ConfigSlot& slot : slots) {
    if (rank < slot.assoc) continue;  // hit in this configuration
    ++slot.misses;
    if (is_write) {
      ++slot.write_misses;
    } else {
      ++slot.read_misses;
    }
    // The A-way cache holds the set's top-A lines; when full, the miss
    // evicts the rank-(A-1) line.
    if (n >= slot.assoc) {
      ++slot.evictions;
      Entry& victim = base[slot.assoc - 1];
      const std::uint32_t bit =
          1u << static_cast<std::uint32_t>(&slot - slots.data());
      if ((victim.dirty & bit) != 0) {
        ++slot.writebacks;
        victim.dirty &= ~bit;  // written back: clean and gone
      }
    }
  }

  // Move the line to the front of the recency array. A hit keeps its
  // dirty mask; a write marks every configuration dirty (hits turn
  // dirty, misses fill dirty under write-allocate) — a clean read-miss
  // line enters with its bits already 0 by the residency invariant.
  std::uint32_t mask = 0;
  if (is_write) {
    mask = all_dirty;
  } else if (rank < capacity) {
    mask = base[rank].dirty;
  }
  const std::uint32_t shift_from =
      rank < capacity ? rank
                      : std::min<std::uint32_t>(n, capacity - 1);
  for (std::uint32_t i = shift_from; i > 0; --i) base[i] = base[i - 1];
  base[0] = Entry{line_addr, mask};
  if (rank == capacity && n < capacity) {
    sizes[set] = static_cast<std::uint8_t>(n + 1);
  }
}

// All configurations sharing a line size: accesses and compulsory misses
// are identical across them, so both are counted once here.
struct LineGroup {
  std::uint32_t line_bytes = 0;
  std::uint32_t line_shift = 0;     // log2(line_bytes)
  std::vector<SetGroup> set_groups;  // fewest sets first
  LineAddressSet seen;
  std::uint64_t accesses = 0;
  std::uint64_t compulsory = 0;

  void access(const MemRef& ref) {
    const std::uint32_t first = ref.address >> line_shift;
    const std::uint32_t last = (ref.address + ref.size - 1u) >> line_shift;
    for (std::uint32_t la = first; la <= last; ++la) {
      ++accesses;
      // The sets of every finer set count split the coarsest group's sets,
      // so a line that is the MRU entry of its set there is the MRU entry
      // of its set everywhere: it hits in every configuration, and only a
      // write changes state (it dirties the line in every slot).
      if (set_groups.front().is_mru(la)) {
        if (ref.is_write) {
          for (SetGroup& group : set_groups) {
            group.set_of(la)->dirty = group.all_dirty;
          }
        }
        continue;
      }
      if (seen.insert(la)) ++compulsory;
      for (SetGroup& group : set_groups) {
        group.access(la, ref.is_write);
      }
    }
  }
};

}  // namespace

bool multi_sim_supported(const CacheOptions& options) {
  return options.replacement == ReplacementPolicy::kLru &&
         options.write == WritePolicy::kWriteBackAllocate &&
         !options.next_line_prefetch;
}

std::vector<CacheSimResult> simulate_trace_multi(
    const MemTrace& trace, const std::vector<CacheConfig>& configs) {
  std::vector<LineGroup> groups;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const CacheConfig& config = configs[c];
    HETSCHED_REQUIRE(config.valid());
    auto line_it = std::find_if(
        groups.begin(), groups.end(),
        [&](const LineGroup& g) { return g.line_bytes == config.line_bytes; });
    if (line_it == groups.end()) {
      groups.push_back(LineGroup{});
      groups.back().line_bytes = config.line_bytes;
      line_it = groups.end() - 1;
    }
    auto set_it = std::find_if(
        line_it->set_groups.begin(), line_it->set_groups.end(),
        [&](const SetGroup& g) { return g.num_sets == config.num_sets(); });
    if (set_it == line_it->set_groups.end()) {
      line_it->set_groups.push_back(SetGroup{});
      line_it->set_groups.back().num_sets = config.num_sets();
      set_it = line_it->set_groups.end() - 1;
    }
    // Dirty masks are per-slot bits in a uint32.
    HETSCHED_REQUIRE(set_it->slots.size() < 32);
    set_it->slots.push_back(
        ConfigSlot{.assoc = config.associativity, .result_index = c});
  }

  for (LineGroup& line_group : groups) {
    line_group.line_shift = static_cast<std::uint32_t>(
        std::countr_zero(line_group.line_bytes));
    std::sort(line_group.set_groups.begin(), line_group.set_groups.end(),
              [](const SetGroup& a, const SetGroup& b) {
                return a.num_sets < b.num_sets;
              });
    for (SetGroup& set_group : line_group.set_groups) {
      set_group.set_mask = set_group.num_sets - 1u;
      set_group.all_dirty = (1u << set_group.slots.size()) - 1u;
      for (const ConfigSlot& slot : set_group.slots) {
        set_group.capacity = std::max(set_group.capacity, slot.assoc);
      }
      set_group.entries.resize(static_cast<std::size_t>(set_group.num_sets) *
                               set_group.capacity);
      set_group.sizes.assign(set_group.num_sets, 0);
    }
  }

  for (const MemRef& ref : trace) {
    HETSCHED_REQUIRE(ref.size > 0);
    for (LineGroup& group : groups) group.access(ref);
  }

  std::vector<CacheSimResult> results(configs.size());
  for (const LineGroup& line_group : groups) {
    for (const SetGroup& set_group : line_group.set_groups) {
      for (const ConfigSlot& slot : set_group.slots) {
        CacheStats stats;
        stats.accesses = line_group.accesses;
        stats.misses = slot.misses;
        stats.hits = line_group.accesses - slot.misses;
        stats.read_misses = slot.read_misses;
        stats.write_misses = slot.write_misses;
        stats.compulsory_misses = line_group.compulsory;
        stats.evictions = slot.evictions;
        stats.writebacks = slot.writebacks;
        results[slot.result_index] =
            CacheSimResult{configs[slot.result_index], stats};
      }
    }
  }
  return results;
}

}  // namespace hetsched
