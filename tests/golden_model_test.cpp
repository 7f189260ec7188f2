// Golden-model cross-check: an intentionally naive, obviously-correct
// reference cache (per-set vector with explicit recency ordering) is run
// against the production Cache over randomised traces across the whole
// design space. Any divergence in hits/misses/writebacks is a bug in one
// of them.
#include <gtest/gtest.h>

#include <list>
#include <map>

#include "cache/cache.hpp"
#include "core/system_config.hpp"

namespace hetsched {
namespace {

// Reference implementation: LRU write-back/write-allocate.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config) : config_(config) {}

  struct Result {
    bool hit = false;
    bool writeback = false;
  };

  Result access(std::uint32_t address, std::uint8_t size, bool is_write) {
    Result combined;
    combined.hit = true;
    const std::uint32_t first = address / config_.line_bytes;
    const std::uint32_t last = (address + size - 1u) / config_.line_bytes;
    for (std::uint32_t la = first; la <= last; ++la) {
      const Result r = access_line(la, is_write);
      combined.hit = combined.hit && r.hit;
      combined.writeback = combined.writeback || r.writeback;
    }
    return combined;
  }

  std::uint64_t hits = 0, misses = 0, writebacks = 0, evictions = 0;

 private:
  struct Entry {
    std::uint32_t tag;
    bool dirty;
  };

  Result access_line(std::uint32_t line_addr, bool is_write) {
    const std::uint32_t set = line_addr % config_.num_sets();
    const std::uint32_t tag = line_addr / config_.num_sets();
    auto& ways = sets_[set];  // front = most recently used
    for (auto it = ways.begin(); it != ways.end(); ++it) {
      if (it->tag == tag) {
        Entry entry = *it;
        entry.dirty = entry.dirty || is_write;
        ways.erase(it);
        ways.push_front(entry);
        ++hits;
        return {true, false};
      }
    }
    ++misses;
    bool writeback = false;
    if (ways.size() == config_.associativity) {
      if (ways.back().dirty) {
        ++writebacks;
        writeback = true;
      }
      ways.pop_back();
      ++evictions;
    }
    ways.push_front(Entry{tag, is_write});
    return {false, writeback};
  }

  CacheConfig config_;
  std::map<std::uint32_t, std::list<Entry>> sets_;
};

class GoldenModelSweep : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(GoldenModelSweep, ProductionCacheMatchesReference) {
  const CacheConfig config = GetParam();
  Cache production(config);
  ReferenceCache reference(config);

  Rng rng(12345);
  for (int i = 0; i < 60000; ++i) {
    // Mixed locality: hot region + cold sweeps + random far touches.
    std::uint32_t address;
    const auto mode = rng.below(10);
    if (mode < 5) {
      address = static_cast<std::uint32_t>(rng.below(2048));
    } else if (mode < 8) {
      address = static_cast<std::uint32_t>(rng.below(32768));
    } else {
      address = static_cast<std::uint32_t>(rng.below(1 << 20));
    }
    address &= ~1u;
    const auto size = static_cast<std::uint8_t>(1u << rng.below(4));
    const bool is_write = rng.bernoulli(0.35);

    const auto got = production.access(address, size, is_write);
    const auto want = reference.access(address, size, is_write);
    ASSERT_EQ(got.hit, want.hit)
        << config.name() << " @" << address << " step " << i;
    ASSERT_EQ(got.writeback, want.writeback)
        << config.name() << " @" << address << " step " << i;
  }
  EXPECT_EQ(production.stats().hits, reference.hits);
  EXPECT_EQ(production.stats().misses, reference.misses);
  EXPECT_EQ(production.stats().writebacks, reference.writebacks);
  EXPECT_EQ(production.stats().evictions, reference.evictions);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, GoldenModelSweep, ::testing::ValuesIn(DesignSpace::all()),
    [](const ::testing::TestParamInfo<CacheConfig>& param_info) {
      return param_info.param.name();
    });

TEST(ScaledSystemTest, ScaledHeterogeneousShapes) {
  for (std::size_t n : {2u, 3u, 4u, 7u, 12u}) {
    const SystemConfig system = SystemConfig::scaled_heterogeneous(n);
    ASSERT_EQ(system.core_count(), n);
    EXPECT_TRUE(system.valid());
    // The last core is always an 8 KB profiling core.
    EXPECT_EQ(system.cores.back().cache_size_bytes, 8192u);
    EXPECT_TRUE(system.cores.back().can_profile);
    EXPECT_EQ(system.primary_profiling_core, n - 1);
    // Every 8 KB core can profile; no other core can.
    for (const CoreSpec& core : system.cores) {
      EXPECT_EQ(core.can_profile, core.cache_size_bytes == 8192u);
    }
  }
  // The quad-core instance matches the paper machine's size mix.
  const SystemConfig four = SystemConfig::scaled_heterogeneous(4);
  const SystemConfig paper = SystemConfig::paper_quadcore();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(four.cores[i].cache_size_bytes,
              paper.cores[i].cache_size_bytes);
  }
}

}  // namespace
}  // namespace hetsched
