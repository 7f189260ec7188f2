// Tests for src/cache: configuration model, Table-1 design space,
// set-associative cache behaviour, replacement policies and hierarchy —
// including property sweeps over all 18 configurations.
#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "util/rng.hpp"

namespace hetsched {
namespace {

TEST(CacheConfigTest, GeometryDerivation) {
  const CacheConfig config{8192, 4, 64};
  EXPECT_EQ(config.num_lines(), 128u);
  EXPECT_EQ(config.num_sets(), 32u);
  EXPECT_EQ(config.size_kb(), 8u);
  EXPECT_TRUE(config.valid());
}

TEST(CacheConfigTest, InvalidConfigsAreRejected) {
  EXPECT_FALSE((CacheConfig{3000, 1, 16}).valid());  // non power of two
  EXPECT_FALSE((CacheConfig{2048, 3, 16}).valid());  // assoc not pow2
  EXPECT_FALSE((CacheConfig{2048, 1, 4096}).valid());  // line > size
  EXPECT_FALSE((CacheConfig{64, 32, 16}).valid());   // assoc > lines
  EXPECT_TRUE((CacheConfig{64, 4, 16}).valid());
}

TEST(CacheConfigTest, NameAndParseRoundTrip) {
  for (const CacheConfig& config : DesignSpace::all()) {
    const auto parsed = CacheConfig::parse(config.name());
    ASSERT_TRUE(parsed.has_value()) << config.name();
    EXPECT_EQ(*parsed, config);
  }
  EXPECT_EQ((CacheConfig{8192, 4, 64}).name(), "8KB_4W_64B");
}

TEST(CacheConfigTest, ParseRejectsGarbage) {
  EXPECT_FALSE(CacheConfig::parse("").has_value());
  EXPECT_FALSE(CacheConfig::parse("8KB").has_value());
  EXPECT_FALSE(CacheConfig::parse("8KB_3W_64B").has_value());
  EXPECT_FALSE(CacheConfig::parse("8KB_4W_64B_extra").has_value());
  EXPECT_FALSE(CacheConfig::parse("notaconfig").has_value());
}

TEST(CacheConfigTest, AddressDecomposition) {
  const CacheConfig config{2048, 1, 16};  // 128 sets
  const std::uint32_t addr = 0x1234;
  EXPECT_EQ(config.line_address(addr), addr / 16);
  EXPECT_EQ(config.set_index(addr), (addr / 16) % 128);
  EXPECT_EQ(config.tag(addr), (addr / 16) / 128);
}

TEST(DesignSpaceTest, Table1HasEighteenConfigs) {
  EXPECT_EQ(DesignSpace::all().size(), 18u);
  EXPECT_EQ(DesignSpace::configs_for_size(2048).size(), 3u);
  EXPECT_EQ(DesignSpace::configs_for_size(4096).size(), 6u);
  EXPECT_EQ(DesignSpace::configs_for_size(8192).size(), 9u);
}

TEST(DesignSpaceTest, SubsettedAssociativities) {
  EXPECT_EQ(DesignSpace::associativities_for(2048),
            (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(DesignSpace::associativities_for(4096),
            (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(DesignSpace::associativities_for(8192),
            (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_TRUE(DesignSpace::associativities_for(1024).empty());
}

TEST(DesignSpaceTest, IndexOfRoundTrips) {
  const auto& all = DesignSpace::all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto idx = DesignSpace::index_of(all[i]);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*idx, i);
  }
  EXPECT_FALSE(DesignSpace::index_of(CacheConfig{16384, 1, 16}).has_value());
  // 2KB 2-way is a valid cache but not in Table 1.
  EXPECT_FALSE(DesignSpace::index_of(CacheConfig{2048, 2, 16}).has_value());
}

TEST(DesignSpaceTest, BaseConfigIsLargest) {
  const CacheConfig base = DesignSpace::base_config();
  EXPECT_EQ(base.name(), "8KB_4W_64B");
  EXPECT_TRUE(DesignSpace::index_of(base).has_value());
}

TEST(CacheTest, FirstAccessMissesThenHits) {
  Cache cache(CacheConfig{2048, 1, 16});
  EXPECT_FALSE(cache.access(0x1000, 4, false).hit);
  EXPECT_TRUE(cache.access(0x1000, 4, false).hit);
  EXPECT_TRUE(cache.access(0x100c, 4, false).hit);  // same line
  EXPECT_FALSE(cache.access(0x1010, 4, false).hit);  // next line
  EXPECT_EQ(cache.stats().accesses, 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CacheTest, DirectMappedConflictEviction) {
  const CacheConfig config{2048, 1, 16};  // 128 sets
  Cache cache(config);
  const std::uint32_t stride = 128 * 16;  // same set, different tag
  EXPECT_FALSE(cache.access(0x0, 4, false).hit);
  EXPECT_FALSE(cache.access(stride, 4, false).hit);
  EXPECT_FALSE(cache.access(0x0, 4, false).hit) << "evicted by conflict";
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(CacheTest, TwoWayAbsorbsConflictPair) {
  const CacheConfig config{4096, 2, 16};  // 128 sets
  Cache cache(config);
  const std::uint32_t stride = 128 * 16;
  cache.access(0x0, 4, false);
  cache.access(stride, 4, false);
  EXPECT_TRUE(cache.access(0x0, 4, false).hit);
  EXPECT_TRUE(cache.access(stride, 4, false).hit);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheTest, LruEvictsLeastRecentlyUsed) {
  const CacheConfig config{4096, 2, 16};
  Cache cache(config, ReplacementPolicy::kLru);
  const std::uint32_t stride = 128 * 16;
  cache.access(0 * stride, 4, false);
  cache.access(1 * stride, 4, false);
  cache.access(0 * stride, 4, false);  // touch A: B is now LRU
  cache.access(2 * stride, 4, false);  // evicts B
  EXPECT_TRUE(cache.access(0 * stride, 4, false).hit);
  EXPECT_FALSE(cache.access(1 * stride, 4, false).hit);
}

TEST(CacheTest, FifoEvictsOldestRegardlessOfUse) {
  const CacheConfig config{4096, 2, 16};
  Cache cache(config, ReplacementPolicy::kFifo);
  const std::uint32_t stride = 128 * 16;
  cache.access(0 * stride, 4, false);  // A filled first
  cache.access(1 * stride, 4, false);
  cache.access(0 * stride, 4, false);  // touching A must not matter
  cache.access(2 * stride, 4, false);  // evicts A (oldest fill)
  EXPECT_FALSE(cache.access(0 * stride, 4, false).hit);
}

TEST(CacheTest, RandomPolicyRequiresRngAndStaysFunctional) {
  Rng rng(5);
  Cache cache(CacheConfig{4096, 2, 16}, ReplacementPolicy::kRandom, &rng);
  const std::uint32_t stride = 128 * 16;
  for (std::uint32_t i = 0; i < 8; ++i) {
    cache.access(i * stride, 4, false);
  }
  EXPECT_EQ(cache.stats().misses, 8u);
  EXPECT_EQ(cache.stats().evictions, 6u);  // 2 ways held, 6 evicted
}

TEST(CacheTest, WritebackOnDirtyEviction) {
  const CacheConfig config{2048, 1, 16};
  Cache cache(config);
  const std::uint32_t stride = 128 * 16;
  cache.access(0x0, 4, true);           // dirty fill
  const auto r = cache.access(stride, 4, false);  // evicts dirty line
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(cache.stats().writebacks, 1u);
  // Clean eviction produces no writeback.
  const auto r2 = cache.access(2 * stride, 4, false);
  EXPECT_FALSE(r2.writeback);
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheTest, WriteHitMarksLineDirty) {
  const CacheConfig config{2048, 1, 16};
  Cache cache(config);
  cache.access(0x0, 4, false);  // clean fill
  cache.access(0x4, 4, true);   // write hit dirties it
  const std::uint32_t stride = 128 * 16;
  EXPECT_TRUE(cache.access(stride, 4, false).writeback);
}

TEST(CacheTest, FlushWritesBackDirtyLinesAndInvalidates) {
  Cache cache(CacheConfig{2048, 1, 16});
  cache.access(0x0, 4, true);
  cache.access(0x20, 4, false);
  EXPECT_EQ(cache.dirty_lines(), 1u);
  EXPECT_EQ(cache.flush(), 1u);
  EXPECT_EQ(cache.dirty_lines(), 0u);
  EXPECT_FALSE(cache.access(0x0, 4, false).hit) << "flush invalidates";
}

TEST(CacheTest, AccessSpanningTwoLinesTouchesBoth) {
  Cache cache(CacheConfig{2048, 1, 16});
  // 8-byte access at line_end-4 crosses into the next line.
  const auto r = cache.access(16 - 4, 8, false);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(cache.stats().accesses, 2u);
  EXPECT_TRUE(cache.access(0, 4, false).hit);
  EXPECT_TRUE(cache.access(16, 4, false).hit);
}

TEST(CacheTest, CompulsoryMissesCountUniqueLines) {
  Cache cache(CacheConfig{2048, 1, 16});
  const std::uint32_t stride = 128 * 16;
  cache.access(0, 4, false);
  cache.access(stride, 4, false);  // evicts line 0
  cache.access(0, 4, false);       // conflict miss, NOT compulsory
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().compulsory_misses, 2u);
}

TEST(CacheTest, ResetStatsKeepsContents) {
  Cache cache(CacheConfig{2048, 1, 16});
  cache.access(0x0, 4, false);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_TRUE(cache.access(0x0, 4, false).hit) << "contents survive";
}

// ---- Property sweep over every Table-1 configuration ----

class CacheConfigSweep : public ::testing::TestWithParam<CacheConfig> {
 protected:
  static MemTrace random_trace(std::size_t n, std::uint32_t span,
                               std::uint64_t seed) {
    Rng rng(seed);
    MemTrace trace;
    trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      trace.push_back(MemRef{
          static_cast<std::uint32_t>(rng.below(span)) & ~3u, 4,
          rng.bernoulli(0.3)});
    }
    return trace;
  }
};

TEST_P(CacheConfigSweep, AccountingInvariantsHold) {
  const MemTrace trace = random_trace(20000, 32768, 11);
  const CacheSimResult result = simulate_trace(trace, GetParam());
  const CacheStats& s = result.stats;
  EXPECT_EQ(s.hits + s.misses, s.accesses);
  EXPECT_EQ(s.read_misses + s.write_misses, s.misses);
  EXPECT_LE(s.compulsory_misses, s.misses);
  EXPECT_LE(s.evictions, s.misses);
  EXPECT_LE(s.writebacks, s.evictions);
  EXPECT_GE(s.accesses, trace.size());  // line-spanning only adds
}

TEST_P(CacheConfigSweep, DeterministicAcrossRuns) {
  const MemTrace trace = random_trace(5000, 16384, 12);
  const CacheSimResult a = simulate_trace(trace, GetParam());
  const CacheSimResult b = simulate_trace(trace, GetParam());
  EXPECT_EQ(a.stats.hits, b.stats.hits);
  EXPECT_EQ(a.stats.writebacks, b.stats.writebacks);
}

TEST_P(CacheConfigSweep, SequentialStreamMissesOncePerLine) {
  const CacheConfig config = GetParam();
  MemTrace trace;
  const std::uint32_t bytes = config.size_bytes / 2;  // fits comfortably
  for (std::uint32_t a = 0; a < bytes; a += 4) {
    trace.push_back(MemRef{a, 4, false});
  }
  const CacheSimResult result = simulate_trace(trace, config);
  EXPECT_EQ(result.stats.misses, bytes / config.line_bytes);
  EXPECT_EQ(result.stats.compulsory_misses, result.stats.misses);
}

TEST_P(CacheConfigSweep, WorkingSetSmallerThanCacheEventuallyAllHits) {
  const CacheConfig config = GetParam();
  // Touch half the cache twice; second pass must be all hits (any policy
  // keeps a working set smaller than capacity when accessed in order).
  MemTrace trace;
  const std::uint32_t bytes = config.size_bytes / 2;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t a = 0; a < bytes; a += 4) {
      trace.push_back(MemRef{a, 4, false});
    }
  }
  const CacheSimResult result = simulate_trace(trace, config);
  EXPECT_EQ(result.stats.misses, bytes / config.line_bytes)
      << "second pass must not miss";
}

INSTANTIATE_TEST_SUITE_P(
    Table1, CacheConfigSweep, ::testing::ValuesIn(DesignSpace::all()),
    [](const ::testing::TestParamInfo<CacheConfig>& param_info) {
      return param_info.param.name();
    });

TEST(CacheHierarchyTest, L2AbsorbsL1Misses) {
  CacheHierarchy hierarchy(CacheConfig{2048, 1, 16});
  // Working set bigger than L1 but smaller than L2 (32 KB).
  MemTrace trace;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t a = 0; a < 8192; a += 4) {
      trace.push_back(MemRef{a, 4, false});
    }
  }
  for (const MemRef& ref : trace) hierarchy.access(ref);
  const HierarchyStats stats = hierarchy.stats();
  EXPECT_GT(stats.l1.misses, 0u);
  // Every second-pass L1 miss must hit in L2.
  EXPECT_LT(stats.global_miss_rate(), stats.l1.miss_rate());
  EXPECT_GT(stats.l2.hits, 0u);
}

TEST(CacheHierarchyTest, SimulateHelperMatchesManualLoop) {
  MemTrace trace;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    trace.push_back(MemRef{
        static_cast<std::uint32_t>(rng.below(16384)) & ~3u, 4, false});
  }
  const HierarchyStats a =
      simulate_hierarchy(trace, CacheConfig{4096, 2, 32});
  CacheHierarchy h(CacheConfig{4096, 2, 32});
  for (const MemRef& ref : trace) h.access(ref);
  EXPECT_EQ(a.l1.hits, h.stats().l1.hits);
  EXPECT_EQ(a.l2.misses, h.stats().l2.misses);
}

}  // namespace
}  // namespace hetsched
