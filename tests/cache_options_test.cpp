// Tests for the cache architecture options: write-through/no-allocate
// and the next-line prefetcher.
#include <gtest/gtest.h>

#include "cache/cache.hpp"

namespace hetsched {
namespace {

constexpr CacheConfig kSmall{2048, 1, 16};

TEST(WritePolicyTest, Names) {
  EXPECT_EQ(to_string(WritePolicy::kWriteBackAllocate), "write-back");
  EXPECT_EQ(to_string(WritePolicy::kWriteThroughNoAllocate),
            "write-through");
}

TEST(WritePolicyTest, WriteThroughForwardsEveryStore) {
  CacheOptions options;
  options.write = WritePolicy::kWriteThroughNoAllocate;
  Cache cache(kSmall, options);
  cache.access(0x0, 4, false);  // read fill
  cache.access(0x0, 4, true);   // write hit -> forwarded
  cache.access(0x4, 4, true);   // write hit -> forwarded
  EXPECT_EQ(cache.stats().writethroughs, 2u);
  EXPECT_EQ(cache.dirty_lines(), 0u) << "write-through lines stay clean";
}

TEST(WritePolicyTest, WriteMissDoesNotAllocate) {
  CacheOptions options;
  options.write = WritePolicy::kWriteThroughNoAllocate;
  Cache cache(kSmall, options);
  const auto miss = cache.access(0x100, 4, true);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(cache.stats().writethroughs, 1u);
  // The line was NOT brought in: the subsequent read still misses.
  EXPECT_FALSE(cache.access(0x100, 4, false).hit);
  // ... but reads do allocate:
  EXPECT_TRUE(cache.access(0x100, 4, false).hit);
}

TEST(WritePolicyTest, WriteThroughNeverWritesBack) {
  CacheOptions options;
  options.write = WritePolicy::kWriteThroughNoAllocate;
  Cache cache(kSmall, options);
  const std::uint32_t stride = 128 * 16;
  cache.access(0x0, 4, false);
  cache.access(0x0, 4, true);
  // Conflict-evict the line: no writeback (memory already current).
  const auto r = cache.access(stride, 4, false);
  EXPECT_FALSE(r.writeback);
  EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST(WritePolicyTest, WriteBackMatchesLegacyConstructor) {
  // The two-arg constructor and default options agree.
  Cache a(kSmall, ReplacementPolicy::kLru);
  Cache b(kSmall, CacheOptions{});
  for (std::uint32_t addr = 0; addr < 4096; addr += 8) {
    a.access(addr, 4, (addr / 8) % 3 == 0);
    b.access(addr, 4, (addr / 8) % 3 == 0);
  }
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().writebacks, b.stats().writebacks);
  EXPECT_EQ(a.stats().writethroughs, 0u);
}

TEST(PrefetchTest, NextLinePrefetchTurnsSequentialMissesIntoHits) {
  CacheOptions options;
  options.next_line_prefetch = true;
  Cache with(kSmall, options);
  Cache without(kSmall, CacheOptions{});
  for (std::uint32_t addr = 0; addr < 1024; addr += 4) {
    with.access(addr, 4, false);
    without.access(addr, 4, false);
  }
  // Sequential stream: prefetching halves the demand misses (every other
  // line arrives early).
  EXPECT_LT(with.stats().misses, without.stats().misses);
  EXPECT_GT(with.stats().prefetch_fills, 0u);
}

TEST(PrefetchTest, PrefetchDoesNotDoubleCountAccesses) {
  CacheOptions options;
  options.next_line_prefetch = true;
  Cache cache(kSmall, options);
  cache.access(0x0, 4, false);
  EXPECT_EQ(cache.stats().accesses, 1u) << "prefetch fills are not accesses";
  EXPECT_EQ(cache.stats().prefetch_fills, 1u);
  // The prefetched line is resident.
  EXPECT_TRUE(cache.access(16, 4, false).hit);
}

TEST(PrefetchTest, ResidentNextLineSkipsPrefetch) {
  CacheOptions options;
  options.next_line_prefetch = true;
  Cache cache(kSmall, options);
  cache.access(16, 4, false);  // fills line 1 (+ prefetch line 2)
  const auto before = cache.stats().prefetch_fills;
  cache.access(0, 4, false);  // miss line 0; line 1 already resident
  EXPECT_EQ(cache.stats().prefetch_fills, before)
      << "no prefetch when the next line is already cached";
}

TEST(PrefetchTest, RandomAccessPrefetchPollutes) {
  // On a pointer-chase pattern the prefetcher cannot help and costs
  // capacity: misses must not decrease dramatically (sanity bound).
  CacheOptions options;
  options.next_line_prefetch = true;
  Cache with(kSmall, options);
  Cache without(kSmall, CacheOptions{});
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const auto addr =
        static_cast<std::uint32_t>(rng.below(64 * 1024)) & ~3u;
    with.access(addr, 4, false);
    without.access(addr, 4, false);
  }
  EXPECT_GT(static_cast<double>(with.stats().misses),
            0.8 * static_cast<double>(without.stats().misses));
}

}  // namespace
}  // namespace hetsched
