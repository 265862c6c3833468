/**
 * @file
 * Unit and property tests for the set-associative cache model, plus a
 * differential test against a linear-scan reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "memory/cache.hh"

using namespace wc3d;
using namespace wc3d::memsys;

TEST(Cache, FirstAccessMisses)
{
    CacheModel c(4, 1, 64);
    auto r = c.access(0x100, false);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.fillAddress, 0x100u);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, SecondAccessSameLineHits)
{
    CacheModel c(4, 1, 64);
    c.access(0x100, false);
    auto r = c.access(0x13f, false); // same 64B line
    EXPECT_TRUE(r.hit);
    auto r2 = c.access(0x140, false); // next line
    EXPECT_FALSE(r2.hit);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    CacheModel c(2, 1, 64); // 2 lines total
    c.access(0x000, false);
    c.access(0x040, false);
    c.access(0x000, false);          // touch line 0 again
    c.access(0x080, false);          // evicts 0x040
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x040));
    EXPECT_TRUE(c.contains(0x080));
}

TEST(Cache, DirtyVictimTriggersWriteback)
{
    CacheModel c(1, 1, 64);
    c.access(0x000, true);           // dirty
    auto r = c.access(0x040, false); // evicts dirty line
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddress, 0x000u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanVictimNoWriteback)
{
    CacheModel c(1, 1, 64);
    c.access(0x000, false);
    auto r = c.access(0x040, false);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    CacheModel c(1, 1, 64);
    c.access(0x000, false);          // clean fill
    c.access(0x000, true);           // dirty via write hit
    auto r = c.access(0x040, false);
    EXPECT_TRUE(r.writeback);
}

TEST(Cache, SetsIsolateAddresses)
{
    // 2 sets: even lines -> set 0, odd lines -> set 1.
    CacheModel c(1, 2, 64);
    c.access(0x000, false); // line 0, set 0
    c.access(0x040, false); // line 1, set 1
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x040));
    c.access(0x080, false); // line 2, set 0: evicts line 0 only
    EXPECT_FALSE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x040));
}

TEST(Cache, FlushDirtyWritesBackAllDirtyLines)
{
    CacheModel c(4, 1, 64);
    c.access(0x000, true);
    c.access(0x040, false);
    c.access(0x080, true);
    int count = 0;
    c.flushDirty([&](std::uint64_t) { ++count; });
    EXPECT_EQ(count, 2);
    // Second flush: nothing dirty.
    count = 0;
    c.flushDirty([&](std::uint64_t) { ++count; });
    EXPECT_EQ(count, 0);
    // Lines stay resident.
    EXPECT_TRUE(c.contains(0x000));
}

TEST(Cache, InvalidateAllDropsResidency)
{
    CacheModel c(4, 1, 64);
    c.access(0x000, true);
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0x000));
    // No writeback on next eviction since the dirty line was dropped.
    auto r = c.access(0x000, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, StatsAddUp)
{
    CacheModel c(2, 2, 64);
    Rng rng(123);
    for (int i = 0; i < 10000; ++i)
        c.access(rng.nextBounded(64) * 64, rng.nextBounded(2) == 0);
    const auto &s = c.stats();
    EXPECT_EQ(s.accesses, 10000u);
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_GT(s.hitRate(), 0.0);
    EXPECT_LT(s.hitRate(), 1.0);
}

TEST(Cache, GeometryAccessors)
{
    CacheModel c(16, 16, 64);
    EXPECT_EQ(c.ways(), 16);
    EXPECT_EQ(c.sets(), 16);
    EXPECT_EQ(c.lineSize(), 64);
    EXPECT_EQ(c.sizeBytes(), 16 * 1024);
    EXPECT_EQ(c.lineAddress(0x1234), 0x1200u);
}

TEST(Cache, SequentialStreamHitRateMatchesLineReuse)
{
    // Touch every 4 bytes of a large region: with 64B lines, 1 miss
    // followed by 15 hits per line => hit rate 15/16.
    CacheModel c(8, 8, 64);
    for (std::uint64_t a = 0; a < 64 * 1024; a += 4)
        c.access(a, false);
    EXPECT_NEAR(c.stats().hitRate(), 15.0 / 16.0, 1e-9);
}

TEST(Cache, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup)
{
    CacheModel c(4, 4, 64); // 1 KB
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 1024; a += 64)
            c.access(a, false);
    // First pass: 16 misses. Second pass: all hits.
    EXPECT_EQ(c.stats().misses, 16u);
    EXPECT_EQ(c.stats().hits, 16u);
}

/** Property sweep: for many geometries, hits+misses==accesses and a
 * cyclic working set larger than the cache always misses under LRU. */
class CacheGeometry : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheGeometry, InvariantsHold)
{
    auto [ways, sets, line] = GetParam();
    CacheModel c(ways, sets, line);
    Rng rng(static_cast<std::uint64_t>(ways * 1000 + sets * 10 + line));
    for (int i = 0; i < 5000; ++i)
        c.access(rng.nextBounded(4096) * 16, rng.nextBounded(2) == 0);
    const auto &s = c.stats();
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_LE(s.writebacks, s.accesses);
}

TEST_P(CacheGeometry, CyclicThrashAlwaysMissesWithLru)
{
    auto [ways, sets, line] = GetParam();
    CacheModel c(ways, sets, line);
    // Cycle through (ways+1) lines of one set repeatedly: LRU guarantees
    // a miss every time once warm.
    std::uint64_t stride = static_cast<std::uint64_t>(line) * sets;
    for (int pass = 0; pass < 4; ++pass)
        for (int i = 0; i <= ways; ++i)
            c.access(i * stride, false);
    EXPECT_EQ(c.stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(1, 1, 64),
                      std::make_tuple(2, 4, 64),
                      std::make_tuple(4, 16, 32),
                      std::make_tuple(16, 16, 64),
                      std::make_tuple(64, 1, 256)));

namespace {

/**
 * Reference model for the differential test: the straightforward
 * linear-scan LRU cache. Each way carries the tick of its last touch;
 * a lookup scans the set's ways, and a miss fills the first invalid way
 * or else evicts the way with the oldest tick.
 */
class RefCache
{
  public:
    RefCache(int ways, int sets, int line_size)
        : _ways(ways), _sets(sets), _lineSize(line_size),
          _lines(static_cast<std::size_t>(ways) * sets)
    {
    }

    CacheAccessResult
    access(std::uint64_t address, bool is_write)
    {
        CacheAccessResult result;
        std::uint64_t line_number = address / _lineSize;
        Line *base = setBase(line_number);
        ++_tick;
        ++_stats.accesses;
        for (int w = 0; w < _ways; ++w) {
            if (base[w].valid && base[w].tag == line_number) {
                result.hit = true;
                ++_stats.hits;
                base[w].dirty |= is_write;
                base[w].stamp = _tick;
                return result;
            }
        }
        ++_stats.misses;
        Line *victim = &base[0];
        for (int w = 0; w < _ways; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].stamp < victim->stamp)
                victim = &base[w];
        }
        if (victim->valid && victim->dirty) {
            result.writeback = true;
            result.writebackAddress = victim->tag * _lineSize;
            ++_stats.writebacks;
        }
        *victim = {true, is_write, line_number, _tick};
        result.fillAddress = line_number * _lineSize;
        return result;
    }

    bool
    contains(std::uint64_t address) const
    {
        std::uint64_t line_number = address / _lineSize;
        const Line *base = &_lines[static_cast<std::size_t>(
            line_number & (_sets - 1)) * _ways];
        for (int w = 0; w < _ways; ++w)
            if (base[w].valid && base[w].tag == line_number)
                return true;
        return false;
    }

    std::vector<std::uint64_t>
    flushDirty()
    {
        std::vector<std::uint64_t> flushed;
        for (auto &line : _lines) {
            if (line.valid && line.dirty) {
                flushed.push_back(line.tag * _lineSize);
                line.dirty = false;
                ++_stats.writebacks;
            }
        }
        return flushed;
    }

    void
    invalidateAll()
    {
        for (auto &line : _lines)
            line = Line();
    }

    const CacheStats &stats() const { return _stats; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0;
    };

    Line *
    setBase(std::uint64_t line_number)
    {
        return &_lines[static_cast<std::size_t>(line_number & (_sets - 1)) *
                       _ways];
    }

    int _ways;
    int _sets;
    int _lineSize;
    std::uint64_t _tick = 0;
    std::vector<Line> _lines;
    CacheStats _stats;
};

void
expectSameStats(const CacheStats &a, const CacheStats &b, int step)
{
    EXPECT_EQ(a.accesses, b.accesses) << "step " << step;
    EXPECT_EQ(a.hits, b.hits) << "step " << step;
    EXPECT_EQ(a.misses, b.misses) << "step " << step;
    EXPECT_EQ(a.writebacks, b.writebacks) << "step " << step;
}

} // namespace

/**
 * Drive CacheModel and RefCache with the same seeded read/write stream,
 * interleaved with invalidateAll and flushDirty, and compare every
 * access result, the statistics and the flushed addresses (in order) at
 * every step. The address range is a few times the cache's capacity so
 * hits, clean and dirty evictions all occur.
 */
class CacheDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheDifferential, MatchesLinearScanReference)
{
    auto [ways, sets, line] = GetParam();
    CacheModel model(ways, sets, line);
    RefCache ref(ways, sets, line);
    Rng rng(static_cast<std::uint64_t>(ways * 7919 + sets * 104729 + line));
    std::uint64_t lines = static_cast<std::uint64_t>(ways) * sets * 3 + 1;
    // A high base checks that line numbers are not truncated anywhere.
    const std::uint64_t base = 0x7f3a00000000ull;
    for (int step = 0; step < 60000; ++step) {
        std::uint32_t op = rng.nextBounded(1000);
        if (op == 0) {
            model.invalidateAll();
            ref.invalidateAll();
            continue;
        }
        if (op < 4) {
            std::vector<std::uint64_t> flushed;
            model.flushDirty(
                [&](std::uint64_t addr) { flushed.push_back(addr); });
            ASSERT_EQ(flushed, ref.flushDirty()) << "step " << step;
            expectSameStats(model.stats(), ref.stats(), step);
            continue;
        }
        std::uint64_t address =
            base + rng.nextBounded(static_cast<std::uint32_t>(lines)) *
                       static_cast<std::uint64_t>(line) +
            rng.nextBounded(static_cast<std::uint32_t>(line));
        bool is_write = rng.nextBounded(3) == 0;
        CacheAccessResult a = model.access(address, is_write);
        CacheAccessResult b = ref.access(address, is_write);
        ASSERT_EQ(a.hit, b.hit) << "step " << step;
        ASSERT_EQ(a.fillAddress, b.fillAddress) << "step " << step;
        ASSERT_EQ(a.writeback, b.writeback) << "step " << step;
        ASSERT_EQ(a.writebackAddress, b.writebackAddress) << "step " << step;
        std::uint64_t probe =
            base + rng.nextBounded(static_cast<std::uint32_t>(lines)) *
                       static_cast<std::uint64_t>(line);
        ASSERT_EQ(model.contains(probe), ref.contains(probe))
            << "step " << step;
        expectSameStats(model.stats(), ref.stats(), step);
    }
    // The stream must have exercised every path being compared.
    EXPECT_GT(model.stats().hits, 0u);
    EXPECT_GT(model.stats().misses, model.stats().accesses / 10);
    EXPECT_GT(model.stats().writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(std::make_tuple(64, 1, 256),  // z / colour caches
                      std::make_tuple(64, 1, 64),   // texture L0
                      std::make_tuple(16, 16, 64),  // texture L1
                      std::make_tuple(1, 1, 64),
                      std::make_tuple(2, 4, 64)));
