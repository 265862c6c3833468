/**
 * @file
 * Tests for the parallel execution layer: thread-pool semantics, the
 * headline determinism contract — a full simulated game produces
 * bit-identical statistics at every WC3D_THREADS and WC3D_TILE_SIZE —
 * and the committed golden statistics those runs must reproduce.
 */

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fs.hh"
#include "common/threadpool.hh"
#include "core/runner.hh"

using namespace wc3d;
using namespace wc3d::core;

TEST(ThreadPool, SubmitterOccupiesSlotZero)
{
    EXPECT_EQ(ThreadPool::currentSlot(), 0);
}

TEST(ThreadPool, SingleThreadPoolRunsInlineInOrder)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1);
    std::vector<int> order;
    TaskGroup group(pool);
    for (int i = 0; i < 16; ++i)
        group.run([&order, i] { order.push_back(i); });
    group.wait();
    std::vector<int> expect(16);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(pool, hits.size(), [&](int slot, std::size_t i) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, pool.threads());
        hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedGroupsDoNotDeadlock)
{
    // Outer tasks submit inner work to the same pool; wait() helps, so
    // this completes even when every worker is stuck in an outer task.
    ThreadPool pool(3);
    std::atomic<int> total{0};
    TaskGroup outer(pool);
    for (int t = 0; t < 8; ++t) {
        outer.run([&pool, &total] {
            parallelFor(pool, 50,
                        [&total](int, std::size_t) { total.fetch_add(1); });
        });
    }
    outer.wait();
    EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ThreadPool, ConfiguredThreadsHonoursEnvironment)
{
    setenv("WC3D_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::configuredThreads(), 3);
    unsetenv("WC3D_THREADS");
    EXPECT_GE(ThreadPool::configuredThreads(), 1);
}

namespace {

/** Simulate one OGL game uncached at the given thread count. */
MicroRun
simulateAt(int threads)
{
    ThreadPool::setGlobalThreads(threads);
    MicroRun run = runMicroarch("ut2004/primeval", 2, 256, 192,
                                /*allow_cache=*/false);
    ThreadPool::setGlobalThreads(1);
    return run;
}

void
expectCacheEqual(const memsys::CacheStats &a, const memsys::CacheStats &b,
                 const std::string &which)
{
    EXPECT_EQ(a.accesses, b.accesses) << which;
    EXPECT_EQ(a.hits, b.hits) << which;
    EXPECT_EQ(a.misses, b.misses) << which;
    EXPECT_EQ(a.writebacks, b.writebacks) << which;
}

/**
 * Assert two runs of the same workload are bit-identical: every
 * counter, every cache model, every per-client traffic byte and every
 * per-frame series sample.
 */
void
expectRunsBitIdentical(const MicroRun &run, const MicroRun &ref,
                       const std::string &label)
{
    SCOPED_TRACE(label);
    const gpu::PipelineCounters &a = run.counters;
    const gpu::PipelineCounters &b = ref.counters;
    EXPECT_EQ(a.indices, b.indices);
    EXPECT_EQ(a.vertexCacheHits, b.vertexCacheHits);
    EXPECT_EQ(a.vertexCacheMisses, b.vertexCacheMisses);
    EXPECT_EQ(a.trianglesAssembled, b.trianglesAssembled);
    EXPECT_EQ(a.trianglesClipped, b.trianglesClipped);
    EXPECT_EQ(a.trianglesCulled, b.trianglesCulled);
    EXPECT_EQ(a.trianglesTraversed, b.trianglesTraversed);
    EXPECT_EQ(a.rasterQuads, b.rasterQuads);
    EXPECT_EQ(a.rasterFullQuads, b.rasterFullQuads);
    EXPECT_EQ(a.rasterFragments, b.rasterFragments);
    EXPECT_EQ(a.quadsRemovedHz, b.quadsRemovedHz);
    EXPECT_EQ(a.quadsRemovedZStencil, b.quadsRemovedZStencil);
    EXPECT_EQ(a.quadsRemovedAlpha, b.quadsRemovedAlpha);
    EXPECT_EQ(a.quadsRemovedColorMask, b.quadsRemovedColorMask);
    EXPECT_EQ(a.quadsBlended, b.quadsBlended);
    EXPECT_EQ(a.zStencilQuads, b.zStencilQuads);
    EXPECT_EQ(a.zStencilFullQuads, b.zStencilFullQuads);
    EXPECT_EQ(a.zStencilFragments, b.zStencilFragments);
    EXPECT_EQ(a.shadedQuads, b.shadedQuads);
    EXPECT_EQ(a.shadedFragments, b.shadedFragments);
    EXPECT_EQ(a.blendedFragments, b.blendedFragments);
    EXPECT_EQ(a.vertexInstructions, b.vertexInstructions);
    EXPECT_EQ(a.fragmentInstructions, b.fragmentInstructions);
    EXPECT_EQ(a.fragmentTexInstructions, b.fragmentTexInstructions);
    EXPECT_EQ(a.textureRequests, b.textureRequests);
    EXPECT_EQ(a.bilinearSamples, b.bilinearSamples);

    // All four cache models saw the identical access stream.
    expectCacheEqual(run.zCache, ref.zCache, "z cache");
    expectCacheEqual(run.colorCache, ref.colorCache, "color cache");
    expectCacheEqual(run.texL0, ref.texL0, "tex L0");
    expectCacheEqual(run.texL1, ref.texL1, "tex L1");

    // Per-client memory traffic, byte for byte.
    for (int i = 0; i < memsys::kNumClients; ++i) {
        EXPECT_EQ(a.traffic.readBytes[i], b.traffic.readBytes[i])
            << "read client " << i;
        EXPECT_EQ(a.traffic.writeBytes[i], b.traffic.writeBytes[i])
            << "write client " << i;
    }

    // Per-frame series line up too (same values, frame by frame).
    ASSERT_EQ(run.series.frames(), ref.series.frames());
    for (const auto &name : ref.series.names()) {
        const auto &sa = run.series.series(name);
        const auto &sb = ref.series.series(name);
        ASSERT_EQ(sa.size(), sb.size()) << name;
        for (std::size_t i = 0; i < sb.size(); ++i)
            EXPECT_EQ(sa[i], sb[i]) << name << " frame " << i;
    }
}

} // namespace

TEST(Determinism, ParallelRunIsBitIdenticalToSequential)
{
    MicroRun serial = simulateAt(1);
    MicroRun parallel = simulateAt(4);
    expectRunsBitIdentical(parallel, serial, "4 threads vs 1 thread");
}

TEST(Determinism, TiledBitIdenticalAcrossThreadsAndTileSizes)
{
    // The tile-parallel back-end's headline contract: statistics are
    // bit-identical at every thread count AND every tile size. The
    // reference is the default configuration (1 thread, 32-px tiles).
    MicroRun ref = simulateAt(1);

    struct Config
    {
        int threads;
        int tile;
    };
    const Config configs[] = {{2, 32}, {4, 32}, {8, 32}, {1, 16},
                              {4, 16}, {4, 64}};
    for (const Config &c : configs) {
        setenv("WC3D_TILE_SIZE", std::to_string(c.tile).c_str(), 1);
        MicroRun run = simulateAt(c.threads);
        unsetenv("WC3D_TILE_SIZE");
        expectRunsBitIdentical(run, ref,
                               "threads=" + std::to_string(c.threads) +
                                   " tile=" + std::to_string(c.tile));
    }
}

namespace {

/** Whole file as a string; empty when it cannot be read. */
std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** "line N: expected '...', got '...'" for the first differing line. */
std::string
firstDifference(const std::string &expected, const std::string &actual)
{
    std::istringstream e(expected), a(actual);
    std::string le, la;
    for (int line = 1;; ++line) {
        bool have_e = static_cast<bool>(std::getline(e, le));
        bool have_a = static_cast<bool>(std::getline(a, la));
        if (!have_e && !have_a)
            return "trailing bytes differ";
        if (!have_e || !have_a || le != la) {
            return "line " + std::to_string(line) + ": expected '" +
                   (have_e ? le : "<eof>") + "', got '" +
                   (have_a ? la : "<eof>") + "'";
        }
    }
}

} // namespace

TEST(Determinism, GoldenStatistics)
{
    // Absolute pin of every statistic the run cache stores (counters,
    // cache models, per-client traffic bytes, per-frame series) for the
    // three simulated games. The files were recorded at 1 thread; the
    // statistics are thread-invariant, so the run uses WC3D_THREADS and
    // the pin holds under every thread count the suite runs at. To
    // accept an intended change, copy the file written under the build
    // tree over the committed one.
    const char *ids[] = {"doom3/trdemo2", "quake4/demo4",
                         "ut2004/primeval"};
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
    for (const char *id : ids) {
        std::string name = std::string(id) + "_f2_256x192.txt";
        for (char &c : name)
            if (c == '/')
                c = '_';
        const std::string golden_path =
            std::string(WC3D_GOLDEN_DIR) + "/" + name;
        const std::string expected = readText(golden_path);

        MicroRun run = runMicroarch(id, 2, 256, 192,
                                    /*allow_cache=*/false);
        const std::string actual = encodeMicroRun(run);
        if (actual == expected)
            continue;

        const std::string actual_path =
            std::string(WC3D_GOLDEN_ACTUAL_DIR) + "/" + name;
        std::string error;
        if (!makeDirs(WC3D_GOLDEN_ACTUAL_DIR) ||
            !atomicWriteFile(actual_path, actual, &error))
            ADD_FAILURE() << "cannot write " << actual_path << ": "
                          << error;
        ADD_FAILURE() << id << " differs from " << golden_path << " at "
                      << firstDifference(expected, actual)
                      << "; actual text written to " << actual_path;
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(Determinism, FanOutMatchesSerialLoop)
{
    // Games fanned out onto the pool (the runSimulatedGames dispatch
    // shape, at test resolution) must match individual serial runs:
    // each run's simulator is confined to the task executing it.
    const char *ids[] = {"doom3/trdemo2", "quake4/demo4",
                         "ut2004/primeval"};
    ThreadPool::setGlobalThreads(4);
    MicroRun fanned[3];
    {
        TaskGroup group;
        for (int i = 0; i < 3; ++i) {
            group.run([&fanned, &ids, i] {
                fanned[i] = runMicroarch(ids[i], 1, 256, 192,
                                         /*allow_cache=*/false);
            });
        }
        group.wait();
    }
    ThreadPool::setGlobalThreads(1);

    for (int i = 0; i < 3; ++i) {
        MicroRun serial = runMicroarch(ids[i], 1, 256, 192,
                                       /*allow_cache=*/false);
        EXPECT_EQ(fanned[i].id, serial.id);
        EXPECT_EQ(fanned[i].counters.rasterFragments,
                  serial.counters.rasterFragments);
        EXPECT_EQ(fanned[i].counters.shadedFragments,
                  serial.counters.shadedFragments);
        EXPECT_EQ(fanned[i].counters.traffic.total(),
                  serial.counters.traffic.total());
    }
}
