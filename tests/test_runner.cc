/**
 * @file
 * Tests for the run disk cache: exact save/load round trips including
 * the per-frame series CSV, rejection of schema-mismatched and
 * truncated files, write-failure reporting, and nested cache
 * directory creation.
 */

#include <cstdio>
#include <cstdlib>
#include <sys/stat.h>

#include <gtest/gtest.h>

#include "common/fs.hh"
#include "core/runner.hh"

using namespace wc3d;
using namespace wc3d::core;

namespace {

/** A fully populated synthetic run (no simulation needed). */
MicroRun
syntheticRun()
{
    MicroRun run;
    run.id = "doom3/trdemo1";
    run.frames = 3;
    run.width = 320;
    run.height = 240;

    gpu::PipelineCounters &c = run.counters;
    c.indices = 12345;
    c.vertexCacheHits = 8000;
    c.vertexCacheMisses = 4345;
    c.trianglesAssembled = 4115;
    c.trianglesClipped = 7;
    c.trianglesCulled = 1900;
    c.trianglesTraversed = 2208;
    c.rasterQuads = 52345;
    c.rasterFullQuads = 40000;
    c.rasterFragments = 190011;
    c.quadsRemovedHz = 5001;
    c.quadsRemovedZStencil = 9002;
    c.quadsRemovedAlpha = 403;
    c.quadsRemovedColorMask = 1204;
    c.quadsBlended = 36735;
    c.zStencilQuads = 47344;
    c.zStencilFullQuads = 36000;
    c.zStencilFragments = 170000;
    c.shadedQuads = 38342;
    c.shadedFragments = 140000;
    c.blendedFragments = 131000;
    c.vertexInstructions = 900000;
    c.fragmentInstructions = 2100000;
    c.fragmentTexInstructions = 300000;
    c.textureRequests = 290000;
    c.bilinearSamples = 610000;
    for (int i = 0; i < memsys::kNumClients; ++i) {
        c.traffic.readBytes[i] = 1000u * (i + 1);
        c.traffic.writeBytes[i] = 500u * (i + 1);
    }
    run.zCache = {4000, 3500, 500, 120};
    run.colorCache = {6000, 5200, 800, 300};
    run.texL0 = {90000, 88000, 2000, 0};
    run.texL1 = {2000, 1500, 500, 0};

    for (int frame = 0; frame < run.frames; ++frame) {
        run.series.record("vcache_hit_rate", 0.625 + 0.01 * frame);
        run.series.record("mem_bytes", 1.0e6 + 17.0 * frame);
        run.series.endFrame();
    }
    return run;
}

std::string
tmpPath(const char *name)
{
    return ::testing::TempDir() + name;
}

/** Read an entire file into a string. */
std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string content;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, n);
    std::fclose(f);
    return content;
}

void
spit(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
              content.size());
    ASSERT_EQ(std::fclose(f), 0);
}

} // namespace

TEST(RunnerCache, RoundTripIsExactIncludingSeries)
{
    MicroRun run = syntheticRun();
    std::string path = tmpPath("wc3d_roundtrip.txt");
    ASSERT_TRUE(saveMicroRun(run, path));

    MicroRun loaded;
    ASSERT_TRUE(loadMicroRun(loaded, path));
    EXPECT_EQ(loaded.id, run.id);
    EXPECT_EQ(loaded.frames, run.frames);
    EXPECT_EQ(loaded.width, run.width);
    EXPECT_EQ(loaded.height, run.height);

    const gpu::PipelineCounters &a = loaded.counters;
    const gpu::PipelineCounters &b = run.counters;
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
    for (int i = 0; i < memsys::kNumClients; ++i) {
        EXPECT_EQ(a.traffic.readBytes[i], b.traffic.readBytes[i]);
        EXPECT_EQ(a.traffic.writeBytes[i], b.traffic.writeBytes[i]);
    }
    const std::pair<const memsys::CacheStats *, const memsys::CacheStats *>
        caches[] = {{&loaded.zCache, &run.zCache},
                    {&loaded.colorCache, &run.colorCache},
                    {&loaded.texL0, &run.texL0},
                    {&loaded.texL1, &run.texL1}};
    for (const auto &[got, want] : caches) {
        EXPECT_EQ(got->accesses, want->accesses);
        EXPECT_EQ(got->hits, want->hits);
        EXPECT_EQ(got->misses, want->misses);
        EXPECT_EQ(got->writebacks, want->writebacks);
    }

    // Per-frame series survive the CSV round trip exactly.
    ASSERT_EQ(loaded.series.frames(), run.frames);
    for (const char *name : {"vcache_hit_rate", "mem_bytes"}) {
        ASSERT_EQ(loaded.series.series(name).size(),
                  run.series.series(name).size());
        for (std::size_t i = 0; i < run.series.series(name).size(); ++i) {
            EXPECT_DOUBLE_EQ(loaded.series.series(name)[i],
                             run.series.series(name)[i])
                << name << " frame " << i;
        }
    }
    std::remove(path.c_str());
}

TEST(RunnerCache, LoadRejectsSchemaMismatch)
{
    MicroRun run = syntheticRun();
    std::string path = tmpPath("wc3d_schema.txt");
    ASSERT_TRUE(saveMicroRun(run, path));

    // Flip the format header to an unknown version.
    std::string content = slurp(path);
    content.replace(content.find("microrun-v1"),
                    std::string("microrun-v1").size(), "microrun-v9");
    spit(path, content);

    MicroRun loaded;
    EXPECT_FALSE(loadMicroRun(loaded, path));
    std::remove(path.c_str());

    // The simulator schema version is part of the cache key, so a
    // schema bump can never serve stale files.
    EXPECT_NE(cachePath("doom3/trdemo1", 3, 320, 240).find("_v5"),
              std::string::npos);
}

TEST(RunnerCache, LoadRejectsTruncatedFile)
{
    MicroRun run = syntheticRun();
    std::string path = tmpPath("wc3d_trunc.txt");
    ASSERT_TRUE(saveMicroRun(run, path));
    std::string content = slurp(path);

    // A complete file loads; any proper prefix must be rejected, no
    // matter where the cut lands (mid-counters, mid-series, ...).
    MicroRun loaded;
    ASSERT_TRUE(loadMicroRun(loaded, path));
    for (std::size_t frac = 1; frac < 8; ++frac) {
        spit(path, content.substr(0, content.size() * frac / 8));
        EXPECT_FALSE(loadMicroRun(loaded, path)) << "fraction " << frac;
    }
    // Even losing just the end marker rejects the file.
    spit(path, content.substr(0, content.size() - 2));
    EXPECT_FALSE(loadMicroRun(loaded, path));
    std::remove(path.c_str());
}

TEST(RunnerCache, SaveReportsWriteFailure)
{
    MicroRun run = syntheticRun();
    // The temp file cannot be created in a nonexistent directory.
    EXPECT_FALSE(saveMicroRun(run, "/nonexistent-dir/sub/run.txt"));
}

TEST(RunnerCache, MakeDirsCreatesNestedPaths)
{
    std::string base = tmpPath("wc3d_nest");
    std::string nested = base + "/a/b/c";
    EXPECT_TRUE(makeDirs(nested));
    struct stat st;
    ASSERT_EQ(::stat(nested.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    // Idempotent on an existing tree.
    EXPECT_TRUE(makeDirs(nested));
    // A file in the way fails cleanly.
    std::string file_path = base + "/a/file";
    spit(file_path, "x");
    EXPECT_FALSE(makeDirs(file_path + "/sub"));
}

TEST(RunnerCache, MicroarchCreatesNestedCacheDir)
{
    std::string dir = tmpPath("wc3d_cachedirs") + "/deep/cache";
    setenv("WC3D_CACHE_DIR", dir.c_str(), 1);
    MicroRun run = runMicroarch("ut2004/primeval", 1, 256, 192);
    EXPECT_GT(run.counters.rasterFragments, 0u);

    // The nested directory was created and the run cached inside it.
    std::string path = cachePath("ut2004/primeval", 1, 256, 192);
    EXPECT_EQ(path.find(dir), 0u);
    MicroRun cached;
    EXPECT_TRUE(loadMicroRun(cached, path));
    EXPECT_EQ(cached.counters.rasterFragments,
              run.counters.rasterFragments);
    unsetenv("WC3D_CACHE_DIR");
}
