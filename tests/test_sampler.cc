/**
 * @file
 * Unit tests for the texture sampler: filtering correctness, LOD
 * selection, anisotropic probe counts and bilinear-sample accounting
 * (the Table XIII quantities), plus the two-level texture cache.
 */

#include <gtest/gtest.h>

#include "memory/controller.hh"
#include "texture/texcache.hh"

using namespace wc3d;
using namespace wc3d::tex;

namespace {

/** 2x2 quad coordinates for a uniform uv gradient. */
void
quadCoords(Vec4 out[4], Vec2 base, Vec2 ddx, Vec2 ddy)
{
    out[0] = {base.x, base.y, 0, 1};
    out[1] = {base.x + ddx.x, base.y + ddx.y, 0, 1};
    out[2] = {base.x + ddy.x, base.y + ddy.y, 0, 1};
    out[3] = {base.x + ddx.x + ddy.x, base.y + ddx.y + ddy.y, 0, 1};
}

Texture2D
flatTexture(Rgba8 c, int size = 64)
{
    Image img(size, size, c);
    return Texture2D("flat", img, TexFormat::RGBA8);
}

} // namespace

TEST(Sampler, NearestPicksExactTexel)
{
    Texture2D t = Texture2D::checkerboard("chk", 8, 1, {255, 0, 0, 255},
                                          {0, 0, 255, 255},
                                          TexFormat::RGBA8);
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Nearest;
    // Center of texel (0,0): red. Center of texel (1,0): blue.
    Vec4 r = s.sampleLod(t, st, {0.5f / 8, 0.5f / 8}, 0.0f);
    EXPECT_FLOAT_EQ(r.x, 1.0f);
    Vec4 b = s.sampleLod(t, st, {1.5f / 8, 0.5f / 8}, 0.0f);
    EXPECT_FLOAT_EQ(b.z, 1.0f);
    EXPECT_EQ(s.stats().bilinearSamples, 0u);
    EXPECT_EQ(s.stats().texelReads, 2u);
}

TEST(Sampler, BilinearAtTexelCenterIsExact)
{
    Texture2D t = flatTexture({100, 150, 200, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Bilinear;
    Vec4 r = s.sampleLod(t, st, {0.5f, 0.5f}, 0.0f);
    EXPECT_NEAR(r.x, 100.0f / 255.0f, 1e-5f);
    EXPECT_NEAR(r.y, 150.0f / 255.0f, 1e-5f);
    EXPECT_EQ(s.stats().bilinearSamples, 1u);
    EXPECT_EQ(s.stats().texelReads, 4u);
}

TEST(Sampler, BilinearInterpolatesHalfway)
{
    // Two-column texture: black and white; halfway between centers
    // must be mid-grey.
    Image img(2, 2);
    img.set(0, 0, {0, 0, 0, 255});
    img.set(0, 1, {0, 0, 0, 255});
    img.set(1, 0, {255, 255, 255, 255});
    img.set(1, 1, {255, 255, 255, 255});
    Texture2D t("bw", img, TexFormat::RGBA8);
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Bilinear;
    Vec4 r = s.sampleLod(t, st, {0.5f, 0.5f}, 0.0f);
    EXPECT_NEAR(r.x, 0.5f, 1e-5f);
}

TEST(Sampler, WrapRepeatVsClamp)
{
    Image img(4, 4);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            img.set(x, y, x == 0 ? Rgba8{255, 0, 0, 255}
                                 : Rgba8{0, 255, 0, 255});
    Texture2D t("wrap", img, TexFormat::RGBA8);
    Sampler s;
    SamplerState repeat;
    repeat.filter = TexFilter::Nearest;
    repeat.wrap = TexWrap::Repeat;
    SamplerState clamp = repeat;
    clamp.wrap = TexWrap::Clamp;
    // u slightly beyond 1.0 wraps to texel 0 (red) vs clamps to 3 (green).
    Vec4 r = s.sampleLod(t, repeat, {1.01f, 0.1f}, 0.0f);
    EXPECT_FLOAT_EQ(r.x, 1.0f);
    Vec4 c = s.sampleLod(t, clamp, {1.01f, 0.1f}, 0.0f);
    EXPECT_FLOAT_EQ(c.y, 1.0f);
}

TEST(Sampler, TrilinearCostsTwoBilinearsAtFractionalLod)
{
    Texture2D t = flatTexture({128, 128, 128, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Trilinear;
    s.sampleLod(t, st, {0.5f, 0.5f}, 1.5f);
    EXPECT_EQ(s.stats().bilinearSamples, 2u);
    s.resetStats();
    s.sampleLod(t, st, {0.5f, 0.5f}, 0.0f); // magnification: 1 bilinear
    EXPECT_EQ(s.stats().bilinearSamples, 1u);
    s.resetStats();
    s.sampleLod(t, st, {0.5f, 0.5f}, 100.0f); // clamped to top: 1
    EXPECT_EQ(s.stats().bilinearSamples, 1u);
}

TEST(Sampler, QuadLodSelectsMipFromFootprint)
{
    // 64-texel texture sampled with a 1-texel-per-pixel footprint at
    // level 0 -> lod 0; 4-texels-per-pixel -> lod 2.
    Texture2D t = flatTexture({50, 100, 150, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Trilinear;
    Vec4 coords[4];
    Vec4 out[4];
    // ddx of 4 texels = 4/64 in uv.
    quadCoords(coords, {0.3f, 0.3f}, {4.0f / 64, 0}, {0, 4.0f / 64});
    s.sampleQuad(t, st, coords, 0.0f, out);
    // lod = 2 exactly -> single bilinear per lane.
    EXPECT_EQ(s.stats().bilinearSamples, 4u);
    EXPECT_EQ(s.stats().requests, 4u);
}

TEST(Sampler, AnisotropicProbeCountTracksRatio)
{
    Texture2D t = flatTexture({50, 100, 150, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Anisotropic;
    st.maxAniso = 16;
    Vec4 coords[4];
    Vec4 out[4];
    // 8:1 anisotropy: 8 texels in x, 1 texel in y per pixel step.
    quadCoords(coords, {0.1f, 0.1f}, {8.0f / 64, 0}, {0, 1.0f / 64});
    s.sampleQuad(t, st, coords, 0.0f, out);
    // 8 probes per lane; footprint ~1 texel -> lod 0 -> 1 bilinear each.
    EXPECT_EQ(s.stats().bilinearSamples, 32u);
    EXPECT_EQ(s.stats().requests, 4u);
    EXPECT_DOUBLE_EQ(s.stats().bilinearsPerRequest(), 8.0);
}

TEST(Sampler, AnisotropyClampedToMaxAniso)
{
    Texture2D t = flatTexture({50, 100, 150, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Anisotropic;
    st.maxAniso = 4;
    Vec4 coords[4];
    Vec4 out[4];
    // 32:1 anisotropy, clamped to 4 probes.
    quadCoords(coords, {0.1f, 0.1f}, {32.0f / 64, 0}, {0, 1.0f / 64});
    s.sampleQuad(t, st, coords, 0.0f, out);
    EXPECT_EQ(s.stats().anisoRatioSum / s.stats().anisoRequests, 4.0);
}

TEST(Sampler, IsotropicFootprintSingleProbe)
{
    Texture2D t = flatTexture({50, 100, 150, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Anisotropic;
    st.maxAniso = 16;
    Vec4 coords[4];
    Vec4 out[4];
    quadCoords(coords, {0.1f, 0.1f}, {1.0f / 64, 0}, {0, 1.0f / 64});
    s.sampleQuad(t, st, coords, 0.0f, out);
    // ratio 1 -> 1 probe, lod 0 -> 1 bilinear per lane.
    EXPECT_EQ(s.stats().bilinearSamples, 4u);
}

TEST(Sampler, LodBiasShiftsLevel)
{
    Texture2D t = flatTexture({50, 100, 150, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Trilinear;
    Vec4 coords[4];
    Vec4 out[4];
    quadCoords(coords, {0.3f, 0.3f}, {1.0f / 64, 0}, {0, 1.0f / 64});
    // lod would be 0; +1.5 bias forces trilinear between levels 1 and 2.
    s.sampleQuad(t, st, coords, 1.5f, out);
    EXPECT_EQ(s.stats().bilinearSamples, 8u); // 2 per lane
}

TEST(Sampler, SampledColorMatchesFlatTexture)
{
    Texture2D t = flatTexture({80, 120, 160, 200});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Anisotropic;
    st.maxAniso = 16;
    Vec4 coords[4];
    Vec4 out[4];
    quadCoords(coords, {0.4f, 0.2f}, {6.0f / 64, 0}, {0, 1.0f / 64});
    s.sampleQuad(t, st, coords, 0.0f, out);
    for (int l = 0; l < 4; ++l) {
        EXPECT_NEAR(out[l].x, 80.0f / 255.0f, 0.02f);
        EXPECT_NEAR(out[l].w, 200.0f / 255.0f, 0.02f);
    }
}

TEST(TexCache, HitsOnRepeatedBlock)
{
    memsys::MemoryController mc;
    TextureCache cache(TexCacheConfig{}, &mc);
    Texture2D t = Texture2D::noise("n", 64, 1, TexFormat::DXT1);
    t.bindMemory(mc);
    cache.blockAccess(t, 0, 0, 0, 1);
    EXPECT_EQ(cache.l0Stats().misses, 1u);
    cache.blockAccess(t, 0, 0, 0, 1);
    EXPECT_EQ(cache.l0Stats().hits, 1u);
    // One L1 line (64B, 8 DXT1 blocks) was read from memory.
    EXPECT_EQ(mc.traffic().readBytes[static_cast<int>(
                  memsys::Client::Texture)], 64u);
}

TEST(TexCache, L1CoversNeighbouringCompressedBlocks)
{
    memsys::MemoryController mc;
    TextureCache cache(TexCacheConfig{}, &mc);
    Texture2D t = Texture2D::noise("n", 64, 1, TexFormat::DXT1);
    t.bindMemory(mc);
    // 8 DXT1 blocks (8B each) share one 64B L1 line: 8 L0 misses but
    // only one memory read.
    for (int bx = 0; bx < 8; ++bx)
        cache.blockAccess(t, 0, bx, 0, 1);
    EXPECT_EQ(cache.l0Stats().misses, 8u);
    EXPECT_EQ(cache.l1Stats().misses, 1u);
    EXPECT_EQ(cache.l1Stats().hits, 7u);
    EXPECT_EQ(mc.traffic().readBytes[static_cast<int>(
                  memsys::Client::Texture)], 64u);
}

TEST(TexCache, InvalidateDropsResidency)
{
    memsys::MemoryController mc;
    TextureCache cache(TexCacheConfig{}, &mc);
    Texture2D t = Texture2D::noise("n", 64, 1, TexFormat::DXT1);
    t.bindMemory(mc);
    cache.blockAccess(t, 0, 0, 0, 1);
    cache.invalidate();
    cache.resetStats();
    cache.blockAccess(t, 0, 0, 0, 1);
    EXPECT_EQ(cache.l0Stats().misses, 1u);
}
