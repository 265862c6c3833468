/**
 * @file
 * Unit tests for mip-mapped textures: level geometry, procedural
 * constructors, memory layout, address disjointness and golden content
 * hashes of every mip level.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/hash.hh"
#include "memory/controller.hh"
#include "texture/texture.hh"

using namespace wc3d;
using namespace wc3d::tex;

TEST(Texture, MipChainGeometry)
{
    Texture2D t = Texture2D::checkerboard("chk", 64, 8, {255, 0, 0, 255},
                                          {0, 0, 255, 255},
                                          TexFormat::RGBA8);
    EXPECT_EQ(t.width(), 64);
    EXPECT_EQ(t.height(), 64);
    EXPECT_EQ(t.levels(), 7); // 64..1
    EXPECT_EQ(t.levelWidth(0), 64);
    EXPECT_EQ(t.levelWidth(1), 32);
    EXPECT_EQ(t.levelWidth(6), 1);
    EXPECT_EQ(t.levelBlocksX(0), 16);
    EXPECT_EQ(t.levelBlocksX(6), 1); // padded to one block
}

TEST(Texture, CheckerboardContent)
{
    Texture2D t = Texture2D::checkerboard("chk", 16, 4, {255, 0, 0, 255},
                                          {0, 0, 255, 255},
                                          TexFormat::RGBA8);
    EXPECT_EQ(t.texel(0, 0, 0).r, 255);
    EXPECT_EQ(t.texel(0, 4, 0).b, 255);
    EXPECT_EQ(t.texel(0, 4, 4).r, 255);
}

TEST(Texture, TexelClampsOutOfRange)
{
    Texture2D t = Texture2D::gradient("g", 8, {0, 0, 0, 255},
                                      {255, 255, 255, 255},
                                      TexFormat::RGBA8);
    EXPECT_EQ(t.texel(0, -5, 0).r, t.texel(0, 0, 0).r);
    EXPECT_EQ(t.texel(0, 100, 7).r, t.texel(0, 7, 7).r);
}

TEST(Texture, GradientMonotonic)
{
    Texture2D t = Texture2D::gradient("g", 32, {0, 0, 0, 255},
                                      {255, 255, 255, 255},
                                      TexFormat::RGBA8);
    EXPECT_LT(t.texel(0, 0, 0).r, t.texel(0, 0, 16).r);
    EXPECT_LT(t.texel(0, 0, 16).r, t.texel(0, 0, 31).r);
}

TEST(Texture, StorageBytesReflectCompression)
{
    Texture2D raw = Texture2D::noise("n", 64, 1, TexFormat::RGBA8);
    Texture2D dxt1 = Texture2D::noise("n", 64, 1, TexFormat::DXT1);
    Texture2D dxt5 = Texture2D::noise("n", 64, 1, TexFormat::DXT5);
    EXPECT_EQ(raw.decodedBytes(), raw.storageBytes());
    EXPECT_EQ(dxt1.storageBytes() * 8, dxt1.decodedBytes());
    EXPECT_EQ(dxt5.storageBytes() * 4, dxt5.decodedBytes());
}

TEST(Texture, DxtRoundTripPreservesSmoothContent)
{
    // The noise texture is smooth; DXT1 should keep it recognisable.
    Texture2D raw = Texture2D::noise("n", 64, 42, TexFormat::RGBA8);
    Texture2D dxt = Texture2D::noise("n", 64, 42, TexFormat::DXT1);
    double err = 0.0;
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            err += std::abs(raw.texel(0, x, y).r - dxt.texel(0, x, y).r);
        }
    }
    EXPECT_LT(err / (64.0 * 64.0), 12.0); // small mean error
}

TEST(Texture, MipLevelsAverageContent)
{
    Texture2D t = Texture2D::checkerboard("chk", 64, 1, {0, 0, 0, 255},
                                          {255, 255, 255, 255},
                                          TexFormat::RGBA8);
    // 1-texel checker averages to mid-grey one level down.
    Rgba8 top = t.texel(t.levels() - 1, 0, 0);
    EXPECT_NEAR(top.r, 127, 3);
}

TEST(Texture, MemoryBindingAddresses)
{
    memsys::MemoryController mc;
    Texture2D t = Texture2D::noise("n", 32, 3, TexFormat::DXT1);
    EXPECT_FALSE(t.memoryBound());
    t.bindMemory(mc);
    EXPECT_TRUE(t.memoryBound());

    // Virtual: 64 bytes per block; consecutive blocks are contiguous.
    std::uint64_t v00 = t.blockVirtualAddress(0, 0, 0);
    std::uint64_t v10 = t.blockVirtualAddress(0, 1, 0);
    EXPECT_EQ(v10 - v00, 64u);

    // Memory: DXT1 = 8 bytes per block.
    std::uint64_t m00 = t.blockMemAddress(0, 0, 0);
    std::uint64_t m10 = t.blockMemAddress(0, 1, 0);
    EXPECT_EQ(m10 - m00, 8u);

    // Levels do not overlap.
    std::uint64_t l0_last = t.blockVirtualAddress(
        0, t.levelBlocksX(0) - 1, t.levelBlocksY(0) - 1);
    std::uint64_t l1_first = t.blockVirtualAddress(1, 0, 0);
    EXPECT_GE(l1_first, l0_last + 64);
}

TEST(Texture, TwoTexturesDisjointAddresses)
{
    memsys::MemoryController mc;
    Texture2D a = Texture2D::noise("a", 32, 1, TexFormat::DXT1);
    Texture2D b = Texture2D::noise("b", 32, 2, TexFormat::DXT1);
    a.bindMemory(mc);
    b.bindMemory(mc);
    std::uint64_t a_last = a.blockMemAddress(
        a.levels() - 1, 0, 0);
    EXPECT_NE(a.blockMemAddress(0, 0, 0), b.blockMemAddress(0, 0, 0));
    EXPECT_LT(a_last, b.blockMemAddress(0, 0, 0) + b.storageBytes());
}

TEST(Texture, NoiseDeterministicBySeed)
{
    Texture2D a = Texture2D::noise("a", 32, 5, TexFormat::RGBA8);
    Texture2D b = Texture2D::noise("b", 32, 5, TexFormat::RGBA8);
    Texture2D c = Texture2D::noise("c", 32, 6, TexFormat::RGBA8);
    EXPECT_EQ(a.texel(0, 7, 9).r, b.texel(0, 7, 9).r);
    bool differs = false;
    for (int i = 0; i < 32 && !differs; ++i)
        differs = a.texel(0, i, i).r != c.texel(0, i, i).r;
    EXPECT_TRUE(differs);
}

namespace {

/** One procedural texture pinned by GoldenLevelHashes. */
struct GoldenTexture
{
    const char *kind; ///< checker, noise, noise-alpha or gradient
    TexFormat format;
    int size;
    std::uint64_t storageBytes;
    std::vector<std::uint64_t> levelHashes; ///< fnv1a64 of decoded texels
};

Texture2D
buildGolden(std::string_view kind, TexFormat format, int size)
{
    // colorB's alpha is below 128, so DXT1 checker and gradient blocks
    // that contain it take the punch-through (three-colour) mode.
    const Rgba8 a{200, 60, 30, 255};
    const Rgba8 b{20, 90, 240, 40};
    if (kind == "checker") {
        return Texture2D::checkerboard("g", size, std::max(1, size / 8),
                                       a, b, format);
    }
    if (kind == "noise")
        return Texture2D::noise("g", size, 1000 + size, format, false);
    if (kind == "noise-alpha")
        return Texture2D::noise("g", size, 2000 + size, format, true);
    return Texture2D::gradient("g", size, a, b, format);
}

std::uint64_t
levelHash(const Texture2D &t, int level)
{
    std::vector<Rgba8> texels;
    for (int y = 0; y < t.levelHeight(level); ++y)
        for (int x = 0; x < t.levelWidth(level); ++x)
            texels.push_back(t.texel(level, x, y));
    return fnv1a64(texels.data(), texels.size() * sizeof(Rgba8));
}

// Recorded from the build path before it was rewritten for speed; the
// texture content that the simulated statistics sample must not move.
const GoldenTexture kGoldenTextures[] = {
    {"checker", TexFormat::RGBA8, 1, 64,
     {0xcbd332021fe29bc6ull}},
    {"checker", TexFormat::RGBA8, 2, 128,
     {0x3ee3205c8e499649ull, 0x2e2e28bb5a7151edull}},
    {"checker", TexFormat::RGBA8, 4, 192,
     {0x45377fc62f69dfd5ull, 0x4a4d608420f7a2c5ull, 0x2e2e28bb5a7151edull}},
    {"checker", TexFormat::RGBA8, 64, 21952,
     {0x05b9106f4ee01325ull, 0x9497020aa0398f25ull, 0xff9453b91114aa25ull,
      0x60590813f08ed225ull, 0x9844e673f660c9a5ull, 0x4a4d608420f7a2c5ull,
      0x2e2e28bb5a7151edull}},
    {"checker", TexFormat::RGBA8, 512, 1398208,
     {0xcfe60d41f79e2325ull, 0xd2c21b8f5d012325ull, 0x3846c1eafa09e325ull,
      0x05b9106f4ee01325ull, 0x9497020aa0398f25ull, 0xff9453b91114aa25ull,
      0x60590813f08ed225ull, 0x9844e673f660c9a5ull, 0x4a4d608420f7a2c5ull,
      0x2e2e28bb5a7151edull}},
    {"checker", TexFormat::DXT1, 1, 8,
     {0xfb600df2d494c6bcull}},
    {"checker", TexFormat::DXT1, 2, 16,
     {0xce3548901e1c9539ull, 0xdbcdefd685926e96ull}},
    {"checker", TexFormat::DXT1, 4, 24,
     {0xd662b66d82bd8eb5ull, 0x2adac32535923c4dull, 0xdbcdefd685926e96ull}},
    {"checker", TexFormat::DXT1, 64, 2744,
     {0x5978413c91828325ull, 0x400dd1d0a6a23b25ull, 0xf0b4049586c90625ull,
      0x4501b459c3e440e5ull, 0xce97b307b9269c05ull, 0x2adac32535923c4dull,
      0xdbcdefd685926e96ull}},
    {"checker", TexFormat::DXT1, 512, 174776,
     {0x170dde0ec03a2325ull, 0xe0178df0c3282325ull, 0x3a2af9190fe3a325ull,
      0x5978413c91828325ull, 0x400dd1d0a6a23b25ull, 0xf0b4049586c90625ull,
      0x4501b459c3e440e5ull, 0xce97b307b9269c05ull, 0x2adac32535923c4dull,
      0xdbcdefd685926e96ull}},
    {"checker", TexFormat::DXT3, 1, 16,
     {0xfb600df2d494c6bcull}},
    {"checker", TexFormat::DXT3, 2, 32,
     {0x43124dd07bffe629ull, 0xdbce51d68593151cull}},
    {"checker", TexFormat::DXT3, 4, 48,
     {0x1da7794b3c4ab355ull, 0x01e54251ef143355ull, 0xdbce51d68593151cull}},
    {"checker", TexFormat::DXT3, 64, 5488,
     {0x5b9954bed898f325ull, 0x267d6574521d7f25ull, 0x8b2424e4d0c29825ull,
      0x2eea7be0938773e5ull, 0x116cb524d2cbdce5ull, 0x01e54251ef143355ull,
      0xdbce51d68593151cull}},
    {"checker", TexFormat::DXT3, 512, 349552,
     {0xd696dc67a5d62325ull, 0x4a3b1071e28f2325ull, 0x77f0a0bbd97d6325ull,
      0x5b9954bed898f325ull, 0x267d6574521d7f25ull, 0x8b2424e4d0c29825ull,
      0x2eea7be0938773e5ull, 0x116cb524d2cbdce5ull, 0x01e54251ef143355ull,
      0xdbce51d68593151cull}},
    {"checker", TexFormat::DXT5, 1, 16,
     {0xfb600df2d494c6bcull}},
    {"checker", TexFormat::DXT5, 2, 32,
     {0x4175d80df632a795ull, 0xdbce56d685931d9bull}},
    {"checker", TexFormat::DXT5, 4, 48,
     {0x30a1198b13e9c3b5ull, 0x78542da059bb7e5dull, 0xdbce56d685931d9bull}},
    {"checker", TexFormat::DXT5, 64, 5488,
     {0x1bc42e4e1f880325ull, 0x31b4e626fec3fb25ull, 0x7f72ba953f3e2925ull,
      0x15462e933e3dd125ull, 0x79c89174a544b185ull, 0x78542da059bb7e5dull,
      0xdbce56d685931d9bull}},
    {"checker", TexFormat::DXT5, 512, 349552,
     {0x3dec0a5a3d9a2325ull, 0x3b781a337a402325ull, 0xf82c8bab3c09a325ull,
      0x1bc42e4e1f880325ull, 0x31b4e626fec3fb25ull, 0x7f72ba953f3e2925ull,
      0x15462e933e3dd125ull, 0x79c89174a544b185ull, 0x78542da059bb7e5dull,
      0xdbce56d685931d9bull}},
    {"noise", TexFormat::RGBA8, 1, 64,
     {0xc5ef3380c77d7320ull}},
    {"noise", TexFormat::RGBA8, 2, 128,
     {0x7655681c7b3f5fc8ull, 0x106c4e252ad17dabull}},
    {"noise", TexFormat::RGBA8, 4, 192,
     {0x0b5496413c51836full, 0x0a4458ad33b750ffull, 0x53a7110e19a14aa3ull}},
    {"noise", TexFormat::RGBA8, 64, 21952,
     {0x30de6cb3c41fbf00ull, 0x6ad5f8708bf01d70ull, 0xa053af1ec85e4722ull,
      0xeed99c7ecc87b832ull, 0xff43a4c2cbd48982ull, 0x07a83c88f298836aull,
      0x2e438fb57965b678ull}},
    {"noise", TexFormat::RGBA8, 512, 1398208,
     {0xc62defbd5eb31cdbull, 0x275db71b5c9c3542ull, 0xd4ba78f028990d4eull,
      0xba3872e0abdafea0ull, 0xbeff58817dec8a59ull, 0xc663bae8f1cff6baull,
      0x6b2d498b4fa0f568ull, 0x7d8ba9bff3f5e9fbull, 0xf5495de5d40c793dull,
      0x601f5e9ff4d027beull}},
    {"noise", TexFormat::DXT1, 1, 8,
     {0xe97e4e53ca4adb33ull}},
    {"noise", TexFormat::DXT1, 2, 16,
     {0x2fb833b80770e626ull, 0xaaac8a0c6da92ff7ull}},
    {"noise", TexFormat::DXT1, 4, 24,
     {0x76657317f7d4288dull, 0x51a75750c606e500ull, 0xd858a019347479c6ull}},
    {"noise", TexFormat::DXT1, 64, 2744,
     {0xf75a939b20e9aedcull, 0xd06958e1e8e25109ull, 0x7edc306054b343baull,
      0xa0df225c48a4db42ull, 0x16f79be1f2df5241ull, 0x71e592e514ed2519ull,
      0x6391e186e13b0728ull}},
    {"noise", TexFormat::DXT1, 512, 174776,
     {0x92a244dd871f414full, 0x269d9181533f83a6ull, 0x8d97c2982db57deeull,
      0x6cc9898d7ba1fe8aull, 0x0f3765eeccf89ad6ull, 0xe6050a3ff65b0f96ull,
      0xfc1cfa18324c1048ull, 0xea82cd769787b3aaull, 0x54f218620281c503ull,
      0x62dbe186e0a1afceull}},
    {"noise", TexFormat::DXT3, 1, 16,
     {0xe97e4e53ca4adb33ull}},
    {"noise", TexFormat::DXT3, 2, 32,
     {0x2fb833b80770e626ull, 0xaaac8a0c6da92ff7ull}},
    {"noise", TexFormat::DXT3, 4, 48,
     {0x76657317f7d4288dull, 0x51a75750c606e500ull, 0xd858a019347479c6ull}},
    {"noise", TexFormat::DXT3, 64, 5488,
     {0xf75a939b20e9aedcull, 0xd06958e1e8e25109ull, 0x7edc306054b343baull,
      0xa0df225c48a4db42ull, 0x16f79be1f2df5241ull, 0x71e592e514ed2519ull,
      0x6391e186e13b0728ull}},
    {"noise", TexFormat::DXT3, 512, 349552,
     {0x92a244dd871f414full, 0x269d9181533f83a6ull, 0x8d97c2982db57deeull,
      0x6cc9898d7ba1fe8aull, 0x0f3765eeccf89ad6ull, 0xe6050a3ff65b0f96ull,
      0xfc1cfa18324c1048ull, 0xea82cd769787b3aaull, 0x54f218620281c503ull,
      0x62dbe186e0a1afceull}},
    {"noise", TexFormat::DXT5, 1, 16,
     {0xe97e4e53ca4adb33ull}},
    {"noise", TexFormat::DXT5, 2, 32,
     {0x2fb833b80770e626ull, 0xaaac8a0c6da92ff7ull}},
    {"noise", TexFormat::DXT5, 4, 48,
     {0x76657317f7d4288dull, 0x51a75750c606e500ull, 0xd858a019347479c6ull}},
    {"noise", TexFormat::DXT5, 64, 5488,
     {0xf75a939b20e9aedcull, 0xd06958e1e8e25109ull, 0x7edc306054b343baull,
      0xa0df225c48a4db42ull, 0x16f79be1f2df5241ull, 0x71e592e514ed2519ull,
      0x6391e186e13b0728ull}},
    {"noise", TexFormat::DXT5, 512, 349552,
     {0x92a244dd871f414full, 0x269d9181533f83a6ull, 0x8d97c2982db57deeull,
      0x6cc9898d7ba1fe8aull, 0x0f3765eeccf89ad6ull, 0xe6050a3ff65b0f96ull,
      0xfc1cfa18324c1048ull, 0xea82cd769787b3aaull, 0x54f218620281c503ull,
      0x62dbe186e0a1afceull}},
    {"noise-alpha", TexFormat::RGBA8, 1, 64,
     {0xa493017dfc3bb767ull}},
    {"noise-alpha", TexFormat::RGBA8, 2, 128,
     {0xdd1b49e13a9b9536ull, 0xc02ce9f36482d56dull}},
    {"noise-alpha", TexFormat::RGBA8, 4, 192,
     {0xd61a981dd7b3f8e7ull, 0xeadc87f8c85e12fbull, 0x2e648db8ed572258ull}},
    {"noise-alpha", TexFormat::RGBA8, 64, 21952,
     {0x212ecece29e071c7ull, 0xd51f1db51b91c2e5ull, 0x88891c7beb5c9398ull,
      0x4aa525c216a5d726ull, 0x721d7bda2efcd693ull, 0x7330115b33d357d9ull,
      0x2ee8afce8e0042c9ull}},
    {"noise-alpha", TexFormat::RGBA8, 512, 1398208,
     {0x05f98b55195847ffull, 0xd7138eecb073fdc9ull, 0xddfca86f0445ea3eull,
      0xd652e01cfd4a6c7aull, 0xdb98e86709bed417ull, 0x7eb7b1b61241737dull,
      0xcbf608d18ef36023ull, 0xf36da393e0a4d278ull, 0x42c1a07944ee50f2ull,
      0x15934a370176978eull}},
    {"noise-alpha", TexFormat::DXT1, 1, 8,
     {0xc09b6ca7a8003054ull}},
    {"noise-alpha", TexFormat::DXT1, 2, 16,
     {0xf1f886064d27f509ull, 0x4d25767f9dce13f5ull}},
    {"noise-alpha", TexFormat::DXT1, 4, 24,
     {0xdff6f304d700d754ull, 0xda9a8ee5b2adb148ull, 0x4d25767f9dce13f5ull}},
    {"noise-alpha", TexFormat::DXT1, 64, 2744,
     {0x1af2388843617366ull, 0xd776a06f691e32daull, 0x9e5e24d20bf7814aull,
      0x7cbfc8c21657d4a4ull, 0x3d72571a974b04d8ull, 0x88201fb960ff6465ull,
      0x4d25767f9dce13f5ull}},
    {"noise-alpha", TexFormat::DXT1, 512, 174776,
     {0x2db45d1763ff1f52ull, 0x95c438990bf808d6ull, 0x5ea74b91d18ae0d1ull,
      0xeb96a45cba3167b5ull, 0x71fab18018497d5full, 0x755962d984ea3c9bull,
      0x0fae01af483ba450ull, 0xfb5a6193f62a74d0ull, 0xf0a1f2ae61725bb5ull,
      0x87a65d585373a8c1ull}},
    {"noise-alpha", TexFormat::DXT3, 1, 16,
     {0xc09b28a7a7ffbcc8ull}},
    {"noise-alpha", TexFormat::DXT3, 2, 32,
     {0x14edd53aab995a94ull, 0x2eefbdce8e067941ull}},
    {"noise-alpha", TexFormat::DXT3, 4, 48,
     {0xd42dcf5a937435e0ull, 0x1c213172e7d0dc85ull, 0x63925986e13bd310ull}},
    {"noise-alpha", TexFormat::DXT3, 64, 5488,
     {0xfbd63385ad88a79full, 0x4f818a44ed1ea3d3ull, 0xec167cf146facdb2ull,
      0x0d8456dbd33c7f53ull, 0x2a576cff47978b59ull, 0x4e4bbac206cf9895ull,
      0x2ee8adce8e003f63ull}},
    {"noise-alpha", TexFormat::DXT3, 512, 349552,
     {0xf9d980617c2c01d5ull, 0x595c6c54cfcd16c3ull, 0x481eface075e992aull,
      0x886c7164449d01d6ull, 0x25ead426fee2b327ull, 0x3ad7d06750a3267dull,
      0xefe9e0553112d14bull, 0x131cec811af971d1ull, 0xb47170e02e5de11dull,
      0x87a66e585373c5a4ull}},
    {"noise-alpha", TexFormat::DXT5, 1, 16,
     {0xc09b2ba7a7ffc1e1ull}},
    {"noise-alpha", TexFormat::DXT5, 2, 32,
     {0x0b1cadb309e47a19ull, 0x2eefbace8e067428ull}},
    {"noise-alpha", TexFormat::DXT5, 4, 48,
     {0x1ed91793e320ba6bull, 0x59518245e1c8f931ull, 0x63926286e13be25bull}},
    {"noise-alpha", TexFormat::DXT5, 64, 5488,
     {0x2699354e389194e5ull, 0x5f8843468fcca6a1ull, 0xf3b327ad76921f1bull,
      0xf97e935dce1dd552ull, 0x2ea93e28a6257a2bull, 0xcb1aa01eb710ff4eull,
      0x2ee8afce8e0042c9ull}},
    {"noise-alpha", TexFormat::DXT5, 512, 349552,
     {0xca59b1350c128b48ull, 0x2c05aaf037c62501ull, 0xe374229b16df619full,
      0x423f145ad50e8295ull, 0xb39507305b9ba8adull, 0x538a10adbb94232dull,
      0xdf7083165fd713c1ull, 0xd221f43a71df29c7ull, 0x2b4748ff9b994130ull,
      0x87a668585373bb72ull}},
    {"gradient", TexFormat::RGBA8, 1, 64,
     {0xcbd332021fe29bc6ull}},
    {"gradient", TexFormat::RGBA8, 2, 128,
     {0xb4e142ed900411d1ull, 0x2e2e28bb5a7151edull}},
    {"gradient", TexFormat::RGBA8, 4, 192,
     {0xd58e041c202a1555ull, 0x4ed8ecba2a480ff9ull, 0x2e2e28bb5a7151edull}},
    {"gradient", TexFormat::RGBA8, 64, 21952,
     {0xefaf6851d548d0a5ull, 0xd38a977195ac8be5ull, 0x350a7c0240c46205ull,
      0x6cd80c64a1119ca5ull, 0xc960195eb9ffb97dull, 0xd5c4c66440f133d1ull,
      0x309e70b5143cd9c8ull}},
    {"gradient", TexFormat::RGBA8, 512, 1398208,
     {0x3f065d5c86ec3725ull, 0x339f588e21cc4125ull, 0xebb9e6ae827d0825ull,
      0xc07f8b5589e1f825ull, 0x7fd34996cbd5c8e5ull, 0xd32a5b60e94563c5ull,
      0x702fe8747733f175ull, 0x66f25a0b360a576dull, 0x8eb5de82fe99f3a5ull,
      0xbb69130e5458803full}},
    {"gradient", TexFormat::DXT1, 1, 8,
     {0xfb600df2d494c6bcull}},
    {"gradient", TexFormat::DXT1, 2, 16,
     {0xa2c475aea39bdb99ull, 0xdbcdefd685926e96ull}},
    {"gradient", TexFormat::DXT1, 4, 24,
     {0x4c21aee0a94c11f5ull, 0x06a413fc9cab9499ull, 0xdbcdefd685926e96ull}},
    {"gradient", TexFormat::DXT1, 64, 2744,
     {0xc1108654cd319aa5ull, 0xd9ade6c3b2046b65ull, 0xbeacde42607a8bc5ull,
      0x57f2121f30c6c205ull, 0xe4eee5dc21cabc3dull, 0x69cd3fc3e57019c5ull,
      0xfe6e93d6992f363cull}},
    {"gradient", TexFormat::DXT1, 512, 174776,
     {0xda5631813ac7ff25ull, 0xf37fb25822e1f525ull, 0xc06f11dbaca85125ull,
      0x8005a5f2f3d1de25ull, 0x4c24a677f1c8b2e5ull, 0xb17a5dd9d7b7d7a5ull,
      0x695806054076be75ull, 0xe4eee5dc21cabc3dull, 0x69cd3fc3e57019c5ull,
      0x853dd41996493894ull}},
    {"gradient", TexFormat::DXT3, 1, 16,
     {0xfb600df2d494c6bcull}},
    {"gradient", TexFormat::DXT3, 2, 32,
     {0x097ee8a2ce0c0329ull, 0xdbce51d68593151cull}},
    {"gradient", TexFormat::DXT3, 4, 48,
     {0x2eaa2c9e14e31a6dull, 0x7d5f188f9dfe309dull, 0xdbce51d68593151cull}},
    {"gradient", TexFormat::DXT3, 64, 5488,
     {0x6766a34e1e57aca5ull, 0x39887bcb01bf2f65ull, 0x82f047091f92e805ull,
      0x92d73c56de4249f5ull, 0xf0a4034c146d7ec5ull, 0x4dddc560aa76d3c9ull,
      0xfe6e71d6992efc76ull}},
    {"gradient", TexFormat::DXT3, 512, 349552,
     {0x985ef529b5a1ab25ull, 0x07342df7aaec4525ull, 0xacdee636a55e7925ull,
      0x4a2884ac7c6639a5ull, 0xc102b3a1bb30ea25ull, 0x60ac4285f9e74c05ull,
      0xed3f0707e8640a55ull, 0xf0a4034c146d7ec5ull, 0x201b77a28da6809dull,
      0x853e32199649d84eull}},
    {"gradient", TexFormat::DXT5, 1, 16,
     {0xfb600df2d494c6bcull}},
    {"gradient", TexFormat::DXT5, 2, 32,
     {0xfa446f456eead07dull, 0xdbce56d685931d9bull}},
    {"gradient", TexFormat::DXT5, 4, 48,
     {0x029c6362c6c464a5ull, 0x96bc6b9ec2713041ull, 0xdbce56d685931d9bull}},
    {"gradient", TexFormat::DXT5, 64, 5488,
     {0x521aab84b7792ba5ull, 0x807ed33603113665ull, 0xe8d18e9e621874a5ull,
      0x24f6d705e94b4bb5ull, 0xae5a40086cd195f5ull, 0xb9a55a01edeb39b9ull,
      0xfe6e7dd6992f10daull}},
    {"gradient", TexFormat::DXT5, 512, 349552,
     {0x1458d5a0f9003325ull, 0xef6156390b79a525ull, 0xcb640296e2148425ull,
      0x9dafcad86b5024a5ull, 0xa6287dd4ddde08a5ull, 0x690a44ca627b3c85ull,
      0xb7ed41bcd511ad65ull, 0x4426bec065f6dee5ull, 0xa2ef65cf60ba19cdull,
      0x853e2e199649d182ull}},
};

} // namespace

TEST(Texture, GoldenLevelHashes)
{
    for (const GoldenTexture &g : kGoldenTextures) {
        SCOPED_TRACE(testing::Message()
                     << g.kind << " " << formatName(g.format) << " "
                     << g.size);
        Texture2D t = buildGolden(g.kind, g.format, g.size);
        EXPECT_EQ(t.storageBytes(), g.storageBytes);
        ASSERT_EQ(t.levels(), static_cast<int>(g.levelHashes.size()));
        for (int l = 0; l < t.levels(); ++l) {
            EXPECT_EQ(levelHash(t, l),
                      g.levelHashes[static_cast<std::size_t>(l)])
                << "level " << l;
        }
    }
}
