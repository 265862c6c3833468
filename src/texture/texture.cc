#include "texture/texture.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "texture/dxt.hh"

namespace wc3d::tex {

namespace {

bool
isPow2(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

/** Box-filter an image down to half size (min 1x1). */
Image
downsample(const Image &src)
{
    const int sw = src.width(), sh = src.height();
    const int w = std::max(1, sw / 2);
    const int h = std::max(1, sh / 2);
    Image dst(w, h);
    const Rgba8 *in = src.pixels().data();
    Rgba8 *out = dst.pixels().data();
    auto avg = [](int a, int b, int c, int d) {
        return static_cast<std::uint8_t>((a + b + c + d + 2) / 4);
    };
    for (int y = 0; y < h; ++y) {
        const Rgba8 *row0 = in + static_cast<std::size_t>(
                                     std::min(2 * y, sh - 1)) * sw;
        const Rgba8 *row1 = in + static_cast<std::size_t>(
                                     std::min(2 * y + 1, sh - 1)) * sw;
        Rgba8 *dst_row = out + static_cast<std::size_t>(y) * w;
        for (int x = 0; x < w; ++x) {
            int x0 = std::min(2 * x, sw - 1);
            int x1 = std::min(2 * x + 1, sw - 1);
            Rgba8 p00 = row0[x0], p10 = row0[x1];
            Rgba8 p01 = row1[x0], p11 = row1[x1];
            dst_row[x] = {avg(p00.r, p10.r, p01.r, p11.r),
                          avg(p00.g, p10.g, p01.g, p11.g),
                          avg(p00.b, p10.b, p01.b, p11.b),
                          avg(p00.a, p10.a, p01.a, p11.a)};
        }
    }
    return dst;
}

/**
 * Encode-then-decode an image through the DXT codec (lossy round trip).
 * Blocks past the right or bottom edge are padded by clamping.
 */
std::vector<Rgba8>
roundTripCompress(const Image &img, TexFormat format)
{
    const int w = img.width(), h = img.height();
    std::vector<Rgba8> out(static_cast<std::size_t>(w) * h);
    const Rgba8 *in = img.pixels().data();
    std::uint8_t encoded[16];
    Rgba8 block[16];
    Rgba8 decoded[16];
    for (int by = 0; by * kBlockDim < h; ++by) {
        const Rgba8 *rows[kBlockDim];
        for (int ty = 0; ty < kBlockDim; ++ty) {
            int y = std::min(by * kBlockDim + ty, h - 1);
            rows[ty] = in + static_cast<std::size_t>(y) * w;
        }
        const int rows_left = std::min(kBlockDim, h - by * kBlockDim);
        for (int bx = 0; bx * kBlockDim < w; ++bx) {
            const int x0 = bx * kBlockDim;
            for (int ty = 0; ty < kBlockDim; ++ty) {
                for (int tx = 0; tx < kBlockDim; ++tx) {
                    block[ty * kBlockDim + tx] =
                        rows[ty][std::min(x0 + tx, w - 1)];
                }
            }
            encodeBlock(block, format, encoded, decoded);
            const int cols_left = std::min(kBlockDim, w - x0);
            for (int ty = 0; ty < rows_left; ++ty) {
                Rgba8 *dst = out.data() +
                             static_cast<std::size_t>(by * kBlockDim + ty) *
                                 w +
                             x0;
                for (int tx = 0; tx < cols_left; ++tx)
                    dst[tx] = decoded[ty * kBlockDim + tx];
            }
        }
    }
    return out;
}

} // namespace

Texture2D::Texture2D(std::string name, Image base, TexFormat format)
    : _name(std::move(name)), _format(format), _width(base.width()),
      _height(base.height())
{
    WC3D_ASSERT(isPow2(_width) && isPow2(_height));
    buildLevels(std::move(base));
}

void
Texture2D::buildLevels(Image current)
{
    std::uint64_t virt_off = 0;
    std::uint64_t mem_off = 0;
    for (;;) {
        Level lvl;
        lvl.width = current.width();
        lvl.height = current.height();
        lvl.blocksX = (lvl.width + kBlockDim - 1) / kBlockDim;
        lvl.blocksY = (lvl.height + kBlockDim - 1) / kBlockDim;
        bool last = lvl.width == 1 && lvl.height == 1;
        if (isCompressed(_format))
            lvl.decoded = roundTripCompress(current, _format);
        Image next = last ? Image() : downsample(current);
        if (!isCompressed(_format))
            lvl.decoded = std::move(current.pixels());
        lvl.virtOffset = virt_off;
        lvl.memOffset = mem_off;
        std::uint64_t blocks =
            static_cast<std::uint64_t>(lvl.blocksX) * lvl.blocksY;
        virt_off += blocks * kDecodedBlockBytes;
        mem_off += blocks * blockBytes(_format);
        _decodedBytes += blocks * kDecodedBlockBytes;
        _storageBytes += blocks * blockBytes(_format);
        _levels.push_back(std::move(lvl));
        if (last)
            break;
        current = std::move(next);
    }
}

int
Texture2D::levelWidth(int l) const
{
    return level(l).width;
}

int
Texture2D::levelHeight(int l) const
{
    return level(l).height;
}

int
Texture2D::levelBlocksX(int l) const
{
    return level(l).blocksX;
}

int
Texture2D::levelBlocksY(int l) const
{
    return level(l).blocksY;
}

Rgba8
Texture2D::texel(int l, int x, int y) const
{
    const Level &lvl = level(l);
    x = std::clamp(x, 0, lvl.width - 1);
    y = std::clamp(y, 0, lvl.height - 1);
    return lvl.decoded[static_cast<std::size_t>(y) * lvl.width + x];
}

void
Texture2D::bindMemory(memsys::MemoryController &mc)
{
    WC3D_ASSERT(!_memBound);
    _virtBase = mc.allocate(_decodedBytes, 256);
    _memBase = mc.allocate(_storageBytes, 256);
    _memBound = true;
}

Texture2D
Texture2D::checkerboard(std::string name, int size, int cell, Rgba8 a,
                        Rgba8 b, TexFormat format)
{
    WC3D_ASSERT(cell > 0);
    Image img(size, size);
    Rgba8 *row = img.pixels().data();
    for (int y = 0; y < size; ++y, row += size) {
        const int cy = y / cell;
        for (int x = 0; x < size; ++x)
            row[x] = (((x / cell) + cy) & 1) ? b : a;
    }
    return Texture2D(std::move(name), std::move(img), format);
}

Texture2D
Texture2D::noise(std::string name, int size, std::uint64_t seed,
                 TexFormat format, bool alpha_noise)
{
    Rng rng(seed);
    // Smooth value noise: random lattice at 1/8 resolution, bilinearly
    // upsampled, so DXT compression behaves like it does on real art
    // (smooth regions compress well, detail regions less so).
    const int lattice = std::max(2, size / 8);
    const int mask = lattice - 1;
    std::vector<float> values(
        static_cast<std::size_t>(lattice) * lattice);
    for (auto &v : values)
        v = rng.nextFloat();

    // Per-column lattice cell and weight. Each texel is
    //   lerp(lerp(v(ix, iy), v(ix+1, iy), tx),
    //        lerp(v(ix, iy+1), v(ix+1, iy+1), tx), ty)
    // and the inner lerps depend only on (x, iy), so they are computed
    // once per lattice row and shared by every image row in it.
    std::vector<int> col0(static_cast<std::size_t>(size));
    std::vector<int> col1(static_cast<std::size_t>(size));
    std::vector<float> col_t(static_cast<std::size_t>(size));
    for (int x = 0; x < size; ++x) {
        float fx = static_cast<float>(x) * lattice / size;
        int ix = static_cast<int>(fx);
        col0[static_cast<std::size_t>(x)] = ix & mask;
        col1[static_cast<std::size_t>(x)] = (ix + 1) & mask;
        col_t[static_cast<std::size_t>(x)] = fx - ix;
    }
    auto lerpRow = [&](int iy, std::vector<float> &dst) {
        const float *r =
            values.data() + static_cast<std::size_t>(iy & mask) * lattice;
        for (std::size_t x = 0; x < dst.size(); ++x)
            dst[x] = std::lerp(r[col0[x]], r[col1[x]], col_t[x]);
    };
    std::vector<float> top(static_cast<std::size_t>(size));
    std::vector<float> bottom(static_cast<std::size_t>(size));
    int row_iy = -1;

    Image img(size, size);
    Rgba8 *row = img.pixels().data();
    for (int y = 0; y < size; ++y, row += size) {
        float fy = static_cast<float>(y) * lattice / size;
        int iy = static_cast<int>(fy);
        float ty = fy - iy;
        if (iy != row_iy) {
            lerpRow(iy, top);
            lerpRow(iy + 1, bottom);
            row_iy = iy;
        }
        for (int x = 0; x < size; ++x) {
            float v = std::lerp(top[static_cast<std::size_t>(x)],
                                bottom[static_cast<std::size_t>(x)], ty);
            auto g = floatToUnorm8(v);
            // Alpha carries the noise too so alpha-test (KIL) materials
            // and alpha blending see realistic variation.
            row[x] = {g, static_cast<std::uint8_t>(g / 2 + 64),
                      static_cast<std::uint8_t>(255 - g),
                      alpha_noise ? static_cast<std::uint8_t>(255 - g)
                                  : static_cast<std::uint8_t>(255)};
        }
    }
    return Texture2D(std::move(name), std::move(img), format);
}

Texture2D
Texture2D::gradient(std::string name, int size, Rgba8 from, Rgba8 to,
                    TexFormat format)
{
    Image img(size, size);
    Rgba8 *row = img.pixels().data();
    for (int y = 0; y < size; ++y, row += size) {
        float t = size > 1 ? static_cast<float>(y) / (size - 1) : 0.0f;
        auto mix = [t](std::uint8_t a, std::uint8_t b) {
            return static_cast<std::uint8_t>(a + (b - a) * t);
        };
        std::fill(row, row + size,
                  Rgba8{mix(from.r, to.r), mix(from.g, to.g),
                        mix(from.b, to.b), mix(from.a, to.a)});
    }
    return Texture2D(std::move(name), std::move(img), format);
}

} // namespace wc3d::tex
