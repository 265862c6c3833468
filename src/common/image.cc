#include "common/image.hh"

#include <cmath>
#include <cstdio>

#include "common/hash.hh"
#include "common/log.hh"

namespace wc3d {

std::uint8_t
floatToUnorm8(float v)
{
    if (v <= 0.0f)
        return 0;
    if (v >= 1.0f)
        return 255;
    return static_cast<std::uint8_t>(v * 255.0f + 0.5f);
}

float
unorm8ToFloat(std::uint8_t v)
{
    return static_cast<float>(v) * (1.0f / 255.0f);
}

Image::Image(int width, int height, Rgba8 fill)
    : _width(width), _height(height),
      _pixels(static_cast<std::size_t>(width) * height, fill)
{
    WC3D_ASSERT(width >= 0 && height >= 0);
}

Rgba8
Image::at(int x, int y) const
{
    WC3D_ASSERT(x >= 0 && x < _width && y >= 0 && y < _height);
    return _pixels[static_cast<std::size_t>(y) * _width + x];
}

void
Image::set(int x, int y, Rgba8 c)
{
    WC3D_ASSERT(x >= 0 && x < _width && y >= 0 && y < _height);
    _pixels[static_cast<std::size_t>(y) * _width + x] = c;
}

bool
Image::writePpm(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%d %d\n255\n", _width, _height);
    for (const Rgba8 &p : _pixels) {
        std::uint8_t rgb[3] = {p.r, p.g, p.b};
        std::fwrite(rgb, 1, 3, f);
    }
    std::fclose(f);
    return true;
}

std::uint64_t
Image::contentHash() const
{
    static_assert(sizeof(Rgba8) == 4, "pixels hash as packed r,g,b,a");
    return fnv1a64(_pixels.data(), _pixels.size() * sizeof(Rgba8));
}

} // namespace wc3d
