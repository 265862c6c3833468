#include "api/state.hh"

#include "common/log.hh"
#include "common/strutil.hh"

namespace wc3d::api {

const char *
graphicsApiName(GraphicsApi a)
{
    return a == GraphicsApi::OpenGL ? "OpenGL" : "Direct3D";
}

int
indexTypeBytes(IndexType t)
{
    return t == IndexType::U16 ? 2 : 4;
}

bool
TextureSpec::validSize(int size)
{
    return size >= 1 && size <= kMaxSize && (size & (size - 1)) == 0;
}

std::string
TextureSpec::invalidReason() const
{
    // TextureSpec::format (the storage format) hides wc3d::format.
    if (!validSize(size)) {
        return wc3d::format(
            "texture size %d is not a power of two in [1, %d]", size,
            kMaxSize);
    }
    if (cell < 1 || cell > size) {
        return wc3d::format("texture cell %d outside [1, size=%d]", cell,
                            size);
    }
    return {};
}

tex::Texture2D
TextureSpec::build(const std::string &name) const
{
    switch (kind) {
      case Kind::Checker:
        return tex::Texture2D::checkerboard(name, size, cell, colorA,
                                            colorB, format);
      case Kind::Noise:
        return tex::Texture2D::noise(name, size, seed, format,
                                     alphaNoise);
      case Kind::Gradient:
        return tex::Texture2D::gradient(name, size, colorA, colorB,
                                        format);
    }
    panic("unknown texture spec kind");
}

} // namespace wc3d::api
