#include "texture/dxt.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"

namespace wc3d::tex {

std::uint16_t
packRgb565(Rgba8 c)
{
    return static_cast<std::uint16_t>(((c.r >> 3) << 11) |
                                      ((c.g >> 2) << 5) |
                                      (c.b >> 3));
}

Rgba8
unpackRgb565(std::uint16_t v)
{
    std::uint8_t r5 = (v >> 11) & 0x1f;
    std::uint8_t g6 = (v >> 5) & 0x3f;
    std::uint8_t b5 = v & 0x1f;
    // Standard bit replication expansion.
    return {static_cast<std::uint8_t>((r5 << 3) | (r5 >> 2)),
            static_cast<std::uint8_t>((g6 << 2) | (g6 >> 4)),
            static_cast<std::uint8_t>((b5 << 3) | (b5 >> 2)), 255};
}

namespace {

int
colorDistSq(Rgba8 a, Rgba8 b)
{
    int dr = a.r - b.r, dg = a.g - b.g, db = a.b - b.b;
    return dr * dr + dg * dg + db * db;
}

/** The four-entry colour palette the decoder derives from c0, c1. */
void
buildColorPalette(std::uint16_t c0, std::uint16_t c1, bool four_color,
                  Rgba8 palette[4])
{
    const Rgba8 p0 = unpackRgb565(c0);
    const Rgba8 p1 = unpackRgb565(c1);
    // (w0 * a + w1 * b) / (w0 + w1) per colour channel, alpha opaque.
    auto mix = [&p0, &p1](int w0, int w1) {
        auto ch = [w0, w1](int a, int b) {
            return static_cast<std::uint8_t>((w0 * a + w1 * b) /
                                             (w0 + w1));
        };
        return Rgba8{ch(p0.r, p1.r), ch(p0.g, p1.g), ch(p0.b, p1.b), 255};
    };
    palette[0] = p0;
    palette[1] = p1;
    if (four_color) {
        palette[2] = mix(2, 1);
        palette[3] = mix(1, 2);
    } else {
        palette[2] = mix(1, 1);
        palette[3] = {0, 0, 0, 0};
    }
}

/**
 * Encode the colour part (8 bytes) shared by all DXT formats.
 * @param allow_punch_through DXT1 1-bit-alpha mode when any texel a < 128
 * @param decoded when non-null, receives the texels decodeColorBlock()
 *        returns for @p out, read from the encoder's own palette: the
 *        endpoints below are ordered so the decoder picks the same mode
 */
void
encodeColorBlock(const Rgba8 texels[16], bool allow_punch_through,
                 std::uint8_t *out, Rgba8 *decoded)
{
    // Endpoints: min/max along the luminance axis (simple but effective).
    // Ties keep the first texel.
    int min_i = 0, max_i = 0;
    int min_lum = 2 * texels[0].r + 5 * texels[0].g + texels[0].b;
    int max_lum = min_lum;
    for (int i = 1; i < 16; ++i) {
        int lum = 2 * texels[i].r + 5 * texels[i].g + texels[i].b;
        if (lum < min_lum) {
            min_lum = lum;
            min_i = i;
        }
        if (lum > max_lum) {
            max_lum = lum;
            max_i = i;
        }
    }
    std::uint16_t c0 = packRgb565(texels[max_i]);
    std::uint16_t c1 = packRgb565(texels[min_i]);

    bool punch = false;
    if (allow_punch_through) {
        for (int i = 0; i < 16; ++i)
            punch |= texels[i].a < 128;
    }

    // Four-colour mode needs c0 > c1; three-colour (punch-through) needs
    // c0 <= c1.
    if (!punch && c0 < c1)
        std::swap(c0, c1);
    if (punch && c0 > c1)
        std::swap(c0, c1);
    if (!punch && c0 == c1) {
        // Degenerate: force distinct so mode stays four-colour; palette
        // entries all map to (almost) the same colour anyway.
        if (c0 == 0xffff) {
            c1 = static_cast<std::uint16_t>(c1 - 1);
        } else {
            c0 = static_cast<std::uint16_t>(c0 + 1);
        }
    }

    Rgba8 palette[4];
    buildColorPalette(c0, c1, !punch, palette);

    std::uint32_t indices = 0;
    const int limit = punch ? 3 : 4;
    for (int i = 0; i < 16; ++i) {
        const Rgba8 t = texels[i];
        int best = 0;
        if (punch && t.a < 128) {
            best = 3;
        } else {
            int best_d = colorDistSq(t, palette[0]);
            for (int pidx = 1; pidx < limit; ++pidx) {
                int d = colorDistSq(t, palette[pidx]);
                if (d < best_d) {
                    best_d = d;
                    best = pidx;
                }
            }
        }
        indices |= static_cast<std::uint32_t>(best) << (2 * i);
        if (decoded)
            decoded[i] = palette[best];
    }

    out[0] = static_cast<std::uint8_t>(c0 & 0xff);
    out[1] = static_cast<std::uint8_t>(c0 >> 8);
    out[2] = static_cast<std::uint8_t>(c1 & 0xff);
    out[3] = static_cast<std::uint8_t>(c1 >> 8);
    std::memcpy(out + 4, &indices, 4);
}

void
decodeColorBlock(const std::uint8_t *data, bool dxt1_mode, Rgba8 texels[16])
{
    std::uint16_t c0 = static_cast<std::uint16_t>(data[0] | (data[1] << 8));
    std::uint16_t c1 = static_cast<std::uint16_t>(data[2] | (data[3] << 8));
    std::uint32_t indices;
    std::memcpy(&indices, data + 4, 4);

    Rgba8 palette[4];
    buildColorPalette(c0, c1, !dxt1_mode || c0 > c1, palette);

    for (int i = 0; i < 16; ++i)
        texels[i] = palette[(indices >> (2 * i)) & 0x3];
}

/** The eight-entry DXT5 alpha palette the decoder derives from a0, a1. */
void
buildAlphaPalette(std::uint8_t a0, std::uint8_t a1, std::uint8_t palette[8])
{
    palette[0] = a0;
    palette[1] = a1;
    if (a0 > a1) {
        for (int i = 1; i < 7; ++i) {
            palette[i + 1] = static_cast<std::uint8_t>(
                ((7 - i) * a0 + i * a1) / 7);
        }
    } else {
        for (int i = 1; i < 5; ++i) {
            palette[i + 1] = static_cast<std::uint8_t>(
                ((5 - i) * a0 + i * a1) / 5);
        }
        palette[6] = 0;
        palette[7] = 255;
    }
}

/**
 * DXT5 interpolated-alpha block (8 bytes). @p alphas receives the
 * values decodeAlphaBlockDxt5() returns for @p out (a0 > a1 always, so
 * both sides use the eight-entry palette).
 */
void
encodeAlphaBlockDxt5(const Rgba8 texels[16], std::uint8_t *out,
                     std::uint8_t alphas[16])
{
    std::uint8_t a0 = texels[0].a, a1 = texels[0].a;
    for (int i = 1; i < 16; ++i) {
        a0 = std::max(a0, texels[i].a);
        a1 = std::min(a1, texels[i].a);
    }
    if (a0 == a1) {
        // Avoid the 6-entry special mode; widen trivially.
        if (a0 < 255) {
            ++a0;
        } else {
            --a1;
        }
    }
    std::uint8_t palette[8];
    buildAlphaPalette(a0, a1, palette);
    std::uint64_t bits = 0;
    for (int i = 0; i < 16; ++i) {
        int best = 0;
        int best_d = std::abs(static_cast<int>(texels[i].a) - palette[0]);
        for (int p = 1; p < 8; ++p) {
            int d = std::abs(static_cast<int>(texels[i].a) - palette[p]);
            if (d < best_d) {
                best_d = d;
                best = p;
            }
        }
        bits |= static_cast<std::uint64_t>(best) << (3 * i);
        alphas[i] = palette[best];
    }
    out[0] = a0;
    out[1] = a1;
    for (int b = 0; b < 6; ++b)
        out[2 + b] = static_cast<std::uint8_t>((bits >> (8 * b)) & 0xff);
}

void
decodeAlphaBlockDxt5(const std::uint8_t *data, std::uint8_t alphas[16])
{
    std::uint8_t palette[8];
    buildAlphaPalette(data[0], data[1], palette);
    std::uint64_t bits = 0;
    for (int b = 0; b < 6; ++b)
        bits |= static_cast<std::uint64_t>(data[2 + b]) << (8 * b);
    for (int i = 0; i < 16; ++i)
        alphas[i] = palette[(bits >> (3 * i)) & 0x7];
}

} // namespace

void
encodeBlock(const Rgba8 texels[16], TexFormat format, std::uint8_t *out,
            Rgba8 decoded[16])
{
    switch (format) {
      case TexFormat::DXT1:
        encodeColorBlock(texels, true, out, decoded);
        break;
      case TexFormat::DXT3: {
        // Explicit 4-bit alpha, then the colour block.
        for (int i = 0; i < 8; ++i) {
            std::uint8_t lo = static_cast<std::uint8_t>(
                texels[2 * i].a >> 4);
            std::uint8_t hi = static_cast<std::uint8_t>(
                texels[2 * i + 1].a >> 4);
            out[i] = static_cast<std::uint8_t>(lo | (hi << 4));
        }
        encodeColorBlock(texels, false, out + 8, decoded);
        if (decoded) {
            for (int i = 0; i < 16; ++i)
                decoded[i].a = static_cast<std::uint8_t>(
                    (texels[i].a >> 4) * 17);
        }
        break;
      }
      case TexFormat::DXT5: {
        std::uint8_t alphas[16];
        encodeAlphaBlockDxt5(texels, out, alphas);
        encodeColorBlock(texels, false, out + 8, decoded);
        if (decoded) {
            for (int i = 0; i < 16; ++i)
                decoded[i].a = alphas[i];
        }
        break;
      }
      default:
        panic("encodeBlock: not a DXT format");
    }
}

void
decodeBlock(const std::uint8_t *data, TexFormat format, Rgba8 texels[16])
{
    switch (format) {
      case TexFormat::DXT1:
        decodeColorBlock(data, true, texels);
        break;
      case TexFormat::DXT3: {
        decodeColorBlock(data + 8, false, texels);
        for (int i = 0; i < 16; ++i) {
            std::uint8_t nib = static_cast<std::uint8_t>(
                (data[i / 2] >> ((i & 1) * 4)) & 0xf);
            texels[i].a = static_cast<std::uint8_t>(nib * 17);
        }
        break;
      }
      case TexFormat::DXT5: {
        decodeColorBlock(data + 8, false, texels);
        std::uint8_t alphas[16];
        decodeAlphaBlockDxt5(data, alphas);
        for (int i = 0; i < 16; ++i)
            texels[i].a = alphas[i];
        break;
      }
      default:
        panic("decodeBlock: not a DXT format");
    }
}

} // namespace wc3d::tex
