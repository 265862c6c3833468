/**
 * @file
 * The shared scalar arithmetic core of the shader ALU. Both executors
 * — the legacy field-by-field reference interpreter and the pre-decoded
 * hot path (shader/interp.cc) — compute instruction results through
 * aluResult(), so float special cases (RCP's zero guard, LG2's domain
 * clamp, LIT's exponent clamp, NaN propagation through MIN/MAX) are
 * defined in exactly one place and stay bit-identical across executors
 * by construction.
 */

#ifndef WC3D_SHADER_ALUCORE_HH
#define WC3D_SHADER_ALUCORE_HH

#include <cmath>

#include "common/log.hh"
#include "common/vecmath.hh"
#include "shader/isa.hh"

/**
 * The per-instruction helpers are large enough that the compiler
 * declines to inline them on its own, which would put an opaque call
 * (and a by-value Vec4 round-trip through memory) on every operand of
 * every interpreted instruction — and would stop the templated ALU
 * dispatch from constant-folding its opcode switch. Force the issue.
 */
#if defined(__GNUC__) || defined(__clang__)
#define WC3D_FORCE_INLINE inline __attribute__((always_inline))
#else
#define WC3D_FORCE_INLINE inline
#endif

namespace wc3d::shader {

/** Compile-time source-operand arity (mirrors opcodeInfo().numSrcs;
 *  the decoded-vs-legacy differential tests pin the two together). */
constexpr int
arityFor(Opcode op)
{
    switch (op) {
      case Opcode::ADD:
      case Opcode::SUB:
      case Opcode::MUL:
      case Opcode::DP3:
      case Opcode::DP4:
      case Opcode::MIN:
      case Opcode::MAX:
      case Opcode::SLT:
      case Opcode::SGE:
      case Opcode::POW:
      case Opcode::XPD:
      case Opcode::DST:
        return 2;
      case Opcode::MAD:
      case Opcode::LRP:
      case Opcode::CMP:
        return 3;
      default:
        return 1;
    }
}

/**
 * MIN/MAX with pinned ±0 and NaN semantics: pick @p a only when the
 * strict ordered compare holds or @p b is NaN, else @p b — so
 * min(+0,-0) = -0, min(x,NaN) = x, min(NaN,x) = x (and symmetrically
 * for max: max(+0,-0) = -0, max(x,NaN) = x, max(NaN,x) = x).
 * std::fmin/fmax must not be used here: which operand they return on
 * an equal compare is a build detail (glibc's x86-64 asm resolves
 * fmin(+0,-0) to its second operand, GCC's -O2 inline expansion to its
 * first), so the statistics of a shader that hits ±0 could differ
 * between a Debug and a Release build. These are pure IEEE compares,
 * so every build computes the same bits; test_shader_decoded pins the
 * absolute results.
 */
WC3D_FORCE_INLINE float
minf(float a, float b)
{
    return a < b || std::isnan(b) ? a : b;
}

WC3D_FORCE_INLINE float
maxf(float a, float b)
{
    return b < a || std::isnan(b) ? a : b;
}

/** The shared arithmetic core; @p a/@p b/@p c are fully modified
 *  operand values. Returns the result to store (not used for KIL).
 *  Force-inlined so the switch folds away wherever @p op is a
 *  compile-time constant (the templated dispatch in interp.cc). */
WC3D_FORCE_INLINE Vec4
aluResult(Opcode op, const Vec4 &a, const Vec4 &b, const Vec4 &c)
{
    Vec4 r;
    switch (op) {
      case Opcode::MOV:
        r = a;
        break;
      case Opcode::ADD:
        r = a + b;
        break;
      case Opcode::SUB:
        r = a - b;
        break;
      case Opcode::MUL:
        r = {a.x * b.x, a.y * b.y, a.z * b.z, a.w * b.w};
        break;
      case Opcode::MAD:
        r = {a.x * b.x + c.x, a.y * b.y + c.y, a.z * b.z + c.z,
             a.w * b.w + c.w};
        break;
      case Opcode::DP3: {
        float d = a.x * b.x + a.y * b.y + a.z * b.z;
        r = {d, d, d, d};
        break;
      }
      case Opcode::DP4: {
        float d = a.dot(b);
        r = {d, d, d, d};
        break;
      }
      case Opcode::RCP: {
        float d = a.x != 0.0f ? 1.0f / a.x : 0.0f;
        r = {d, d, d, d};
        break;
      }
      case Opcode::RSQ: {
        float s = std::fabs(a.x);
        float d = s > 0.0f ? 1.0f / std::sqrt(s) : 0.0f;
        r = {d, d, d, d};
        break;
      }
      case Opcode::MIN:
        r = {minf(a.x, b.x), minf(a.y, b.y), minf(a.z, b.z),
             minf(a.w, b.w)};
        break;
      case Opcode::MAX:
        r = {maxf(a.x, b.x), maxf(a.y, b.y), maxf(a.z, b.z),
             maxf(a.w, b.w)};
        break;
      case Opcode::SLT:
        r = {a.x < b.x ? 1.0f : 0.0f, a.y < b.y ? 1.0f : 0.0f,
             a.z < b.z ? 1.0f : 0.0f, a.w < b.w ? 1.0f : 0.0f};
        break;
      case Opcode::SGE:
        r = {a.x >= b.x ? 1.0f : 0.0f, a.y >= b.y ? 1.0f : 0.0f,
             a.z >= b.z ? 1.0f : 0.0f, a.w >= b.w ? 1.0f : 0.0f};
        break;
      case Opcode::FRC:
        r = {a.x - std::floor(a.x), a.y - std::floor(a.y),
             a.z - std::floor(a.z), a.w - std::floor(a.w)};
        break;
      case Opcode::FLR:
        r = {std::floor(a.x), std::floor(a.y), std::floor(a.z),
             std::floor(a.w)};
        break;
      case Opcode::ABS:
        r = {std::fabs(a.x), std::fabs(a.y), std::fabs(a.z),
             std::fabs(a.w)};
        break;
      case Opcode::EX2: {
        float d = std::exp2(a.x);
        r = {d, d, d, d};
        break;
      }
      case Opcode::LG2: {
        float d = a.x > 0.0f ? std::log2(a.x) : -126.0f;
        r = {d, d, d, d};
        break;
      }
      case Opcode::POW: {
        float d = std::pow(std::fabs(a.x), b.x);
        r = {d, d, d, d};
        break;
      }
      case Opcode::LRP:
        r = {a.x * b.x + (1.0f - a.x) * c.x,
             a.y * b.y + (1.0f - a.y) * c.y,
             a.z * b.z + (1.0f - a.z) * c.z,
             a.w * b.w + (1.0f - a.w) * c.w};
        break;
      case Opcode::CMP:
        r = {a.x < 0.0f ? b.x : c.x, a.y < 0.0f ? b.y : c.y,
             a.z < 0.0f ? b.z : c.z, a.w < 0.0f ? b.w : c.w};
        break;
      case Opcode::NRM: {
        Vec3 n = a.xyz().normalized();
        r = {n.x, n.y, n.z, a.w};
        break;
      }
      case Opcode::XPD: {
        Vec3 x = a.xyz().cross(b.xyz());
        r = {x.x, x.y, x.z, 1.0f};
        break;
      }
      case Opcode::DST: {
        r = {1.0f, a.y * b.y, a.z, b.w};
        break;
      }
      case Opcode::LIT: {
        float diffuse = maxf(a.x, 0.0f);
        float specular = 0.0f;
        if (a.x > 0.0f) {
            float e = clampf(a.w, -128.0f, 128.0f);
            specular = std::pow(maxf(a.y, 0.0f), e);
        }
        r = {1.0f, diffuse, specular, 1.0f};
        break;
      }
      default:
        panic("shader: ALU executor got texture opcode %s",
              opcodeName(op));
    }
    return r;
}

} // namespace wc3d::shader

#endif // WC3D_SHADER_ALUCORE_HH
