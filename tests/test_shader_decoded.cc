/**
 * @file
 * Tests for the pre-decoded shader execution path (shader/decoded.hh):
 * decode caching and invalidation, the register clear plan / arena
 * reuse, batched quad execution, and a full-ISA differential that pins
 * the legacy field-by-field reference and the pre-decoded interpreter
 * bit-exactly to one another, including opcodes no current workload
 * emits (DST, LIT, XPD, ...), so operand-arity mismatches between the
 * decoders cannot hide. Float special cases (MIN/MAX on ±0 and NaN,
 * RCP/RSQ of zero, FLR/FRC of negatives, NaN saturation) are compared
 * as bit patterns, and MIN/MAX are also pinned to absolute bits, so
 * the shared arithmetic core (shader/alucore.hh) cannot drift in both
 * executors at once.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "shader/alucore.hh"
#include "shader/decoded.hh"
#include "shader/interp.hh"

using namespace wc3d;
using namespace wc3d::shader;

namespace {

/** Deterministic input/constant values, nothing degenerate. */
Vec4
v4(int seed)
{
    auto f = [seed](int k) {
        return 0.125f + 0.375f * static_cast<float>((seed * 7 + k * 3) % 9) -
               1.0f * static_cast<float>((seed + k) % 2);
    };
    return {f(0), f(1), f(2), f(3)};
}

/** |s| — there is no builder shorthand for the absolute modifier. */
SrcOperand
absolute(SrcOperand s)
{
    s.absolute = true;
    return s;
}

/** An output-file source read (legal; no shorthand constructor). */
SrcOperand
srcOutput(int index)
{
    SrcOperand s;
    s.file = RegFile::Output;
    s.index = static_cast<std::uint8_t>(index);
    return s;
}

/** Emit an opcode that has no builder shorthand (DST, LIT). */
void
emitRaw(Program &p, Opcode op, DstOperand d, SrcOperand a,
        SrcOperand b = srcTemp(0))
{
    Instruction in;
    in.op = op;
    in.dst = d;
    in.src[0] = a;
    in.src[1] = b;
    p.emit(in);
}

/** Every non-texture opcode with representative operand modifiers. */
Program
fullIsaAluProgram()
{
    Program p(ProgramKind::Fragment, "full_isa");
    p.mov(dstTemp(0), srcInput(0));
    p.add(dstTemp(1), srcInput(0), srcInput(1));
    p.sub(dstTemp(2), srcTemp(1), negate(srcInput(2)));
    p.mul(dstTemp(3), srcTemp(2), srcConst(0));
    p.mad(dstTemp(4), srcTemp(3), srcConst(1), srcTemp(0));
    p.dp3(dstTemp(5), srcTemp(4), srcInput(1));
    p.dp4(dstTemp(6), srcTemp(4), absolute(srcInput(0)));
    p.rcp(dstTemp(7, kMaskX), srcTemp(6, packSwizzle(1, 1, 1, 1)));
    p.rsq(dstTemp(7, kMaskY), absolute(srcTemp(6)));
    p.minOp(dstTemp(8), srcTemp(4), srcConst(0));
    p.maxOp(dstTemp(9), srcTemp(4), negate(srcConst(1)));
    p.slt(dstTemp(10), srcTemp(8), srcTemp(9));
    p.sge(dstTemp(11), srcTemp(8), srcTemp(9));
    p.frc(dstTemp(12), srcTemp(4));
    p.flr(dstTemp(13), srcTemp(4));
    p.absOp(dstTemp(14), srcTemp(2));
    p.ex2(dstTemp(15, kMaskX), srcTemp(12, packSwizzle(0, 0, 0, 0)));
    p.lg2(dstTemp(15, kMaskY), absolute(srcTemp(3, packSwizzle(2, 2, 2, 2))));
    p.pow(dstTemp(15, kMaskZ), absolute(srcTemp(1)),
          srcConst(0, packSwizzle(3, 3, 3, 3)));
    p.lrp(dstTemp(15, kMaskW), srcTemp(12), srcTemp(8), srcTemp(9));
    p.cmp(dstOutput(1), srcTemp(2), srcTemp(8), srcTemp(9));
    p.nrm(dstTemp(1), srcTemp(4));
    p.xpd(dstTemp(2), srcInput(0), srcInput(1));
    emitRaw(p, Opcode::DST, dstTemp(3), srcTemp(14), srcConst(1));
    emitRaw(p, Opcode::LIT, dstTemp(4),
            srcTemp(5, packSwizzle(0, 1, 2, 3)));
    p.add(saturate(dstOutput(0)), srcTemp(15), srcTemp(4));
    p.mul(dstOutput(0, kMaskX | kMaskZ), srcOutput(0), srcTemp(13));
    p.setConstant(0, {0.75f, -0.5f, 1.25f, 2.0f});
    p.setConstant(1, {-1.5f, 0.25f, 3.0f, 0.5f});
    return p;
}

/** Stub texture handler: records every sampleQuad() call verbatim
 *  and returns a coordinate-dependent result. */
class RecordingTexture : public TextureSampleHandler
{
  public:
    struct Call
    {
        int sampler;
        Vec4 coords[4];
        float lodBias;
    };

    void
    sampleQuad(int sampler, const Vec4 coords[4], float lod_bias,
               Vec4 out[4]) override
    {
        Call c;
        c.sampler = sampler;
        c.lodBias = lod_bias;
        for (int l = 0; l < 4; ++l) {
            c.coords[l] = coords[l];
            out[l] = {coords[l].y, coords[l].x,
                      static_cast<float>(sampler), lod_bias};
        }
        calls.push_back(c);
    }

    std::vector<Call> calls;
};

std::uint32_t
bitsOf(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, sizeof b);
    return b;
}

/** Bitwise Vec4 comparison: NaNs must match as bit patterns, not
 *  compare-equal, and zero signs must match too. */
void
expectBitsEqual(const Vec4 &a, const Vec4 &b, const char *what)
{
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(bitsOf(a[k]), bitsOf(b[k])) << what << " component " << k;
}

/** Same samplers in the same order with bit-identical coordinates and
 *  LOD biases. */
void
expectCallsIdentical(const RecordingTexture &a, const RecordingTexture &b)
{
    ASSERT_EQ(a.calls.size(), b.calls.size());
    for (std::size_t c = 0; c < a.calls.size(); ++c) {
        SCOPED_TRACE(c);
        EXPECT_EQ(a.calls[c].sampler, b.calls[c].sampler);
        EXPECT_EQ(bitsOf(a.calls[c].lodBias), bitsOf(b.calls[c].lodBias));
        for (int l = 0; l < 4; ++l)
            expectBitsEqual(a.calls[c].coords[l], b.calls[c].coords[l],
                            "coords");
    }
}

/** Compare every register of two lanes bit-exactly. */
void
expectLanesIdentical(const LaneState &a, const LaneState &b,
                     const char *what)
{
    for (int i = 0; i < kMaxTemps; ++i)
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(a.temps[i][k], b.temps[i][k])
                << what << ": temp " << i << "." << k;
    for (int i = 0; i < kMaxOutputs; ++i)
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(a.outputs[i][k], b.outputs[i][k])
                << what << ": output " << i << "." << k;
    EXPECT_EQ(a.killed, b.killed) << what;
}

} // namespace

TEST(Decoded, FullIsaMatchesLegacyBitExactly)
{
    Program p = fullIsaAluProgram();
    Interpreter legacy, decoded;
    LaneState ref, hot;
    for (int i = 0; i < 3; ++i) {
        ref.inputs[i] = v4(i + 1);
        hot.inputs[i] = v4(i + 1);
    }
    legacy.runLegacy(p, ref);
    decoded.run(p, hot);
    expectLanesIdentical(ref, hot, "full ISA");
    EXPECT_EQ(legacy.stats().instructionsExecuted,
              decoded.stats().instructionsExecuted);
    EXPECT_EQ(legacy.stats().programsRun, decoded.stats().programsRun);
}

TEST(Decoded, SpecialValuesMatchLegacyBitExactly)
{
    // MIN/MAX NaN propagation and zero signs, RCP/RSQ zero guards,
    // FLR/FRC on negatives, saturation of NaN: the float special cases
    // where two executors of one ISA most easily diverge.
    Program p(ProgramKind::Fragment, "special");
    p.minOp(dstTemp(0), srcInput(0), srcInput(1));
    p.maxOp(dstTemp(1), srcInput(0), srcInput(1));
    p.rcp(dstTemp(2, kMaskX), srcInput(0, packSwizzle(0, 0, 0, 0)));
    p.rsq(dstTemp(2, kMaskY), srcInput(0, packSwizzle(1, 1, 1, 1)));
    p.flr(dstTemp(3), srcInput(0));
    p.frc(dstTemp(4), srcInput(0));
    p.slt(dstTemp(5), srcInput(0), srcInput(1));
    p.add(saturate(dstOutput(0)), srcInput(0), srcInput(1));
    p.mul(dstOutput(1), srcInput(1), srcTemp(0));

    const float qnan = std::nanf("");
    const float inf = std::numeric_limits<float>::infinity();
    const Vec4 specials[] = {
        {qnan, -0.0f, inf, -inf},
        {0.0f, qnan, -1.5f, 2.25f},
        {-0.0f, 0.0f, qnan, -3.75f},
        {inf, -inf, 0.5f, qnan},
    };

    for (std::size_t i = 0; i + 1 < std::size(specials); ++i) {
        SCOPED_TRACE(i);
        LaneState ref, hot;
        ref.inputs[0] = hot.inputs[0] = specials[i];
        ref.inputs[1] = hot.inputs[1] = specials[i + 1];

        Interpreter legacy, decoded;
        legacy.runLegacy(p, ref);
        decoded.run(p, hot);

        for (int t = 0; t < 6; ++t) {
            SCOPED_TRACE(t);
            expectBitsEqual(ref.temps[t], hot.temps[t], "temp");
        }
        for (int o = 0; o < 2; ++o) {
            SCOPED_TRACE(o);
            expectBitsEqual(ref.outputs[o], hot.outputs[o], "output");
        }
    }
}

TEST(Decoded, MinMaxPinnedZeroAndNanSemantics)
{
    // Absolute bits, not executor agreement: min/max pick the first
    // operand only on a strict ordered compare or a NaN second operand.
    const float qnan = std::nanf("");
    const float x = 1.5f;
    const std::uint32_t pos0 = bitsOf(0.0f), neg0 = bitsOf(-0.0f);
    const std::uint32_t xb = bitsOf(x);

    EXPECT_EQ(bitsOf(minf(0.0f, -0.0f)), neg0);
    EXPECT_EQ(bitsOf(minf(-0.0f, 0.0f)), pos0);
    EXPECT_EQ(bitsOf(minf(x, qnan)), xb);
    EXPECT_EQ(bitsOf(minf(qnan, x)), xb);
    EXPECT_EQ(bitsOf(maxf(0.0f, -0.0f)), neg0);
    EXPECT_EQ(bitsOf(maxf(-0.0f, 0.0f)), pos0);
    EXPECT_EQ(bitsOf(maxf(x, qnan)), xb);
    EXPECT_EQ(bitsOf(maxf(qnan, x)), xb);

    // The same bits through the MIN/MAX opcodes of both executors:
    // lane components are (+0,-0), (x,NaN), (NaN,x), (-0,+0).
    Program p(ProgramKind::Fragment, "minmax");
    p.minOp(dstOutput(0), srcInput(0), srcInput(1));
    p.maxOp(dstOutput(1), srcInput(0), srcInput(1));
    const Vec4 a = {0.0f, x, qnan, -0.0f};
    const Vec4 b = {-0.0f, qnan, x, 0.0f};
    const std::uint32_t want[4] = {neg0, xb, xb, pos0};

    LaneState ref, hot;
    ref.inputs[0] = hot.inputs[0] = a;
    ref.inputs[1] = hot.inputs[1] = b;
    Interpreter legacy, decoded;
    legacy.runLegacy(p, ref);
    decoded.run(p, hot);
    for (const LaneState *lane : {&ref, &hot}) {
        for (int o = 0; o < 2; ++o) {
            for (int k = 0; k < 4; ++k) {
                EXPECT_EQ(bitsOf(lane->outputs[o][k]), want[k])
                    << (lane == &ref ? "legacy" : "decoded") << " output "
                    << o << "." << k;
            }
        }
    }
}

TEST(Decoded, ArityMatchesOpcodeInfo)
{
    // The decoded executor selects operand loads at compile time; the
    // decode itself must agree with OpcodeInfo on every opcode's arity,
    // or a second/third source would silently read garbage.
    Program p = fullIsaAluProgram();
    const DecodedProgram &dec = p.decoded();
    ASSERT_EQ(dec.ops().size(), p.code().size());
    for (std::size_t i = 0; i < dec.ops().size(); ++i) {
        const Instruction &in = p.code()[i];
        const DecodedOp &op = dec.ops()[i];
        EXPECT_EQ(op.op, in.op);
        const OpcodeInfo &info = opcodeInfo(in.op);
        for (int s = 0; s < info.numSrcs; ++s) {
            EXPECT_EQ(op.src[s].file,
                      static_cast<std::uint8_t>(in.src[s].file))
                << opcodeName(in.op) << " src " << s;
            EXPECT_EQ(op.src[s].index, in.src[s].index)
                << opcodeName(in.op) << " src " << s;
        }
    }
}

TEST(Decoded, KillMatchesLegacy)
{
    Program p(ProgramKind::Fragment, "kil");
    p.sub(dstTemp(0), srcInput(0), srcConst(0));
    p.kil(srcTemp(0, packSwizzle(3, 3, 3, 3)));
    p.mov(dstOutput(0), srcInput(1));
    p.setConstant(0, {0.0f, 0.0f, 0.0f, 0.5f});

    for (float alpha : {0.25f, 0.75f}) {
        Interpreter legacy, decoded;
        LaneState ref, hot;
        ref.inputs[0] = hot.inputs[0] = {1, 1, 1, alpha};
        ref.inputs[1] = hot.inputs[1] = v4(9);
        legacy.runLegacy(p, ref);
        decoded.run(p, hot);
        expectLanesIdentical(ref, hot, "kil lane");
        EXPECT_EQ(ref.killed, alpha < 0.5f);
        EXPECT_EQ(legacy.stats().killsTaken,
                  decoded.stats().killsTaken);
    }
}

TEST(Decoded, QuadKillMatchesLegacyOnPartialCoverage)
{
    // Two KILs: a lane killed by the first must not be re-counted by
    // the second, and uncovered lanes must never count at all.
    Program p(ProgramKind::Fragment, "kil_quad");
    p.sub(dstTemp(0), srcInput(0), srcConst(0));
    p.kil(srcTemp(0));
    p.kil(srcTemp(0, packSwizzle(3, 3, 3, 3)));
    p.mov(dstOutput(0), srcInput(0));
    p.setConstant(0, {0.5f, 0.5f, 0.5f, 0.5f});

    QuadState ref, hot;
    for (int l = 0; l < 4; ++l) {
        ref.covered[l] = hot.covered[l] = (l != 1);
        float v = 0.25f * static_cast<float>(l + 1); // 0.25..1.0
        ref.lanes[l].inputs[0] = hot.lanes[l].inputs[0] =
            {v, 1.0f - v, v, v};
    }

    Interpreter legacy, decoded;
    legacy.runQuadLegacy(p, ref, nullptr);
    decoded.runQuad(p, hot, nullptr);

    for (int l = 0; l < 4; ++l)
        expectLanesIdentical(ref.lanes[l], hot.lanes[l], "kil quad lane");
    EXPECT_GT(legacy.stats().killsTaken, 0u);
    EXPECT_EQ(legacy.stats().killsTaken, decoded.stats().killsTaken);
    EXPECT_EQ(legacy.stats().instructionsExecuted,
              decoded.stats().instructionsExecuted);
    EXPECT_EQ(legacy.stats().programsRun, decoded.stats().programsRun);
}

TEST(Decoded, QuadTextureMatchesLegacy)
{
    // TEX, TXP (projective divide) and TXB (LOD bias from .w) on a
    // partially covered quad: both executors must issue the same
    // sampler calls with bit-identical coordinates and biases.
    Program p(ProgramKind::Fragment, "tex");
    p.tex(dstTemp(0), srcInput(0), 0);
    p.txp(dstTemp(1), srcInput(1), 1);
    p.txb(dstTemp(2), srcInput(2), 2);
    p.mad(dstOutput(0), srcTemp(0), srcTemp(1), srcTemp(2));

    QuadState ref, hot;
    for (int l = 0; l < 4; ++l) {
        ref.covered[l] = hot.covered[l] = (l != 2);
        for (int i = 0; i < 3; ++i) {
            ref.lanes[l].inputs[i] = v4(l * 3 + i + 1);
            ref.lanes[l].inputs[i].w = 1.0f + 0.25f * static_cast<float>(l);
            hot.lanes[l].inputs[i] = ref.lanes[l].inputs[i];
        }
    }
    RecordingTexture tex_ref, tex_hot;
    Interpreter legacy, decoded;
    legacy.runQuadLegacy(p, ref, &tex_ref);
    decoded.runQuad(p, hot, &tex_hot);
    for (int l = 0; l < 4; ++l)
        expectLanesIdentical(ref.lanes[l], hot.lanes[l], "tex quad lane");
    EXPECT_EQ(tex_ref.calls.size(), 3u);
    expectCallsIdentical(tex_ref, tex_hot);
    EXPECT_EQ(legacy.stats().instructionsExecuted,
              decoded.stats().instructionsExecuted);
    EXPECT_EQ(legacy.stats().textureInstructions,
              decoded.stats().textureInstructions);
    EXPECT_EQ(legacy.stats().programsRun, decoded.stats().programsRun);
}

TEST(Decoded, SamplerSeesIdenticalCallSequence)
{
    // TEX, TXP and TXB on samplers out of index order against a
    // recording sampler: both executors must issue the same samplers
    // in the same order with bit-identical coordinates and biases.
    Program p(ProgramKind::Fragment, "sampler_sequence");
    p.tex(dstTemp(0), srcInput(0), 2);
    p.txp(dstTemp(1), srcInput(1), 0);
    p.txb(dstTemp(2), srcInput(2), 1);
    p.mad(dstOutput(0), srcTemp(0), srcTemp(1), srcTemp(2));

    QuadState ref, hot;
    for (int l = 0; l < 4; ++l) {
        ref.covered[l] = hot.covered[l] = true;
        for (int i = 0; i < 3; ++i) {
            Vec4 v = {0.1f * static_cast<float>(l + i), 0.75f,
                      -0.25f, 2.0f + static_cast<float>(i)};
            ref.lanes[l].inputs[i] = hot.lanes[l].inputs[i] = v;
        }
    }
    // A zero TXP w on one lane takes the no-divide branch.
    ref.lanes[2].inputs[1].w = hot.lanes[2].inputs[1].w = 0.0f;

    RecordingTexture tex_ref, tex_hot;
    Interpreter legacy, decoded;
    legacy.runQuadLegacy(p, ref, &tex_ref);
    decoded.runQuad(p, hot, &tex_hot);

    ASSERT_EQ(tex_ref.calls.size(), 3u);
    EXPECT_EQ(tex_ref.calls[0].sampler, 2);
    EXPECT_EQ(tex_ref.calls[1].sampler, 0);
    EXPECT_EQ(tex_ref.calls[2].sampler, 1);
    expectCallsIdentical(tex_ref, tex_hot);
    for (int l = 0; l < 4; ++l)
        expectBitsEqual(ref.lanes[l].outputs[0], hot.lanes[l].outputs[0],
                        "output");
    EXPECT_EQ(legacy.stats().textureInstructions,
              decoded.stats().textureInstructions);
}

TEST(Decoded, PrepareLaneEqualsFreshState)
{
    // Arena reuse: run the program on a dirty lane reset through the
    // clear plan and on a genuinely fresh lane; results must match
    // bit-exactly even though the program reads temps before writing
    // them and leaves some outputs untouched.
    Program p(ProgramKind::Fragment, "clearplan");
    p.add(dstTemp(0), srcTemp(1), srcInput(0)); // t1 read before write
    p.mov(dstTemp(1), srcInput(0));
    p.add(dstOutput(0, kMaskX | kMaskY), srcTemp(0), srcTemp(1));
    // o0.zw never written, o1 never written: both must read as zero
    // downstream, whatever the previous occupant of the arena left.

    const DecodedProgram &dec = p.decoded();
    EXPECT_TRUE(dec.tempClearMask() & (1u << 1));
    EXPECT_TRUE(dec.inputReadMask() & (1u << 0));

    Interpreter interp;
    LaneState fresh;
    fresh.inputs[0] = v4(4);
    interp.run(p, fresh);

    LaneState dirty;
    for (int i = 0; i < kMaxTemps; ++i)
        dirty.temps[i] = {9, 9, 9, 9};
    for (int i = 0; i < kMaxOutputs; ++i)
        dirty.outputs[i] = {7, 7, 7, 7};
    dirty.killed = true;
    dec.prepareLane(dirty);
    dirty.inputs[0] = v4(4);
    interp.run(p, dirty);

    // Observable state: every output (downstream consumers read them
    // all) and the temps the program touches. Temps the program never
    // references may legitimately keep stale arena contents.
    for (int i = 0; i < kMaxOutputs; ++i)
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(fresh.outputs[i][k], dirty.outputs[i][k])
                << "output " << i << "." << k;
    for (int i : {0, 1})
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(fresh.temps[i][k], dirty.temps[i][k])
                << "temp " << i << "." << k;
    EXPECT_FALSE(dirty.killed);
}

TEST(Decoded, RunQuadsEqualsPerQuadRuns)
{
    Program p(ProgramKind::Fragment, "batch");
    p.tex(dstTemp(0), srcInput(0), 3);
    p.mul(dstTemp(1), srcTemp(0), srcInput(1));
    p.mad(dstOutput(0), srcTemp(1), srcConst(0), srcTemp(0));
    p.setConstant(0, {0.5f, 0.5f, 0.5f, 1.0f});

    constexpr int kQuads = 7;
    std::vector<QuadState> batch(kQuads), loose(kQuads);
    for (int q = 0; q < kQuads; ++q) {
        for (int l = 0; l < 4; ++l) {
            batch[q].covered[l] = loose[q].covered[l] = ((q + l) % 3 != 0);
            for (int i = 0; i < 2; ++i) {
                batch[q].lanes[l].inputs[i] = v4(q * 8 + l * 2 + i);
                loose[q].lanes[l].inputs[i] = batch[q].lanes[l].inputs[i];
            }
        }
    }
    RecordingTexture tex_batch, tex_loose;
    Interpreter batched, perquad;
    batched.runQuads(p, batch.data(), batch.size(), &tex_batch);
    for (int q = 0; q < kQuads; ++q)
        perquad.runQuad(p, loose[q], &tex_loose);

    for (int q = 0; q < kQuads; ++q)
        for (int l = 0; l < 4; ++l)
            expectLanesIdentical(batch[q].lanes[l], loose[q].lanes[l],
                                 "batched quad lane");
    expectCallsIdentical(tex_batch, tex_loose);
    EXPECT_EQ(batched.stats().instructionsExecuted,
              perquad.stats().instructionsExecuted);
    EXPECT_EQ(batched.stats().textureInstructions,
              perquad.stats().textureInstructions);
    EXPECT_EQ(batched.stats().programsRun,
              perquad.stats().programsRun);
}

TEST(Decoded, CacheInvalidatedByEmit)
{
    Program p(ProgramKind::Fragment, "cache");
    p.mov(dstOutput(0), srcInput(0));
    const DecodedProgram *first = &p.decoded();
    EXPECT_EQ(first->ops().size(), 1u);
    EXPECT_FALSE(first->hasTexture());
    // Stable across repeated calls with no emit in between.
    EXPECT_EQ(first, &p.decoded());

    p.tex(dstOutput(0), srcInput(0), 0);
    const DecodedProgram &second = p.decoded();
    EXPECT_EQ(second.ops().size(), 2u);
    EXPECT_TRUE(second.hasTexture());
}

TEST(Decoded, TextureInstructionCountTracksEmit)
{
    Program p(ProgramKind::Fragment, "texcount");
    EXPECT_EQ(p.textureInstructionCount(), 0);
    p.tex(dstTemp(0), srcInput(0), 0);
    p.mov(dstOutput(0), srcTemp(0));
    EXPECT_EQ(p.textureInstructionCount(), 1);
    p.txb(dstTemp(1), srcInput(1), 1);
    p.txp(dstTemp(2), srcInput(2), 2);
    EXPECT_EQ(p.textureInstructionCount(), 3);
    EXPECT_EQ(p.aluInstructionCount(), 1);
    EXPECT_EQ(p.instructionCount(), 4);
}
