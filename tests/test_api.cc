/**
 * @file
 * Unit tests for the API layer: device state machine, resource
 * management, draw dispatch, API statistics and the trace round trip.
 */

#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "api/device.hh"
#include "api/trace.hh"

using namespace wc3d;
using namespace wc3d::api;

namespace {

/** Sink recording everything it receives. */
class RecordingSink : public DrawSink
{
  public:
    void
    vertexBufferCreated(std::uint32_t id, const VertexBufferData &) override
    {
        vbIds.push_back(id);
    }
    void
    indexBufferCreated(std::uint32_t id, const IndexBufferData &) override
    {
        ibIds.push_back(id);
    }
    void
    textureCreated(std::uint32_t id, tex::Texture2D &texture) override
    {
        texIds.push_back(id);
        textures.push_back(&texture);
    }
    void
    programCreated(std::uint32_t id, const shader::Program &) override
    {
        progIds.push_back(id);
    }
    void clear(const ClearCmd &) override { ++clears; }
    void
    draw(const DrawCall &call) override
    {
        draws.push_back(call);
    }
    void endFrame() override { ++frames; }

    std::vector<std::uint32_t> vbIds, ibIds, texIds, progIds;
    std::vector<const tex::Texture2D *> textures;
    std::vector<DrawCall> draws;
    int clears = 0;
    int frames = 0;
};

VertexBufferData
smallVb(int n = 3)
{
    VertexBufferData vb;
    for (int i = 0; i < n; ++i) {
        VertexData v;
        v.position = {static_cast<float>(i), 0.0f, 0.0f};
        vb.vertices.push_back(v);
    }
    return vb;
}

IndexBufferData
smallIb(std::initializer_list<std::uint32_t> idx,
        IndexType type = IndexType::U16)
{
    IndexBufferData ib;
    ib.type = type;
    ib.indices = idx;
    return ib;
}

const char *kVs = "!!VP v\nMOV o0, v0;\n";
const char *kFs = "!!FP f\nMOV o0, v1;\n";

/** Device with programs bound, ready to draw. */
struct Fixture
{
    Device dev;
    RecordingSink sink;
    std::uint32_t vb, ib, vp, fp;

    Fixture()
    {
        dev.setSink(&sink);
        vb = dev.createVertexBuffer(smallVb());
        ib = dev.createIndexBuffer(smallIb({0, 1, 2}));
        vp = dev.createProgram(shader::ProgramKind::Vertex, kVs);
        fp = dev.createProgram(shader::ProgramKind::Fragment, kFs);
        dev.bindProgram(shader::ProgramKind::Vertex, vp);
        dev.bindProgram(shader::ProgramKind::Fragment, fp);
    }
};

/** Same geometry, storage footprint and decoded texels at every level. */
void
expectSameTexture(const tex::Texture2D &a, const tex::Texture2D &b)
{
    EXPECT_EQ(a.format(), b.format());
    EXPECT_EQ(a.storageBytes(), b.storageBytes());
    ASSERT_EQ(a.levels(), b.levels());
    for (int l = 0; l < a.levels(); ++l) {
        ASSERT_EQ(a.levelWidth(l), b.levelWidth(l));
        ASSERT_EQ(a.levelHeight(l), b.levelHeight(l));
        for (int y = 0; y < a.levelHeight(l); ++y)
            for (int x = 0; x < a.levelWidth(l); ++x)
                ASSERT_EQ(a.texel(l, x, y), b.texel(l, x, y))
                    << "level " << l << " (" << x << ", " << y << ")";
    }
}

TextureSpec
noiseSpec()
{
    TextureSpec spec;
    spec.kind = TextureSpec::Kind::Noise;
    spec.size = 64;
    spec.seed = 7;
    spec.alphaNoise = true;
    spec.format = tex::TexFormat::DXT5;
    return spec;
}

} // namespace

TEST(Device, ResourceCreationNotifiesSink)
{
    Fixture f;
    EXPECT_EQ(f.sink.vbIds.size(), 1u);
    EXPECT_EQ(f.sink.ibIds.size(), 1u);
    EXPECT_EQ(f.sink.progIds.size(), 2u);
    EXPECT_NE(f.dev.vertexBuffer(f.vb), nullptr);
    EXPECT_NE(f.dev.indexBuffer(f.ib), nullptr);
    EXPECT_NE(f.dev.program(f.vp), nullptr);
    EXPECT_EQ(f.dev.vertexBuffer(999), nullptr);
}

TEST(Device, BadProgramReturnsZero)
{
    Device dev;
    EXPECT_EQ(dev.createProgram(shader::ProgramKind::Vertex, "GARBAGE x\n"),
              0u);
}

TEST(Device, DrawDispatchesResolvedCall)
{
    Fixture f;
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    ASSERT_EQ(f.sink.draws.size(), 1u);
    const DrawCall &call = f.sink.draws[0];
    EXPECT_EQ(call.indexCount, 3u);
    EXPECT_EQ(call.vertices->vertices.size(), 3u);
    EXPECT_EQ(call.vertexProgram->kind(), shader::ProgramKind::Vertex);
    EXPECT_EQ(call.fragmentProgram->kind(), shader::ProgramKind::Fragment);
}

TEST(Device, DrawWithoutProgramsDropped)
{
    Device dev;
    RecordingSink sink;
    dev.setSink(&sink);
    auto vb = dev.createVertexBuffer(smallVb());
    auto ib = dev.createIndexBuffer(smallIb({0, 1, 2}));
    dev.draw(vb, ib, 0, 3, geom::PrimitiveType::TriangleList);
    EXPECT_TRUE(sink.draws.empty());
    EXPECT_EQ(dev.stats().batches(), 0u);
}

TEST(Device, DrawRangeValidation)
{
    Fixture f;
    f.dev.draw(f.vb, f.ib, 0, 99, geom::PrimitiveType::TriangleList);
    EXPECT_TRUE(f.sink.draws.empty());
    f.dev.draw(f.vb, 7777, 0, 3, geom::PrimitiveType::TriangleList);
    EXPECT_TRUE(f.sink.draws.empty());
    // firstIndex + indexCount wraps to 0 in 32 bits; both orders must
    // still be rejected rather than reading indices[0xFFFFFFFF].
    f.dev.draw(f.vb, f.ib, 0xFFFFFFFFu, 1,
               geom::PrimitiveType::TriangleList);
    EXPECT_TRUE(f.sink.draws.empty());
    f.dev.draw(f.vb, f.ib, 1, 0xFFFFFFFFu,
               geom::PrimitiveType::TriangleList);
    EXPECT_TRUE(f.sink.draws.empty());
    EXPECT_EQ(f.dev.stats().batches(), 0u);
    // The exact end of the buffer is still in range.
    f.dev.draw(f.vb, f.ib, 1, 2, geom::PrimitiveType::TriangleList);
    EXPECT_EQ(f.sink.draws.size(), 1u);
}

TEST(Device, DrawFromEmptyVertexBufferDropped)
{
    // A vertex count of 0 is a valid resource, but no index can
    // address it: the simulator's out-of-range clamp would read
    // vertices[size() - 1] = vertices[0xFFFFFFFF].
    Fixture f;
    auto empty_vb = f.dev.createVertexBuffer(smallVb(0));
    f.dev.draw(empty_vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    EXPECT_TRUE(f.sink.draws.empty());
    EXPECT_EQ(f.dev.stats().batches(), 0u);
    // An empty draw reads no vertex, so it still goes through.
    f.dev.draw(empty_vb, f.ib, 0, 0, geom::PrimitiveType::TriangleList);
    EXPECT_EQ(f.sink.draws.size(), 1u);
}

TEST(Device, StateTracking)
{
    Fixture f;
    frag::DepthStencilState ds;
    ds.depthFunc = frag::CompareFunc::Equal;
    f.dev.setDepthStencil(ds);
    frag::BlendState bs;
    bs.enabled = true;
    f.dev.setBlend(bs);
    f.dev.setCullMode(geom::CullMode::Front);
    EXPECT_EQ(f.dev.currentState().depthStencil.depthFunc,
              frag::CompareFunc::Equal);
    EXPECT_TRUE(f.dev.currentState().blend.enabled);
    EXPECT_EQ(f.dev.currentState().cullMode, geom::CullMode::Front);

    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    EXPECT_EQ(f.sink.draws.back().state.cullMode, geom::CullMode::Front);
}

TEST(Device, TextureBindingResolved)
{
    Fixture f;
    TextureSpec spec;
    spec.kind = TextureSpec::Kind::Checker;
    spec.size = 16;
    spec.format = tex::TexFormat::RGBA8;
    auto tid = f.dev.createTexture(spec);
    tex::SamplerState ss;
    ss.maxAniso = 16;
    f.dev.bindTexture(2, tid, ss);
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    const DrawCall &call = f.sink.draws.back();
    EXPECT_EQ(call.textures[2], f.dev.texture(tid));
    EXPECT_EQ(call.state.samplers[2].maxAniso, 16);
    EXPECT_EQ(call.textures[0], nullptr);
}

TEST(Device, SinklessTextureBuiltOnLookupMatchesSpec)
{
    Device dev;
    TextureSpec spec = noiseSpec();
    std::uint32_t id = dev.createTexture(spec);
    ASSERT_NE(id, 0u);
    const tex::Texture2D *t = dev.texture(id);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(dev.texture(id), t); // built once, then kept
    expectSameTexture(*t, spec.build("reference"));
    EXPECT_EQ(dev.texture(id + 1), nullptr);
}

TEST(Device, SinkGetsTextureAtCreationAndTheSameInDraws)
{
    Fixture f;
    std::uint32_t id = f.dev.createTexture(noiseSpec());
    ASSERT_EQ(f.sink.texIds, std::vector<std::uint32_t>{id});
    const tex::Texture2D *created = f.sink.textures[0];
    expectSameTexture(*created, noiseSpec().build("reference"));
    f.dev.bindTexture(1, id, tex::SamplerState{});
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    EXPECT_EQ(f.sink.draws.back().textures[1], created);
    EXPECT_EQ(f.dev.texture(id), created);
}

TEST(Device, RedefinedTextureRebuiltFromNewSpec)
{
    TextureSpec first;
    first.kind = TextureSpec::Kind::Checker;
    first.size = 16;
    first.format = tex::TexFormat::RGBA8;
    TextureSpec second = noiseSpec();

    // Without a sink: a texture built from the first spec is dropped.
    Device dev;
    dev.submit(CreateTextureCmd{5, first});
    ASSERT_NE(dev.texture(5), nullptr);
    EXPECT_EQ(dev.texture(5)->width(), 16);
    dev.submit(CreateTextureCmd{5, second});
    ASSERT_NE(dev.texture(5), nullptr);
    expectSameTexture(*dev.texture(5), second.build("reference"));

    // With a sink: each definition is built and handed over.
    Fixture f;
    f.dev.submit(CreateTextureCmd{5, first});
    f.dev.submit(CreateTextureCmd{5, second});
    ASSERT_EQ(f.sink.textures.size(), 2u);
    EXPECT_EQ(f.dev.texture(5), f.sink.textures[1]);
    expectSameTexture(*f.dev.texture(5), second.build("reference"));
}

TEST(Device, InvalidTextureSpecDropped)
{
    TextureSpec bad = noiseSpec();
    bad.size = 3; // Texture2D needs a power of two
    EXPECT_NE(bad.invalidReason(), "");
    Fixture f;
    EXPECT_EQ(f.dev.createTexture(bad), 0u);
    EXPECT_TRUE(f.sink.textures.empty());

    // A bad redefinition leaves the existing texture in place.
    std::uint32_t id = f.dev.createTexture(noiseSpec());
    f.dev.submit(CreateTextureCmd{id, bad});
    TextureSpec bad_cell = noiseSpec();
    bad_cell.cell = bad_cell.size + 1;
    f.dev.submit(CreateTextureCmd{id, bad_cell});
    EXPECT_EQ(f.sink.textures.size(), 1u);
    ASSERT_NE(f.dev.texture(id), nullptr);
    EXPECT_EQ(f.dev.texture(id)->width(), 64);

    Device sinkless;
    sinkless.submit(CreateTextureCmd{9, bad});
    EXPECT_EQ(sinkless.texture(9), nullptr);
}

TEST(Device, SetConstantReachesBoundProgram)
{
    Fixture f;
    f.dev.setConstant(shader::ProgramKind::Vertex, 5, {1, 2, 3, 4});
    EXPECT_FLOAT_EQ(f.dev.program(f.vp)->constant(5).y, 2.0f);
}

TEST(Device, ClearAndEndFrameForwarded)
{
    Fixture f;
    f.dev.clear();
    f.dev.endFrame();
    EXPECT_EQ(f.sink.clears, 1);
    EXPECT_EQ(f.sink.frames, 1);
}

TEST(ApiStats, CountsDrawsAndStateCalls)
{
    Fixture f;
    // Fixture did 6 state calls (2 buffers + 2 programs + 2 binds).
    std::uint64_t base = f.dev.stats().stateCalls();
    EXPECT_EQ(base, 6u);
    f.dev.setCullMode(geom::CullMode::None);
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.endFrame();
    const ApiStats &s = f.dev.stats();
    EXPECT_EQ(s.stateCalls(), base + 1);
    EXPECT_EQ(s.batches(), 1u);
    EXPECT_EQ(s.indices(), 3u);
    EXPECT_EQ(s.indexBytes(), 6u); // U16
    EXPECT_EQ(s.frames(), 1u);
    EXPECT_EQ(s.primitives(), 1u);
    EXPECT_DOUBLE_EQ(s.avgIndicesPerBatch(), 3.0);
    EXPECT_DOUBLE_EQ(s.avgBatchesPerFrame(), 1.0);
}

TEST(ApiStats, PrimitiveShares)
{
    Fixture f;
    auto ib_strip = f.dev.createIndexBuffer(
        smallIb({0, 1, 2, 1, 2, 0, 1, 2}, IndexType::U32));
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList); // 1
    f.dev.draw(f.vb, ib_strip, 0, 5, geom::PrimitiveType::TriangleStrip); // 3
    f.dev.endFrame();
    const ApiStats &s = f.dev.stats();
    EXPECT_DOUBLE_EQ(
        s.primitiveSharePct(geom::PrimitiveType::TriangleList), 25.0);
    EXPECT_DOUBLE_EQ(
        s.primitiveSharePct(geom::PrimitiveType::TriangleStrip), 75.0);
    // U16 batch: 3*2 bytes; U32 batch: 5*4 bytes.
    EXPECT_EQ(s.indexBytes(), 6u + 20u);
}

TEST(ApiStats, ShaderAverages)
{
    Fixture f;
    // kVs is 1 instruction; kFs is 1 instruction, 0 tex.
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.endFrame();
    EXPECT_DOUBLE_EQ(f.dev.stats().avgVertexShaderInstructions(), 1.0);
    EXPECT_DOUBLE_EQ(f.dev.stats().avgFragmentInstructions(), 1.0);
    EXPECT_DOUBLE_EQ(f.dev.stats().avgFragmentTexInstructions(), 0.0);
}

TEST(ApiStats, SeriesPerFrame)
{
    Fixture f;
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.endFrame();
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.endFrame();
    const auto &batches = f.dev.stats().series().series("batches");
    ASSERT_EQ(batches.size(), 2u);
    EXPECT_DOUBLE_EQ(batches[0], 2.0);
    EXPECT_DOUBLE_EQ(batches[1], 1.0);
}

TEST(ApiStats, IndexBwAtFps)
{
    Fixture f;
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.endFrame();
    // 6 bytes/frame * 100 fps = 600 B/s.
    EXPECT_DOUBLE_EQ(f.dev.stats().indexBwAtFps(100.0), 600.0);
}

TEST(Trace, RoundTripPreservesStream)
{
    std::string path = ::testing::TempDir() + "wc3d_trace_test.bin";
    {
        Device dev;
        TraceWriter writer(path);
        dev.setRecorder(&writer);
        auto vb = dev.createVertexBuffer(smallVb(5));
        auto ib = dev.createIndexBuffer(smallIb({0, 1, 2, 3, 4},
                                                IndexType::U32));
        auto vp = dev.createProgram(shader::ProgramKind::Vertex, kVs);
        auto fp = dev.createProgram(shader::ProgramKind::Fragment, kFs);
        dev.bindProgram(shader::ProgramKind::Vertex, vp);
        dev.bindProgram(shader::ProgramKind::Fragment, fp);
        TextureSpec spec;
        spec.kind = TextureSpec::Kind::Noise;
        spec.size = 32;
        spec.seed = 99;
        auto t = dev.createTexture(spec);
        tex::SamplerState ss;
        ss.filter = tex::TexFilter::Anisotropic;
        ss.maxAniso = 16;
        dev.bindTexture(0, t, ss);
        frag::DepthStencilState ds;
        ds.stencilTest = true;
        ds.back.zfail = frag::StencilOp::IncrWrap;
        dev.setDepthStencil(ds);
        frag::BlendState bs;
        bs.enabled = true;
        bs.srcFactor = frag::BlendFactor::SrcAlpha;
        dev.setBlend(bs);
        dev.setCullMode(geom::CullMode::Front);
        dev.setConstant(shader::ProgramKind::Vertex, 3, {1, 2, 3, 4});
        dev.clear();
        dev.draw(vb, ib, 0, 5, geom::PrimitiveType::TriangleStrip);
        dev.endFrame();
        EXPECT_EQ(writer.commandsWritten(), 15u);
    }

    // Replay into a fresh device: identical API statistics.
    Device replayed;
    TraceReader reader(path);
    ASSERT_TRUE(reader.ok());
    std::uint64_t n = playTrace(reader, replayed);
    EXPECT_EQ(n, 15u);
    EXPECT_EQ(replayed.stats().batches(), 1u);
    EXPECT_EQ(replayed.stats().indices(), 5u);
    EXPECT_EQ(replayed.stats().indexBytes(), 20u);
    EXPECT_EQ(replayed.stats().frames(), 1u);
    EXPECT_EQ(replayed.stats().primitivesOfType(
                  geom::PrimitiveType::TriangleStrip), 3u);
    // Resolved state survived the round trip.
    EXPECT_EQ(replayed.currentState().cullMode, geom::CullMode::Front);
    EXPECT_TRUE(replayed.currentState().blend.enabled);
    EXPECT_EQ(replayed.currentState().depthStencil.back.zfail,
              frag::StencilOp::IncrWrap);
    EXPECT_EQ(replayed.currentState().samplers[0].maxAniso, 16);
    std::remove(path.c_str());
}

TEST(Trace, BadFileRejected)
{
    std::string path = ::testing::TempDir() + "wc3d_bad_trace.bin";
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fputs("not a trace", fp);
    std::fclose(fp);
    TraceReader reader(path);
    EXPECT_FALSE(reader.ok());
    ASSERT_TRUE(reader.error().has_value());
    EXPECT_EQ(reader.error()->offset, 0u);
    EXPECT_FALSE(reader.error()->reason.empty());
    EXPECT_FALSE(reader.next().has_value());
    std::remove(path.c_str());
    TraceReader missing(::testing::TempDir() + "nonexistent.bin");
    EXPECT_FALSE(missing.ok());
    ASSERT_TRUE(missing.error().has_value());
}

TEST(Trace, TruncatedStreamReportsStructuredError)
{
    std::string path = ::testing::TempDir() + "wc3d_trunc_trace.bin";
    {
        Device dev;
        TraceWriter writer(path);
        dev.setRecorder(&writer);
        dev.createVertexBuffer(smallVb(100));
        EXPECT_TRUE(writer.close());
    }
    // Truncate mid-payload.
    std::FILE *fp = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 0, SEEK_END);
    long size = std::ftell(fp);
    ASSERT_EQ(0, ftruncate(fileno(fp), size / 2));
    std::fclose(fp);

    TraceReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_FALSE(reader.atEnd());
    ASSERT_TRUE(reader.error().has_value());
    EXPECT_FALSE(reader.error()->reason.empty());
    EXPECT_LE(reader.error()->offset,
              static_cast<std::uint64_t>(size / 2));
    std::remove(path.c_str());
}

TEST(Trace, WriterErrorStateInsteadOfFatal)
{
    // Unopenable path: the writer reports the error and stays inert.
    TraceWriter bad(::testing::TempDir() +
                    "no_such_dir/sub/trace.bin");
    EXPECT_FALSE(bad.ok());
    ASSERT_TRUE(bad.error().has_value());
    EXPECT_FALSE(bad.error()->reason.empty());
    EXPECT_FALSE(bad.write(Command{EndFrameCmd{}}));
    EXPECT_EQ(bad.commandsWritten(), 0u);
    EXPECT_FALSE(bad.close());

    // Write-after-close is an error, not an assert/abort.
    std::string path = ::testing::TempDir() + "wc3d_waclose.bin";
    TraceWriter writer(path);
    ASSERT_TRUE(writer.ok());
    EXPECT_TRUE(writer.write(Command{EndFrameCmd{}}));
    EXPECT_TRUE(writer.close());
    EXPECT_FALSE(writer.write(Command{EndFrameCmd{}}));
    EXPECT_FALSE(writer.ok());
    std::remove(path.c_str());
}

TEST(Misc, NamesAndSizes)
{
    EXPECT_STREQ(graphicsApiName(GraphicsApi::OpenGL), "OpenGL");
    EXPECT_STREQ(graphicsApiName(GraphicsApi::Direct3D), "Direct3D");
    EXPECT_EQ(indexTypeBytes(IndexType::U16), 2);
    EXPECT_EQ(indexTypeBytes(IndexType::U32), 4);
    Command draw = DrawCmd{};
    EXPECT_STREQ(commandName(draw), "Draw");
    EXPECT_FALSE(isStateCall(draw));
    Command bind = BindProgramCmd{};
    EXPECT_TRUE(isStateCall(bind));
    EXPECT_FALSE(isStateCall(Command{EndFrameCmd{}}));
}
