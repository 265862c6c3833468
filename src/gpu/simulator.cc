#include "gpu/simulator.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "common/prof.hh"
#include "common/threadpool.hh"
#include "geom/assembly.hh"
#include "geom/viewport.hh"
#include "shader/decoded.hh"
#include "shader/interp.hh"

namespace wc3d::gpu {

namespace {

/**
 * Snapshot of the interpreter + sampler statistics a shading step is
 * charged against. Capture before and after, subtract, and fold the
 * difference into the pipeline counters.
 */
struct SamplerStatsDelta
{
    std::uint64_t instructions = 0;
    std::uint64_t texInstructions = 0;
    std::uint64_t requests = 0;
    std::uint64_t bilinears = 0;

    static SamplerStatsDelta
    capture(const shader::Interpreter &interp, const tex::Sampler &sampler)
    {
        SamplerStatsDelta d;
        d.instructions = interp.stats().instructionsExecuted;
        d.texInstructions = interp.stats().textureInstructions;
        d.requests = sampler.stats().requests;
        d.bilinears = sampler.stats().bilinearSamples;
        return d;
    }

    /** Field-wise difference of this capture from @p before. */
    SamplerStatsDelta
    since(const SamplerStatsDelta &before) const
    {
        SamplerStatsDelta d;
        d.instructions = instructions - before.instructions;
        d.texInstructions = texInstructions - before.texInstructions;
        d.requests = requests - before.requests;
        d.bilinears = bilinears - before.bilinears;
        return d;
    }

    void
    chargeTo(PipelineCounters &counters) const
    {
        counters.fragmentInstructions += instructions;
        counters.fragmentTexInstructions += texInstructions;
        counters.textureRequests += requests;
        counters.bilinearSamples += bilinears;
    }
};

/**
 * Ready @p qs for shading one quad: clear-plan reset of each lane (so a
 * reused state behaves like a freshly zeroed one) plus interpolation of
 * the fragment inputs the program actually reads, sharing one
 * perspective basis per lane across all varying slots.
 */
void
prepareQuadState(shader::QuadState &qs, const shader::DecodedProgram &dec,
                 std::uint32_t fp_input_mask,
                 const raster::TriangleSetup &setup,
                 const raster::QuadRef &quad, std::uint8_t live)
{
    for (int l = 0; l < 4; ++l) {
        qs.covered[l] = (live >> l) & 1;
        shader::LaneState &lane = qs.lanes[l];
        dec.prepareLane(lane);
        raster::TriangleSetup::VaryingBasis basis =
            setup.varyingBasis(quad.laneLambda(l));
        std::uint32_t mask = fp_input_mask;
        while (mask) {
            int slot = std::countr_zero(mask);
            mask &= mask - 1;
            if (slot < geom::kMaxVaryings) {
                lane.inputs[slot] =
                    setup.interpolateVarying(basis, slot);
            }
        }
    }
}

/** May HZ cull quads under this depth/stencil state? */
bool
hzUsable(const frag::DepthStencilState &ds)
{
    if (!ds.depthTest)
        return false;
    // A quad whose min depth exceeds the tile max fails Less/LEqual/
    // Equal for every pixel; other functions cannot be culled by a
    // max-depth hierarchy.
    bool func_ok = ds.depthFunc == frag::CompareFunc::Less ||
                   ds.depthFunc == frag::CompareFunc::LEqual ||
                   ds.depthFunc == frag::CompareFunc::Equal;
    if (!func_ok)
        return false;
    // Stencil side effects on depth-fail (shadow volumes) must still
    // execute, so HZ has to be bypassed ("it may be disabled for some
    // z and stencil modes").
    if (ds.stencilTest) {
        for (const frag::StencilFace *face : {&ds.front, &ds.back}) {
            if (face->sfail != frag::StencilOp::Keep ||
                face->zfail != frag::StencilOp::Keep) {
                return false;
            }
        }
    }
    return true;
}

/**
 * Run the vertex program on one fetched vertex (pure). @p lane is a
 * reusable arena state: the clear plan of the pre-decoded program
 * resets exactly the registers whose stale contents could be observed.
 */
geom::TransformedVertex
shadeVertex(const shader::Program &vp, const api::VertexData &v,
            shader::Interpreter &interp, shader::LaneState &lane)
{
    vp.decoded().prepareLane(lane);
    lane.inputs[0] = Vec4(v.position, 1.0f);
    lane.inputs[1] = Vec4(v.normal, 0.0f);
    lane.inputs[2] = {v.uv.x, v.uv.y, 0.0f, 1.0f};
    lane.inputs[3] = v.color;
    interp.run(vp, lane);

    geom::TransformedVertex tv;
    tv.clip = lane.outputs[0];
    for (int k = 0; k + 1 < shader::kMaxOutputs; ++k)
        tv.varyings[static_cast<std::size_t>(k)] = lane.outputs[k + 1];
    return tv;
}

} // namespace

struct GpuSimulator::QuadContextInfo
{
    const api::DrawCall *call = nullptr;
    bool backFace = false;
    bool earlyZ = true;
    bool hzOk = true;
    bool zsEnabled = true;      ///< depth or stencil test enabled
    bool colorMaskOff = false;
    bool usesKill = false;
    std::uint32_t fpInputMask = 0;
};

/**
 * One binned post-geometry triangle, in draw order. seq (its index in
 * _tiledTris) plus the traversal key of a quad totally orders the
 * draw's quad stream; the inclusive tile range records which bins the
 * triangle was appended to, so the merge can walk them back.
 */
struct GpuSimulator::TiledTri
{
    raster::TriangleSetup setup;
    bool backFace = false;
    std::uint16_t tx0 = 0;
    std::uint16_t ty0 = 0;
    std::uint16_t tx1 = 0;
    std::uint16_t ty1 = 0;
};

/**
 * Everything a tile worker produces that the submitting thread must
 * consume: the deferred cache-access logs and the per-quad records that
 * anchor them to positions in the global quad stream. Counters and
 * statistics are NOT here — they are order-insensitive sums kept in the
 * per-slot TileExec shards.
 */
struct GpuSimulator::TileOutput
{
    /** One deferred framebuffer-cache access. */
    struct SurfEvent
    {
        std::int32_t x = 0;
        std::int32_t y = 0;
        std::uint8_t surface = 0; ///< 0 depth/stencil, 1 colour
        std::uint8_t kind = 0;    ///< 0 read, 1 write, 2 no-fetch write
    };

    /**
     * One deferred texture-cache block access, its L0 (decompressed)
     * and L1 (compressed) addresses already resolved by the worker.
     */
    struct TexEvent
    {
        std::uint64_t vaddr = 0;
        std::uint64_t maddr = 0;
        std::int32_t refs = 0;
    };
    static_assert(sizeof(TexEvent) <= 24, "TexEvent grew past 24 bytes");

    /**
     * One processed quad that logged at least one deferred access. Per
     * (triangle, tile) the records are appended in traversal order, so
     * their keys ascend — the merge phase k-way-merges the per-tile
     * runs of one triangle by key to recover the full traversal order.
     */
    struct QuadRec
    {
        std::uint32_t key = 0; ///< raster::traversalKey(x, y)
        std::uint32_t surfBegin = 0;
        std::uint32_t surfCount = 0;
        std::uint32_t texBegin = 0;
        std::uint32_t texCount = 0;
    };

    /** Record range produced for one bin entry (one triangle). */
    struct TileRun
    {
        std::uint32_t recBegin = 0;
        std::uint32_t recCount = 0;
    };

    std::vector<std::uint32_t> bin; ///< triangle seqs, draw order
    std::vector<TileRun> runs;      ///< parallel to bin (filled by worker)
    std::vector<QuadRec> recs;
    std::vector<SurfEvent> surf;
    std::vector<TexEvent> tex;
    std::uint32_t cursor = 0;       ///< merge-phase run cursor

    bool empty() const { return bin.empty(); }

    void
    clearDraw()
    {
        bin.clear();
        runs.clear();
        recs.clear();
        surf.clear();
        tex.clear();
        cursor = 0;
    }
};

/** Merge-phase read position in one tile's record run for a primitive. */
struct GpuSimulator::MergeCursor
{
    std::uint32_t key;  ///< traversal key of the record at rec
    std::uint32_t rec;
    std::uint32_t end;
    TileOutput *out;
};

/**
 * Per-worker-slot execution state for tile work items: a private
 * interpreter and sampler whose texture-block accesses are recorded to
 * the current tile's log, private z/colour units whose cache accesses
 * are rerouted to the same log, private counter and HZ stats shards,
 * and a private rasterizer for the tile-clipped walk.
 * The word reads/writes the units perform hit the shared surfaces
 * directly — safe, because a tile's pixels belong to exactly one work
 * item and a slot runs one work item at a time.
 */
struct GpuSimulator::TileExec final : shader::TextureSampleHandler,
                                      tex::TexelAccessListener
{
    struct DepthSink final : frag::SurfaceAccessSink
    {
        TileExec *exec = nullptr;
        void
        surfaceAccess(int x, int y, bool is_write, bool no_fetch) override
        {
            exec->logSurf(0, x, y, is_write, no_fetch);
        }
    };

    struct ColorSink final : frag::SurfaceAccessSink
    {
        TileExec *exec = nullptr;
        void
        surfaceAccess(int x, int y, bool is_write, bool no_fetch) override
        {
            exec->logSurf(1, x, y, is_write, no_fetch);
        }
    };

    shader::Interpreter interp;
    tex::Sampler sampler;
    shader::QuadState quad;        ///< reusable shading state
    raster::QuadBatch quads;       ///< per-(triangle, tile) arena
    raster::Rasterizer raster;     ///< tile-clipped traversal + stats
    frag::ZStencilUnit zUnit;
    frag::ColorUnit colorUnit;
    DepthSink depthSink;
    ColorSink colorSink;
    PipelineCounters counters;     ///< fragment-stage counter shard
    raster::HzStats hzStats;
    const api::DrawCall *call = nullptr;
    TileOutput *out = nullptr;     ///< current work item's log

    explicit TileExec(GpuSimulator &sim)
        : raster(sim._config.width, sim._config.height),
          zUnit(&sim._depth), colorUnit(&sim._color)
    {
        sampler.setListener(this);
        depthSink.exec = this;
        colorSink.exec = this;
        zUnit.setAccessSink(&depthSink);
        colorUnit.setAccessSink(&colorSink);
    }

    void
    logSurf(std::uint8_t surface, int x, int y, bool is_write,
            bool no_fetch)
    {
        out->surf.push_back(
            {x, y, surface,
             static_cast<std::uint8_t>(no_fetch ? 2 : (is_write ? 1 : 0))});
    }

    /** Sample through the draw's texture bindings. */
    void
    sampleQuad(int unit, const Vec4 coords[4], float lod_bias,
               Vec4 out_colors[4]) override
    {
        WC3D_ASSERT(unit >= 0 && unit < shader::kMaxSamplers);
        const tex::Texture2D *texture =
            call->textures[static_cast<std::size_t>(unit)];
        if (!texture) {
            // Unbound unit: sample opaque black, like a disabled stage.
            for (int l = 0; l < 4; ++l)
                out_colors[l] = {0.0f, 0.0f, 0.0f, 1.0f};
            return;
        }
        sampler.sampleQuad(*texture,
                           call->state.samplers[static_cast<std::size_t>(
                               unit)],
                           coords, lod_bias, out_colors);
    }

    void
    blockAccess(const tex::Texture2D &texture, int level, int bx, int by,
                int refs) override
    {
        out->tex.push_back({texture.blockVirtualAddress(level, bx, by),
                            texture.blockMemAddress(level, bx, by), refs});
    }
};

GpuSimulator::GpuSimulator(const GpuConfig &config)
    : _config(config),
      _depth(frag::SurfaceKind::DepthStencil, memsys::Client::ZStencil,
             config.width, config.height, config.zCache, &_memory),
      _color(frag::SurfaceKind::Color, memsys::Client::Color, config.width,
             config.height, config.colorCache, &_memory),
      _hz(config.width, config.height),
      _tileGrid(config.width, config.height,
                raster::resolveTileSize(config.tileSize)),
      _vertexCache(config.vertexCacheEntries),
      _texCache(config.textureCache, &_memory),
      _slotJob(static_cast<std::size_t>(config.vertexCacheEntries), 0)
{
    _depth.fastClear(frag::packDepthStencil(1.0f, 0));
    _color.fastClear(0xff000000u);
}

GpuSimulator::~GpuSimulator() = default;

void
GpuSimulator::vertexBufferCreated(std::uint32_t,
                                  const api::VertexBufferData &data)
{
    // Startup upload: the CP moves vertex data into GPU local memory
    // ("the vertex geometry data is sent at startup time to the GPU and
    // stored in its local memory").
    _memory.write(memsys::Client::CommandProcessor, data.totalBytes());
}

void
GpuSimulator::indexBufferCreated(std::uint32_t,
                                 const api::IndexBufferData &data)
{
    _memory.write(memsys::Client::CommandProcessor, data.totalBytes());
}

void
GpuSimulator::textureCreated(std::uint32_t, tex::Texture2D &texture)
{
    texture.bindMemory(_memory);
    _memory.write(memsys::Client::CommandProcessor,
                  texture.storageBytes());
}

void
GpuSimulator::programCreated(std::uint32_t, const shader::Program &)
{
    _memory.write(memsys::Client::CommandProcessor,
                  static_cast<std::uint64_t>(_config.commandBytes));
}

void
GpuSimulator::clear(const api::ClearCmd &cmd)
{
    WC3D_PROF_SCOPE("gpu.clear");
    _memory.read(memsys::Client::CommandProcessor,
                 static_cast<std::uint64_t>(_config.commandBytes));
    if (cmd.color)
        _color.fastClear(cmd.colorValue);
    if (cmd.depth && cmd.stencil) {
        _depth.fastClear(
            frag::packDepthStencil(cmd.depthValue, cmd.stencilValue));
        _hz.clear(cmd.depthValue);
    } else if (cmd.stencil) {
        // Stencil-only fast clear (hierarchical-stencil style): update
        // the stencil field in place, keep depth intact, no traffic.
        for (int y = 0; y < _depth.height(); ++y) {
            for (int x = 0; x < _depth.width(); ++x) {
                std::uint32_t w = _depth.word(x, y);
                _depth.setWord(x, y, (w & ~0xffu) | cmd.stencilValue);
            }
        }
    } else if (cmd.depth) {
        for (int y = 0; y < _depth.height(); ++y) {
            for (int x = 0; x < _depth.width(); ++x) {
                std::uint32_t w = _depth.word(x, y);
                _depth.setWord(
                    x, y,
                    (frag::packDepthStencil(cmd.depthValue, 0) & ~0xffu) |
                        (w & 0xffu));
            }
        }
        _hz.clear(cmd.depthValue);
    }
}

void
GpuSimulator::shadeVertices(const api::DrawCall &call)
{
    WC3D_PROF_SCOPE("geom.vertex");
    const auto &vertices = call.vertices->vertices;
    int stride = call.vertices->strideBytes();
    int bytes_per_index = api::indexTypeBytes(call.indexData->type);
    const shader::Program &vp = *call.vertexProgram;

    // Pass 1 (in order): replay the vertex cache and memory accounting,
    // turning each miss into a pure shading job and each hit into a
    // reference to the job that filled its slot. Cache behaviour does
    // not depend on shading results, so the FIFO sequence is the same
    // at every thread count.
    _jobVertex.clear(); // job -> (clamped) source index
    _streamJob.resize(call.indexCount);

    for (std::uint32_t i = 0; i < call.indexCount; ++i) {
        std::uint32_t index =
            call.indexData->indices[call.firstIndex + i];
        _memory.read(memsys::Client::Vertex,
                     static_cast<std::uint64_t>(bytes_per_index));
        int slot = _vertexCache.lookup(index);
        if (slot >= 0) {
            ++_counters.vertexCacheHits;
            _streamJob[i] = _slotJob[static_cast<std::size_t>(slot)];
            continue;
        }
        ++_counters.vertexCacheMisses;
        if (index >= vertices.size()) {
            warn("gpu: index %u out of range, clamping", index);
            index = static_cast<std::uint32_t>(vertices.size() - 1);
        }
        _memory.read(memsys::Client::Vertex,
                     static_cast<std::uint64_t>(stride));
        _counters.vertexInstructions +=
            static_cast<std::uint64_t>(vp.instructionCount());
        auto job = static_cast<std::uint32_t>(_jobVertex.size());
        _jobVertex.push_back(index);
        slot = _vertexCache.insert(index);
        _slotJob[static_cast<std::size_t>(slot)] = job;
        _streamJob[i] = job;
    }

    // Pass 2 (parallel; inline on a 1-thread pool): shade the misses.
    // The interpreter is pure, so job results are independent of
    // scheduling.
    _shaded.resize(_jobVertex.size());
    parallelForRanges(
        ThreadPool::global(), _jobVertex.size(),
        [&](int, std::size_t begin, std::size_t end) {
            shader::Interpreter interp;
            shader::LaneState lane;
            for (std::size_t j = begin; j < end; ++j) {
                _shaded[j] = shadeVertex(
                    vp, vertices[_jobVertex[j]], interp, lane);
            }
        });

    // Pass 3: scatter into the post-transform stream.
    for (std::uint32_t i = 0; i < call.indexCount; ++i)
        _stream[i] = _shaded[_streamJob[i]];
}

void
GpuSimulator::draw(const api::DrawCall &call)
{
    WC3D_PROF_SCOPE("gpu.draw");
    WC3D_ASSERT(call.vertices && call.indexData && call.vertexProgram &&
                call.fragmentProgram);

    int bytes_per_index = api::indexTypeBytes(call.indexData->type);

    // Command processor: parse the draw and stream the (dynamic) index
    // data into GPU memory; the vertex loader will read it back.
    _memory.read(memsys::Client::CommandProcessor,
                 static_cast<std::uint64_t>(_config.commandBytes));
    _memory.write(memsys::Client::CommandProcessor,
                  static_cast<std::uint64_t>(call.indexCount) *
                      bytes_per_index);

    // Pre-decode both bound programs on the submitting thread, before
    // any worker can race the lazily cached decoded form (the pool's
    // queue provides the happens-before for the read-only accesses
    // after).
    call.vertexProgram->decoded();
    const shader::DecodedProgram &fp_dec = call.fragmentProgram->decoded();

    // --- Vertex stage -----------------------------------------------
    _vertexCache.invalidate(); // indices are batch-relative
    _stream.resize(call.indexCount);
    shadeVertices(call);
    _counters.indices += call.indexCount;

    // --- Primitive assembly -----------------------------------------
    _assembled.clear();
    geom::assembleTriangles(call.topology,
                            static_cast<int>(call.indexCount), _assembled);
    _counters.trianglesAssembled += _assembled.size();

    QuadContextInfo info;
    info.call = &call;
    info.usesKill = call.fragmentProgram->usesKill();
    info.earlyZ = !info.usesKill;
    const auto &ds = call.state.depthStencil;
    info.zsEnabled = ds.depthTest || ds.stencilTest;
    info.hzOk = _config.hzEnabled && hzUsable(ds);
    info.colorMaskOff = !call.state.blend.colorWriteMask;
    info.fpInputMask = fp_dec.inputReadMask();

    // --- Back half: bin, per-tile work, ordered merge ---------------
    binTriangles(call);
    if (!_activeTiles.empty()) {
        runTiles(info);
        mergeTileResults();
    }
}

void
GpuSimulator::binTriangles(const api::DrawCall &call)
{
    // Clip/cull the post-geometry primitives once, in draw order, and
    // append each set-up triangle to the bins of the screen tiles its
    // scissored bounding box overlaps.
    WC3D_PROF_SCOPE("raster.bin");
    geom::Viewport vp_rect{0, 0, _config.width, _config.height};
    if (_tileOut.size() < static_cast<std::size_t>(_tileGrid.tiles()))
        _tileOut.resize(static_cast<std::size_t>(_tileGrid.tiles()));
    _tiledTris.clear();
    for (const geom::AssembledTriangle &tri : _assembled) {
        geom::TransformedVertex verts[3] = {_stream[tri.v[0]],
                                            _stream[tri.v[1]],
                                            _stream[tri.v[2]]};
        _clippedTris.clear();
        geom::TriangleFate fate =
            _clipCull.process(verts, call.state.cullMode, _clippedTris);
        switch (fate) {
          case geom::TriangleFate::Clipped:
            ++_counters.trianglesClipped;
            continue;
          case geom::TriangleFate::Culled:
            ++_counters.trianglesCulled;
            continue;
          case geom::TriangleFate::Traversed:
            ++_counters.trianglesTraversed;
            break;
        }

        for (const auto &clip_tri : _clippedTris) {
            // Facing decides the two-sided stencil face (NDC y-up,
            // counter-clockwise = front).
            float area = geom::projectedSignedArea(
                clip_tri[0].clip, clip_tri[1].clip, clip_tri[2].clip);
            geom::ScreenTriangle screen =
                geom::toScreenTriangle(clip_tri, vp_rect);
            raster::TriangleSetup setup = raster::setupTriangle(
                screen, _config.width, _config.height);
            if (!setup.valid)
                continue;
            raster::TileGrid::BinRange range = _tileGrid.binRange(
                setup.minX, setup.minY, setup.maxX, setup.maxY);
            TiledTri tt;
            tt.setup = setup;
            tt.backFace = area < 0.0f;
            tt.tx0 = static_cast<std::uint16_t>(range.tx0);
            tt.ty0 = static_cast<std::uint16_t>(range.ty0);
            tt.tx1 = static_cast<std::uint16_t>(range.tx1);
            tt.ty1 = static_cast<std::uint16_t>(range.ty1);
            auto seq = static_cast<std::uint32_t>(_tiledTris.size());
            _tiledTris.push_back(tt);
            for (int ty = range.ty0; ty <= range.ty1; ++ty) {
                for (int tx = range.tx0; tx <= range.tx1; ++tx) {
                    int t = _tileGrid.index(tx, ty);
                    TileOutput &out = _tileOut[static_cast<std::size_t>(t)];
                    if (out.empty())
                        _activeTiles.push_back(static_cast<std::uint32_t>(t));
                    out.bin.push_back(seq);
                }
            }
        }
    }
}

void
GpuSimulator::runTiles(const QuadContextInfo &info)
{
    // Per-tile work items run raster + HZ + z&stencil + shade + ROP
    // end to end with zero cross-tile synchronization. They are
    // dispatched in ascending tile index: a fixed order that keeps the
    // 1-thread pool (which runs tasks inline at submit) on one
    // canonical schedule.
    std::sort(_activeTiles.begin(), _activeTiles.end());
    ThreadPool &pool = ThreadPool::global();
    while (_tileExec.size() < static_cast<std::size_t>(pool.threads()))
        _tileExec.push_back(std::make_unique<TileExec>(*this));
    TaskGroup group(pool);
    for (std::uint32_t t : _activeTiles) {
        group.run([this, t, &info] {
            WC3D_PROF_SCOPE("raster.tile");
            auto slot = static_cast<std::size_t>(ThreadPool::currentSlot());
            TileExec &exec = *_tileExec[slot];
            TileOutput &out = _tileOut[t];
            exec.call = info.call;
            exec.out = &out;
            processTile(exec, out, _tileGrid.rect(static_cast<int>(t)),
                        info);
            exec.out = nullptr;
        });
    }
    group.wait();
}

void
GpuSimulator::processTile(TileExec &exec, TileOutput &out,
                          const raster::TileRect &rect,
                          const QuadContextInfo &base_info)
{
    out.runs.reserve(out.bin.size());
    for (std::uint32_t seq : out.bin) {
        const TiledTri &tt =
            _tiledTris[static_cast<std::size_t>(seq)];
        QuadContextInfo info = base_info;
        info.backFace = tt.backFace;
        TileOutput::TileRun run;
        run.recBegin = static_cast<std::uint32_t>(out.recs.size());
        exec.quads.clear();
        exec.raster.rasterizeTile(tt.setup, rect.x0, rect.y0, rect.x1,
                                  rect.y1, exec.quads);
        for (std::size_t q = 0; q < exec.quads.size(); ++q)
            processTileQuad(exec, out, info, tt.setup, exec.quads.ref(q));
        run.recCount =
            static_cast<std::uint32_t>(out.recs.size()) - run.recBegin;
        out.runs.push_back(run);
    }
}

void
GpuSimulator::processTileQuad(TileExec &exec, TileOutput &out,
                              const QuadContextInfo &info,
                              const raster::TriangleSetup &setup,
                              const raster::QuadRef &quad)
{
    const api::DrawCall &call = *info.call;
    PipelineCounters &ctr = exec.counters;

    ++ctr.rasterQuads;
    if (quad.full())
        ++ctr.rasterFullQuads;
    ctr.rasterFragments += static_cast<std::uint64_t>(quad.coveredCount());

    auto surf_begin = static_cast<std::uint32_t>(out.surf.size());
    auto tex_begin = static_cast<std::uint32_t>(out.tex.size());
    // Anchor whatever accesses this quad logged to its position in the
    // global quad stream; quads that logged nothing need no record.
    auto push_rec = [&] {
        auto surf_count =
            static_cast<std::uint32_t>(out.surf.size()) - surf_begin;
        auto tex_count =
            static_cast<std::uint32_t>(out.tex.size()) - tex_begin;
        if (surf_count == 0 && tex_count == 0)
            return;
        out.recs.push_back({raster::traversalKey(quad.x, quad.y),
                            surf_begin, surf_count, tex_begin, tex_count});
    };

    std::uint8_t live = quad.coverage;

    // --- Hierarchical Z (the shared arrays are tile-exclusive) -------
    bool hz_accepted = false;
    switch (hzTestQuad(info, quad, exec.hzStats)) {
      case HzOutcome::Culled:
        ++ctr.quadsRemovedHz;
        return;
      case HzOutcome::Accepted:
        hz_accepted = true;
        break;
      case HzOutcome::Pass:
        break;
    }

    bool z_applied = false;

    // --- Early z & stencil -------------------------------------------
    if (info.earlyZ) {
        z_applied = true;
        if (!zStencilQuad(info, quad, live, hz_accepted, exec.zUnit,
                          ctr)) {
            ++ctr.quadsRemovedZStencil;
            push_rec();
            return;
        }
    }

    // --- Colour-mask shortcut ----------------------------------------
    // Quads whose colour writes are masked and whose shader has no side
    // effects skip shading entirely and are dropped at the colour stage
    // (the Doom3/Quake4 stencil-volume flow: high z overdraw, low
    // shading overdraw, large "Color Mask" removal share).
    if (info.colorMaskOff && !info.usesKill) {
        Vec4 dummy[4] = {};
        exec.colorUnit.writeQuad(call.state.blend, quad.x, quad.y, dummy,
                                 live);
        ++ctr.quadsRemovedColorMask;
        push_rec();
        return;
    }

    // --- Fragment shading --------------------------------------------
    ++ctr.shadedQuads;
    ctr.shadedFragments += static_cast<std::uint64_t>(std::popcount(live));

    shader::QuadState &qs = exec.quad;
    prepareQuadState(qs, call.fragmentProgram->decoded(), info.fpInputMask,
                     setup, quad, live);
    auto before = SamplerStatsDelta::capture(exec.interp, exec.sampler);
    exec.interp.runQuad(*call.fragmentProgram, qs, &exec);
    SamplerStatsDelta::capture(exec.interp, exec.sampler)
        .since(before)
        .chargeTo(ctr);

    // --- Alpha test (shader KIL, as in ATTILA) -----------------------
    for (int l = 0; l < 4; ++l) {
        if (qs.lanes[l].killed)
            live &= static_cast<std::uint8_t>(~(1u << l));
    }
    if (live == 0) {
        ++ctr.quadsRemovedAlpha;
        push_rec();
        return;
    }

    // --- Late z & stencil --------------------------------------------
    if (!z_applied) {
        if (!zStencilQuad(info, quad, live, false, exec.zUnit, ctr)) {
            ++ctr.quadsRemovedZStencil;
            push_rec();
            return;
        }
    }

    // --- Colour write / blend ----------------------------------------
    Vec4 colors[4];
    for (int l = 0; l < 4; ++l)
        colors[l] = qs.lanes[l].outputs[0];
    bool updated = exec.colorUnit.writeQuad(call.state.blend, quad.x,
                                            quad.y, colors, live);
    if (updated) {
        ++ctr.quadsBlended;
        ctr.blendedFragments +=
            static_cast<std::uint64_t>(std::popcount(live));
    } else {
        ++ctr.quadsRemovedColorMask;
    }
    push_rec();
}

void
GpuSimulator::mergeTileResults()
{
    WC3D_PROF_SCOPE("raster.merge");
    // Statistic shards are order-insensitive sums; fold them in
    // ascending slot order.
    for (auto &exec_ptr : _tileExec) {
        TileExec &exec = *exec_ptr;
        _counters.add(exec.counters);
        exec.counters = PipelineCounters{};
        _hz.mergeStats(exec.hzStats);
        exec.hzStats = raster::HzStats{};
    }

    // Replay the deferred cache accesses in reconstructed submission
    // order: primitives in draw order; within one primitive, its
    // per-tile record runs merged by traversal key (each run is already
    // ascending). The shared models and the memory controller therefore
    // see the exact sequential access stream, independent of thread
    // count and tile size.
    auto later = [](const MergeCursor &a, const MergeCursor &b) {
        return a.key > b.key; // min-heap on key
    };
    std::vector<MergeCursor> &cursors = _mergeCursors;

    for (std::size_t seq = 0; seq < _tiledTris.size(); ++seq) {
        const TiledTri &tt = _tiledTris[seq];
        cursors.clear();
        for (int ty = tt.ty0; ty <= tt.ty1; ++ty) {
            for (int tx = tt.tx0; tx <= tt.tx1; ++tx) {
                TileOutput &out = _tileOut[static_cast<std::size_t>(
                    _tileGrid.index(tx, ty))];
                // Bins were appended in this same order, so the tile's
                // next unconsumed run belongs to this primitive.
                TileOutput::TileRun run =
                    out.runs[static_cast<std::size_t>(out.cursor++)];
                if (run.recCount == 0)
                    continue;
                cursors.push_back({out.recs[run.recBegin].key,
                                   run.recBegin,
                                   run.recBegin + run.recCount, &out});
            }
        }
        if (cursors.empty())
            continue;
        if (cursors.size() == 1) {
            // The common case: the primitive only produced records in
            // one tile, already in traversal order.
            const MergeCursor &c = cursors.front();
            for (std::uint32_t r = c.rec; r < c.end; ++r)
                replayQuadRec(*c.out, r);
            continue;
        }
        std::make_heap(cursors.begin(), cursors.end(), later);
        while (!cursors.empty()) {
            std::pop_heap(cursors.begin(), cursors.end(), later);
            MergeCursor c = cursors.back();
            cursors.pop_back();
            replayQuadRec(*c.out, c.rec);
            if (++c.rec < c.end) {
                c.key = c.out->recs[c.rec].key;
                cursors.push_back(c);
                std::push_heap(cursors.begin(), cursors.end(), later);
            }
        }
    }

    for (std::uint32_t t : _activeTiles)
        _tileOut[t].clearDraw();
    _activeTiles.clear();
    _tiledTris.clear();
}

void
GpuSimulator::replayQuadRec(const TileOutput &out, std::size_t rec)
{
    const TileOutput::QuadRec &r = out.recs[rec];
    for (std::uint32_t i = 0; i < r.surfCount; ++i) {
        const TileOutput::SurfEvent &e = out.surf[r.surfBegin + i];
        frag::CachedSurface &surface = e.surface ? _color : _depth;
        if (e.kind == 2)
            surface.accessQuadNoFetch(e.x, e.y);
        else
            surface.accessQuad(e.x, e.y, e.kind == 1);
    }
    for (std::uint32_t i = 0; i < r.texCount; ++i) {
        const TileOutput::TexEvent &e = out.tex[r.texBegin + i];
        _texCache.access(e.vaddr, e.maddr, e.refs);
    }
}

GpuSimulator::HzOutcome
GpuSimulator::hzTestQuad(const QuadContextInfo &info,
                         const raster::QuadRef &quad,
                         raster::HzStats &hz_stats)
{
    if (!info.hzOk)
        return HzOutcome::Pass;
    const auto &ds = info.call->state.depthStencil;

    float zmin = 1.0f;
    float zmax = 0.0f;
    for (int l = 0; l < 4; ++l) {
        if (quad.covered(l)) {
            zmin = std::min(zmin, quad.z[l]);
            zmax = std::max(zmax, quad.z[l]);
        }
    }
    // Min/max HZ (extension): early-accept is only sound for plain
    // Less/LEqual depth states with no stencil side effects and an
    // early-z pipeline order.
    bool accept_ok =
        _config.hzMinMax && info.earlyZ && !ds.stencilTest &&
        (ds.depthFunc == frag::CompareFunc::Less ||
         ds.depthFunc == frag::CompareFunc::LEqual);
    if (accept_ok) {
        switch (_hz.testQuadRange(quad.x, quad.y, zmin, zmax, hz_stats)) {
          case raster::HzResult::Culled:
            return HzOutcome::Culled;
          case raster::HzResult::Accepted:
            return HzOutcome::Accepted;
          case raster::HzResult::Ambiguous:
            return HzOutcome::Pass;
        }
    }
    if (!_hz.testQuad(quad.x, quad.y, zmin, hz_stats))
        return HzOutcome::Culled;
    return HzOutcome::Pass;
}

bool
GpuSimulator::zStencilQuad(const QuadContextInfo &info,
                           const raster::QuadRef &quad,
                           std::uint8_t &mask, bool hz_accepted,
                           frag::ZStencilUnit &z_unit,
                           PipelineCounters &counters)
{
    const auto &ds = info.call->state.depthStencil;
    bool depth_writes = ds.depthTest && ds.depthWrite;

    ++counters.zStencilQuads;
    if (mask == 0xf)
        ++counters.zStencilFullQuads;
    counters.zStencilFragments +=
        static_cast<std::uint64_t>(std::popcount(mask));
    if (!info.zsEnabled)
        return true; // bypass: fragments flow through untested
    float quad_z_min = 1.0f;
    float quad_z_max = 0.0f;
    bool any;
    if (hz_accepted) {
        auto range = z_unit.acceptQuad(ds, quad.x, quad.y, quad.z, mask);
        quad_z_min = range.first;
        quad_z_max = range.second;
        any = mask != 0;
    } else {
        any = z_unit.testQuadEx(ds, info.backFace, quad.x, quad.y,
                                quad.z, mask, quad_z_min, quad_z_max);
    }
    if (depth_writes && _config.hzEnabled) {
        if (_config.hzMinMax) {
            _hz.updateQuadRange(quad.x, quad.y, quad_z_min, quad_z_max);
        } else {
            _hz.updateQuad(quad.x, quad.y, quad_z_max);
        }
    }
    return any;
}

void
GpuSimulator::endFrame()
{
    WC3D_PROF_SCOPE("gpu.endFrame");
    // Write back dirty framebuffer lines and scan the frame out.
    _depth.flushDirty();
    _color.flushDirty();
    _color.chargeFullReadback(memsys::Client::Dac);
    recordFrame();
    ++_frames;
}

PipelineCounters
GpuSimulator::counters() const
{
    PipelineCounters c = _counters;
    c.traffic = _memory.traffic();
    return c;
}

void
GpuSimulator::recordFrame()
{
    PipelineCounters now = counters();
    PipelineCounters f = now.since(_frameStart);
    _frameStart = now;

    _series.record("vcache_hit_rate", f.vertexCacheHitRate());
    _series.record("indices", static_cast<double>(f.indices));
    _series.record("assembled", static_cast<double>(f.trianglesAssembled));
    _series.record("traversed", static_cast<double>(f.trianglesTraversed));
    _series.record("tri_size_raster", f.avgTriangleSizeRaster());
    _series.record("tri_size_zst", f.avgTriangleSizeZStencil());
    _series.record("tri_size_shaded", f.avgTriangleSizeShaded());
    _series.record("frags_raster", static_cast<double>(f.rasterFragments));
    _series.record("frags_shaded", static_cast<double>(f.shadedFragments));
    _series.record("mem_bytes", static_cast<double>(f.traffic.total()));
    _series.record("mem_read_bytes",
                   static_cast<double>(f.traffic.totalRead()));
    _series.record("mem_write_bytes",
                   static_cast<double>(f.traffic.totalWrite()));
    _series.endFrame();
}

float
GpuSimulator::depthAt(int x, int y) const
{
    return frag::unpackDepth(_depth.word(x, y));
}

std::uint8_t
GpuSimulator::stencilAt(int x, int y) const
{
    return frag::unpackStencil(_depth.word(x, y));
}

} // namespace wc3d::gpu
