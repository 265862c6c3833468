/**
 * @file
 * One cold execution of a wc3d-bench workload, driven only through the
 * simulator's public entry points (Timedemo, Device, the trace codec,
 * GpuSimulator, encodeMicroRun, ThreadPool). run.py starts one process
 * per repetition and reads the JSON document this program writes.
 *
 *   wc3d-bench-run gpu <timedemo-id> --seed N --threads T
 *                  --width W --height H --frames LIST --out PATH [--layers]
 *   wc3d-bench-run api-trace --seed N --threads T --frames LIST
 *                  --trace-dir DIR --out PATH [--layers]
 *
 * gpu renders one timedemo through the GPU simulator. api-trace runs
 * all twelve timedemos without a GPU sink, recording each to a trace
 * that is replayed into a fresh Device; the replayed ApiStats must
 * equal the live ones. LIST is the comma-separated frame indices
 * rendered after setup, in order. --seed N offsets every game's
 * shipped GameProfile::seed by N (0 = the shipped seeds).
 *
 * --layers selects the traced configuration: the simulator sits behind
 * a forwarding sink that times each DrawSink call, and api-trace also
 * times the trace writer alone on the recorded command stream. Span
 * folding (WC3D_TRACE_OUT) is set up by the caller's environment.
 *
 * The "stats" blocks carry every simulated statistic as "key=value"
 * lines followed by "series-csv:" and the per-frame CSV; run.py turns
 * them into the digest it checks. Exit status is 0 when the document
 * was written; failures inside the workload (trace errors, replay
 * divergence) are reported in it as "error".
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "api/apistats.hh"
#include "api/device.hh"
#include "api/trace.hh"
#include "common/json.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "core/runner.hh"
#include "gpu/simulator.hh"
#include "workloads/games.hh"
#include "workloads/timedemo.hh"

using namespace wc3d;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Forwards every DrawSink call to the simulator, timing each kind. */
class TimingSink : public api::DrawSink
{
  public:
    explicit TimingSink(api::DrawSink &inner) : _inner(inner) {}

    void
    vertexBufferCreated(std::uint32_t id,
                        const api::VertexBufferData &data) override
    {
        auto t = Clock::now();
        _inner.vertexBufferCreated(id, data);
        resourceS += since(t);
    }

    void
    indexBufferCreated(std::uint32_t id,
                       const api::IndexBufferData &data) override
    {
        auto t = Clock::now();
        _inner.indexBufferCreated(id, data);
        resourceS += since(t);
    }

    void
    textureCreated(std::uint32_t id, tex::Texture2D &texture) override
    {
        auto t = Clock::now();
        _inner.textureCreated(id, texture);
        resourceS += since(t);
    }

    void
    programCreated(std::uint32_t id, const shader::Program &program) override
    {
        auto t = Clock::now();
        _inner.programCreated(id, program);
        resourceS += since(t);
    }

    void
    clear(const api::ClearCmd &cmd) override
    {
        auto t = Clock::now();
        _inner.clear(cmd);
        clearS += since(t);
    }

    void
    draw(const api::DrawCall &call) override
    {
        auto t = Clock::now();
        _inner.draw(call);
        drawS += since(t);
    }

    void
    endFrame() override
    {
        auto t = Clock::now();
        _inner.endFrame();
        endFrameS += since(t);
    }

    double total() const { return resourceS + clearS + drawS + endFrameS; }

    double resourceS = 0.0;
    double clearS = 0.0;
    double drawS = 0.0;
    double endFrameS = 0.0;

  private:
    api::DrawSink &_inner;
};

struct Options
{
    std::string mode;
    std::string demo;
    std::uint64_t seed = 0;
    int threads = 1;
    int width = 512;
    int height = 384;
    std::vector<int> schedule;
    std::string traceDir;
    std::string out;
    bool layers = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "wc3d-bench-run: %s\n"
                 "usage: wc3d-bench-run gpu <timedemo-id> --seed N "
                 "--threads T --width W --height H --frames LIST "
                 "--out PATH [--layers]\n"
                 "       wc3d-bench-run api-trace --seed N --threads T "
                 "--frames LIST --trace-dir DIR --out PATH [--layers]\n",
                 why.c_str());
    std::exit(2);
}

long long
parseInt(const std::string &flag, const std::string &text, long long lo,
         long long hi)
{
    char *end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || v < lo || v > hi)
        usage(format("%s expects an integer in [%lld, %lld], got '%s'",
                     flag.c_str(), lo, hi, text.c_str()));
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    int i = 1;
    if (i >= argc)
        usage("missing mode");
    o.mode = argv[i++];
    if (o.mode == "gpu") {
        if (i >= argc)
            usage("gpu needs a timedemo id");
        o.demo = argv[i++];
        if (!workloads::isTimedemoId(o.demo))
            usage("unknown timedemo id '" + o.demo + "'");
    } else if (o.mode != "api-trace") {
        usage("unknown mode '" + o.mode + "'");
    }
    for (; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--layers") {
            o.layers = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        std::string value = argv[++i];
        if (flag == "--seed")
            o.seed = static_cast<std::uint64_t>(
                parseInt(flag, value, 0, 1ll << 40));
        else if (flag == "--threads")
            o.threads = static_cast<int>(parseInt(flag, value, 1, 256));
        else if (flag == "--width")
            o.width = static_cast<int>(parseInt(flag, value, 16, 4096));
        else if (flag == "--height")
            o.height = static_cast<int>(parseInt(flag, value, 16, 4096));
        else if (flag == "--frames") {
            o.schedule.clear();
            for (const std::string &f : split(value, ','))
                o.schedule.push_back(
                    static_cast<int>(parseInt(flag, f, 0, 1000000)));
        }
        else if (flag == "--trace-dir")
            o.traceDir = value;
        else if (flag == "--out")
            o.out = value;
        else
            usage("unknown flag " + flag);
    }
    if (o.out.empty())
        usage("--out is required");
    if (o.schedule.empty())
        usage("--frames is required");
    if (o.mode == "api-trace" && o.traceDir.empty())
        usage("api-trace needs --trace-dir");
    return o;
}

workloads::GameProfile
seededProfile(const std::string &id, std::uint64_t seed)
{
    workloads::GameProfile p = workloads::gameProfile(id);
    p.seed += seed;
    return p;
}

json::Value
statsBlock(const std::string &name, const std::string &text)
{
    json::Value b = json::Value::object();
    b.set("name", json::Value::str(name));
    b.set("text", json::Value::str(text));
    return b;
}

/** Every ApiStats aggregate and series, in the encodeMicroRun layout. */
std::string
apiStatsText(const api::ApiStats &s)
{
    auto u = [](std::uint64_t v) {
        return format("%llu", static_cast<unsigned long long>(v));
    };
    auto d = [](double v) { return format("%.17g", v); };
    const geom::PrimitiveType kTypes[] = {
        geom::PrimitiveType::TriangleList,
        geom::PrimitiveType::TriangleStrip,
        geom::PrimitiveType::TriangleFan,
    };
    std::string out;
    out += "frames=" + u(s.frames()) + "\n";
    out += "batches=" + u(s.batches()) + "\n";
    out += "indices=" + u(s.indices()) + "\n";
    out += "indexBytes=" + u(s.indexBytes()) + "\n";
    out += "stateCalls=" + u(s.stateCalls()) + "\n";
    out += "primitives=" + u(s.primitives()) + "\n";
    for (auto t : kTypes) {
        out += format("primitives.%d=", static_cast<int>(t)) +
               u(s.primitivesOfType(t)) + "\n";
        out += format("primitiveSharePct.%d=", static_cast<int>(t)) +
               d(s.primitiveSharePct(t)) + "\n";
    }
    out += "avgIndicesPerBatch=" + d(s.avgIndicesPerBatch()) + "\n";
    out += "avgIndicesPerFrame=" + d(s.avgIndicesPerFrame()) + "\n";
    out += "avgPrimitivesPerFrame=" + d(s.avgPrimitivesPerFrame()) + "\n";
    out += "avgBatchesPerFrame=" + d(s.avgBatchesPerFrame()) + "\n";
    out += "avgStateCallsPerFrame=" + d(s.avgStateCallsPerFrame()) + "\n";
    out += "avgIndexBytesPerFrame=" + d(s.avgIndexBytesPerFrame()) + "\n";
    out += "indexBwAt100fps=" + d(s.indexBwAtFps(100.0)) + "\n";
    out += "avgVertexShaderInstructions=" +
           d(s.avgVertexShaderInstructions()) + "\n";
    out += "avgFragmentInstructions=" + d(s.avgFragmentInstructions()) +
           "\n";
    out += "avgFragmentTexInstructions=" +
           d(s.avgFragmentTexInstructions()) + "\n";
    out += "aluToTexRatio=" + d(s.aluToTexRatio()) + "\n";
    out += "series-csv:\n";
    out += s.series().toCsv();
    out += "#end\n";
    return out;
}

/** Host time of a closed loop over the scheduled frames. */
struct FrameLoop
{
    double renderS = 0.0; ///< summed over the renderFrame() calls
    double loopS = 0.0;   ///< the whole loop, timed around it
};

FrameLoop
renderFrames(workloads::Timedemo &demo, api::Device &device,
             const std::vector<int> &schedule)
{
    FrameLoop out;
    auto loop = Clock::now();
    for (int frame : schedule) {
        auto t = Clock::now();
        demo.renderFrame(device, frame);
        out.renderS += since(t);
    }
    out.loopS = since(loop);
    return out;
}

json::Value
runGpu(const Options &o)
{
    json::Value doc = json::Value::object();
    auto start = Clock::now();

    workloads::GameProfile profile = seededProfile(o.demo, o.seed);
    gpu::GpuConfig config;
    config.width = o.width;
    config.height = o.height;
    gpu::GpuSimulator sim(config);
    TimingSink timing(sim);
    api::Device device(profile.apiKind);
    device.setSink(o.layers ? static_cast<api::DrawSink *>(&timing)
                            : &sim);
    workloads::Timedemo demo(profile);

    auto t = Clock::now();
    demo.setup(device);
    double setup_s = since(t);

    double sink_before = timing.total();
    FrameLoop loop = renderFrames(demo, device, o.schedule);
    double sink_frames_s = timing.total() - sink_before;

    core::MicroRun run;
    run.id = profile.id;
    run.frames = static_cast<int>(o.schedule.size());
    run.width = o.width;
    run.height = o.height;
    run.counters = sim.counters();
    run.zCache = sim.zCacheStats();
    run.colorCache = sim.colorCacheStats();
    run.texL0 = sim.texL0Stats();
    run.texL1 = sim.texL1Stats();
    run.series = sim.frameSeries();
    std::string text = core::encodeMicroRun(run);
    double wall_s = since(start);

    const gpu::PipelineCounters &c = run.counters;
    doc.set("wall_s", json::Value::number(wall_s));
    doc.set("setup_s", json::Value::number(setup_s));
    doc.set("frame_loop_s", json::Value::number(loop.loopS));
    doc.set("frames", json::Value::number(run.frames));
    doc.set("events", json::Value::number(c.rasterQuads));

    json::Value layers = json::Value::object();
    auto set = [&layers](const char *k, json::Value v) {
        layers.set(k, std::move(v));
    };
    if (o.layers) {
        set("render_s", json::Value::number(loop.renderS));
        set("sink_frames_s", json::Value::number(sink_frames_s));
        set("gpu.resource_s", json::Value::number(timing.resourceS));
        set("gpu.draw_s", json::Value::number(timing.drawS));
        set("gpu.clear_s", json::Value::number(timing.clearS));
        set("gpu.endframe_s", json::Value::number(timing.endFrameS));
    }
    set("api.draws", json::Value::number(device.stats().batches()));
    set("api.state_calls",
        json::Value::number(device.stats().stateCalls()));
    set("geom.vertices_shaded", json::Value::number(c.vertexCacheMisses));
    set("geom.triangles_traversed",
        json::Value::number(c.trianglesTraversed));
    set("raster.quads", json::Value::number(c.rasterQuads));
    set("raster.hz_quads_removed", json::Value::number(c.quadsRemovedHz));
    set("fragment.zst_quads", json::Value::number(c.zStencilQuads));
    set("fragment.blended_fragments",
        json::Value::number(c.blendedFragments));
    set("shader.fragments_shaded", json::Value::number(c.shadedFragments));
    set("shader.fs_instructions",
        json::Value::number(c.fragmentInstructions));
    set("texture.requests", json::Value::number(c.textureRequests));
    set("texture.bilinears", json::Value::number(c.bilinearSamples));
    auto cache = [&set](const char *acc, const char *hit,
                        const memsys::CacheStats &s) {
        set(acc, json::Value::number(s.accesses));
        set(hit, json::Value::number(s.hits));
    };
    cache("texture.l0_accesses", "texture.l0_hits", run.texL0);
    cache("texture.l1_accesses", "texture.l1_hits", run.texL1);
    cache("memory.zcache_accesses", "memory.zcache_hits", run.zCache);
    cache("memory.ccache_accesses", "memory.ccache_hits", run.colorCache);
    set("memory.traffic_bytes", json::Value::number(c.traffic.total()));
    doc.set("layers", std::move(layers));

    json::Value stats = json::Value::array();
    stats.push(statsBlock("", text));
    doc.set("stats", std::move(stats));
    return doc;
}

json::Value
runApiTrace(const Options &o)
{
    json::Value doc = json::Value::object();
    json::Value stats = json::Value::array();
    std::string error;
    double setup_s = 0.0, render_s = 0.0, loop_s = 0.0, replay_s = 0.0;
    double record_s = 0.0, layers_s = 0.0;
    std::uint64_t draws = 0, state_calls = 0, commands = 0;
    std::uint64_t frame_commands = 0, trace_bytes = 0;
    int frames = 0;
    auto start = Clock::now();

    for (const std::string &id : workloads::allTimedemoIds()) {
        workloads::GameProfile profile = seededProfile(id, o.seed);
        std::string path = o.traceDir + "/";
        for (char ch : id)
            path += (ch == '/' ? '_' : ch);
        path += ".wc3dtrc";

        // Live: generate and record.
        api::Device live(profile.apiKind);
        api::TraceWriter writer(path);
        if (!writer.ok()) {
            error = id + ": trace write: " + writer.error()->describe();
            break;
        }
        live.setRecorder(&writer);
        workloads::Timedemo demo(profile);
        auto t = Clock::now();
        demo.setup(live);
        setup_s += since(t);
        std::uint64_t setup_commands = writer.commandsWritten();
        FrameLoop loop = renderFrames(demo, live, o.schedule);
        render_s += loop.renderS;
        loop_s += loop.loopS;
        frames += static_cast<int>(o.schedule.size());
        frame_commands += writer.commandsWritten() - setup_commands;
        live.setRecorder(nullptr);
        if (!writer.close()) {
            error = id + ": trace write: " + writer.error()->describe();
            break;
        }
        commands += writer.commandsWritten();
        trace_bytes += writer.bytesWritten();

        // Replay into a fresh device.
        t = Clock::now();
        api::Device replayed(profile.apiKind);
        std::uint64_t replayed_commands;
        {
            api::TraceReader reader(path);
            replayed_commands = api::playTrace(reader, replayed);
            if (reader.error()) {
                error = id + ": trace read: " + reader.error()->describe();
                break;
            }
        }
        replay_s += since(t);

        std::string live_text = apiStatsText(live.stats());
        std::string replay_text = apiStatsText(replayed.stats());
        if (replayed_commands != writer.commandsWritten()) {
            error = format("%s: replayed %llu of %llu commands", id.c_str(),
                           static_cast<unsigned long long>(
                               replayed_commands),
                           static_cast<unsigned long long>(
                               writer.commandsWritten()));
            break;
        }
        if (live_text != replay_text) {
            auto a = split(live_text, '\n'), b = split(replay_text, '\n');
            std::size_t k = 0;
            while (k < a.size() && k < b.size() && a[k] == b[k])
                ++k;
            error = id + ": replay diverges at '" +
                    (k < a.size() ? a[k] : std::string("<end>")) +
                    "' vs '" +
                    (k < b.size() ? b[k] : std::string("<end>")) + "'";
            break;
        }
        draws += live.stats().batches();
        state_calls += live.stats().stateCalls();
        stats.push(statsBlock(id + ".", live_text));

        if (o.layers) {
            // The writer alone, on the recorded command stream; kept out
            // of wall_s so traced and plain runs time the same work.
            auto extra = Clock::now();
            std::vector<api::Command> cmds;
            {
                api::TraceReader reader(path);
                while (auto cmd = reader.next())
                    cmds.push_back(std::move(*cmd));
            }
            std::string copy = path + ".copy";
            t = Clock::now();
            {
                api::TraceWriter w(copy);
                for (const api::Command &cmd : cmds)
                    w.write(cmd);
                if (!w.close())
                    error = id + ": trace write: " + w.error()->describe();
            }
            record_s += since(t);
            std::remove(copy.c_str());
            layers_s += since(extra);
        }
        std::remove(path.c_str());
        if (!error.empty())
            break;
    }
    double wall_s = since(start) - layers_s;

    doc.set("wall_s", json::Value::number(wall_s));
    doc.set("setup_s", json::Value::number(setup_s));
    doc.set("frame_loop_s", json::Value::number(loop_s));
    doc.set("frames", json::Value::number(frames));
    doc.set("events", json::Value::number(frame_commands));
    json::Value layers = json::Value::object();
    if (o.layers) {
        layers.set("render_s", json::Value::number(render_s));
        layers.set("sink_frames_s", json::Value::number(0.0));
        layers.set("api.trace_record_s", json::Value::number(record_s));
        layers.set("api.trace_replay_s", json::Value::number(replay_s));
    }
    layers.set("api.draws", json::Value::number(draws));
    layers.set("api.state_calls", json::Value::number(state_calls));
    layers.set("api.commands", json::Value::number(commands));
    layers.set("api.trace_bytes", json::Value::number(trace_bytes));
    doc.set("layers", std::move(layers));
    doc.set("stats", std::move(stats));
    if (!error.empty())
        doc.set("error", json::Value::str(error));
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    ThreadPool::setGlobalThreads(o.threads);
    json::Value doc;
    try {
        doc = o.mode == "gpu" ? runGpu(o) : runApiTrace(o);
    } catch (const std::exception &e) {
        doc = json::Value::object();
        doc.set("error", json::Value::str(std::string("exception: ") +
                                          e.what()));
    }
    doc.set("threads", json::Value::number(ThreadPool::global().threads()));
    std::string error;
    if (!json::writeFileAtomic(o.out, doc.serialize(), &error)) {
        std::fprintf(stderr, "wc3d-bench-run: %s\n", error.c_str());
        return 1;
    }
    return 0;
}
