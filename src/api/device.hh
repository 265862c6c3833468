/**
 * @file
 * The graphics device: an API state machine that owns resources,
 * validates and applies the command stream, feeds the API statistics
 * collector, optionally records a trace and forwards resolved draw
 * calls to a sink (the GPU simulator, or nothing for API-only runs).
 */

#ifndef WC3D_API_DEVICE_HH
#define WC3D_API_DEVICE_HH

#include <memory>
#include <unordered_map>

#include "api/apistats.hh"
#include "api/commands.hh"
#include "texture/texture.hh"

namespace wc3d::api {

class TraceWriter;

/** A draw call with every referenced resource resolved. */
struct DrawCall
{
    const VertexBufferData *vertices = nullptr;
    const IndexBufferData *indexData = nullptr;
    std::uint32_t firstIndex = 0;
    std::uint32_t indexCount = 0;
    geom::PrimitiveType topology = geom::PrimitiveType::TriangleList;
    const shader::Program *vertexProgram = nullptr;
    const shader::Program *fragmentProgram = nullptr;
    RenderState state;
    const tex::Texture2D *textures[shader::kMaxSamplers] = {};
};

/** Receiver of device output (implemented by the GPU simulator). */
class DrawSink
{
  public:
    virtual ~DrawSink() = default;

    /** Resource-creation notifications (upload traffic, memory binding). */
    virtual void vertexBufferCreated(std::uint32_t, const VertexBufferData &)
    {}
    virtual void indexBufferCreated(std::uint32_t, const IndexBufferData &)
    {}
    virtual void textureCreated(std::uint32_t, tex::Texture2D &) {}
    virtual void programCreated(std::uint32_t, const shader::Program &) {}

    /** Rendering commands. */
    virtual void clear(const ClearCmd &) {}
    virtual void draw(const DrawCall &) {}
    virtual void endFrame() {}
};

/**
 * The device / context. Single-threaded: texture() builds texture
 * content on first lookup and is not safe to call concurrently.
 *
 * Texture content is generated only when something consumes it. With a
 * sink attached, CreateTexture builds the Texture2D at once, because
 * textureCreated() binds its memory. Without one, the Device records
 * the TextureSpec and texture() builds it on first lookup, so API-level
 * runs, which read no texel, never build one.
 */
class Device
{
  public:
    explicit Device(GraphicsApi apiKind = GraphicsApi::OpenGL);
    ~Device();

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    GraphicsApi apiKind() const { return _apiKind; }

    /** Attach the GPU (or other) sink; may be null. */
    void setSink(DrawSink *sink) { _sink = sink; }

    /** Attach a trace recorder; every submitted command is recorded. */
    void setRecorder(TraceWriter *recorder) { _recorder = recorder; }

    /** Apply one command (the single entry point for all callers). */
    void submit(const Command &cmd);

    /** @name Typed conveniences (build a Command and submit it) */
    /// @{
    std::uint32_t createVertexBuffer(VertexBufferData data);
    std::uint32_t createIndexBuffer(IndexBufferData data);
    /** @return 0 and warns when @p spec is invalid. */
    std::uint32_t createTexture(const TextureSpec &spec);
    /** @return 0 and warns when @p source fails to assemble. */
    std::uint32_t createProgram(shader::ProgramKind kind,
                                const std::string &source);
    void bindProgram(shader::ProgramKind kind, std::uint32_t id);
    void bindTexture(std::uint32_t unit, std::uint32_t id,
                     const tex::SamplerState &sampler);
    void setDepthStencil(const frag::DepthStencilState &state);
    void setBlend(const frag::BlendState &state);
    void setCullMode(geom::CullMode mode);
    void setConstant(shader::ProgramKind kind, std::uint32_t index,
                     Vec4 value);
    void clear(const ClearCmd &cmd = ClearCmd{});
    void draw(std::uint32_t vertex_buffer, std::uint32_t index_buffer,
              std::uint32_t first_index, std::uint32_t index_count,
              geom::PrimitiveType topology);
    void endFrame();
    /// @}

    ApiStats &stats() { return _stats; }
    const ApiStats &stats() const { return _stats; }

    const RenderState &currentState() const { return _current; }

    /** @name Resource lookups (null when unknown) */
    /// @{
    const VertexBufferData *vertexBuffer(std::uint32_t id) const;
    const IndexBufferData *indexBuffer(std::uint32_t id) const;
    /** Builds the texture from its spec on the first lookup. */
    const tex::Texture2D *texture(std::uint32_t id) const;
    const shader::Program *program(std::uint32_t id) const;
    /// @}

  private:
    /** A created texture: its spec, and its content once built. */
    struct TextureEntry
    {
        TextureSpec spec;
        mutable std::unique_ptr<tex::Texture2D> built;
    };

    void apply(const Command &cmd);
    shader::Program *mutableProgram(std::uint32_t id);
    static tex::Texture2D &build(std::uint32_t id,
                                 const TextureEntry &entry);

    GraphicsApi _apiKind;
    DrawSink *_sink = nullptr;
    TraceWriter *_recorder = nullptr;
    ApiStats _stats;
    RenderState _current;
    std::uint32_t _nextId = 1;

    std::unordered_map<std::uint32_t, VertexBufferData> _vertexBuffers;
    std::unordered_map<std::uint32_t, IndexBufferData> _indexBuffers;
    std::unordered_map<std::uint32_t, TextureEntry> _textures;
    std::unordered_map<std::uint32_t, std::unique_ptr<shader::Program>>
        _programs;
};

} // namespace wc3d::api

#endif // WC3D_API_DEVICE_HH
