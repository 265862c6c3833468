/**
 * @file
 * Binary API trace format: the GLInterceptor / PIX-player analogue.
 * A trace is the full command stream of a run — including resource
 * payloads — so it can be replayed bit-identically on a Device later
 * ("allowing to replay exactly the same input several times", [4]).
 *
 * Layout: 8-byte magic "WC3DTRC2", then a sequence of records, each a
 * 1-byte command tag, a 4-byte payload length, and the payload. All
 * integers are little-endian.
 *
 * Error model: neither side ever kills the process. The writer enters
 * a sticky error state on the first IO failure; the reader validates
 * every decoded field (enum ranges, size/count caps, record framing)
 * and reports the first problem as a TraceError carrying the byte
 * offset where it was detected. A clean end of file is not an error:
 * TraceReader::next() returns nullopt with atEnd() true and error()
 * empty. See DESIGN.md "Trace format & validation".
 */

#ifndef WC3D_API_TRACE_HH
#define WC3D_API_TRACE_HH

#include <cstdio>
#include <optional>
#include <string>

#include "api/commands.hh"

namespace wc3d::api {

class Device;

/** A structured trace IO/validation failure: where, and why. */
struct TraceError
{
    /** Byte offset into the trace file where the error was detected. */
    std::uint64_t offset = 0;
    /** Human-readable reason ("IndexType out of range: 7 > 1", ...). */
    std::string reason;

    /** "byte <offset>: <reason>" for diagnostics. */
    std::string describe() const;
};

/** @name Decoder hardening caps
 * Upper bounds the reader enforces before allocating or instantiating
 * anything; a corrupt or hostile trace is rejected with a TraceError
 * instead of over-allocating. Exposed for tests.
 */
/// @{
constexpr std::uint32_t kTraceMaxVertices = 1u << 28;
constexpr std::uint32_t kTraceMaxIndices = 1u << 28;
constexpr std::uint32_t kTraceMaxStringBytes = 1u << 24;
constexpr int kTraceMaxStrideFloats = 256;
constexpr int kTraceMaxAniso = 64;
/// @}

/**
 * Streams commands to a trace file. IO failures (open, short write,
 * failed flush) put the writer into a sticky error state instead of
 * aborting; once failed, further writes are no-ops returning false.
 */
class TraceWriter
{
  public:
    /** Open @p path for writing; check ok() afterwards. */
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** @return true while no IO error has occurred. */
    bool ok() const { return !_error.has_value(); }

    /** First IO failure, if any. */
    const std::optional<TraceError> &error() const { return _error; }

    /** Append one command. @return false when in the error state. */
    bool write(const Command &cmd);

    /** Commands written so far. */
    std::uint64_t commandsWritten() const { return _count; }

    /** Bytes successfully written so far (header + records). */
    std::uint64_t bytesWritten() const { return _offset; }

    /**
     * Flush and close (also done by the destructor).
     * @return true when every write and the final flush succeeded.
     */
    bool close();

  private:
    void fail(std::uint64_t offset, std::string reason);

    std::FILE *_file = nullptr;
    std::uint64_t _offset = 0; ///< bytes successfully written
    std::uint64_t _count = 0;
    std::optional<TraceError> _error;
};

/**
 * Reads commands back from a trace file, validating every decoded
 * field. Any malformed input — bad magic, unknown tag, truncated or
 * oversized record, out-of-range enum byte, impossible size/count —
 * stops the stream with a structured error() rather than crashing or
 * returning a half-decoded command.
 */
class TraceReader
{
  public:
    /** Open @p path; check ok() (header validated) afterwards. */
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** @return true while the stream has produced no error. */
    bool ok() const { return !_error.has_value(); }

    /** First validation/IO failure, if any. */
    const std::optional<TraceError> &error() const { return _error; }

    /** @return true once the file ended cleanly on a record boundary. */
    bool atEnd() const { return _atEnd; }

    /** Commands successfully decoded so far. */
    std::uint64_t commandsRead() const { return _count; }

    /**
     * Read the next command. nullopt at clean end of file (atEnd())
     * or on the first malformed record (error()).
     */
    std::optional<Command> next();

  private:
    void fail(std::uint64_t offset, std::string reason);

    std::FILE *_file = nullptr;
    std::uint64_t _pos = 0;      ///< current byte offset in the file
    std::uint64_t _fileSize = 0;
    std::uint64_t _count = 0;
    bool _atEnd = false;
    std::optional<TraceError> _error;
};

/**
 * Replay a whole trace into @p device, stopping at end of file or on
 * the first malformed record (check reader.error() afterwards).
 * @return number of commands replayed.
 */
std::uint64_t playTrace(TraceReader &reader, Device &device);

} // namespace wc3d::api

#endif // WC3D_API_TRACE_HH
