#include "serve/journal.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/faultio.hh"
#include "common/fs.hh"
#include "common/hash.hh"
#include "common/strutil.hh"

namespace wc3d::serve {

namespace {

constexpr char kJournalMagic[8] = {'W', 'C', '3', 'D',
                                   'J', 'R', 'N', '2'};
constexpr std::size_t kMagicBytes = sizeof(kJournalMagic);
constexpr std::size_t kFrameBytes = 4 + 8; ///< u32 length + u64 checksum
constexpr const char *kJournalFile = "journal.wc3djrn";

/** Record types (payload byte 0). */
enum : std::uint8_t
{
    kRecAccepted = 1,
    kRecRunning = 2,
    kRecDone = 3,
    kRecFailed = 4,
    kRecEvicted = 5,
    kRecBaseline = 6,
};
constexpr std::uint8_t kRecMax = kRecBaseline;

/** Little-endian appenders (the protocol Out idiom, minus framing). */
void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU32(std::string &out, std::uint32_t v)
{
    char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                 static_cast<char>(v >> 16),
                 static_cast<char>(v >> 24)};
    out.append(b, 4);
}

void
putU64(std::string &out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v));
    putU32(out, static_cast<std::uint32_t>(v >> 32));
}

void
putStr(std::string &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

/** Validating little-endian reader over one record payload; the
 *  first failure latches (the protocol Cursor idiom). */
struct PayloadReader
{
    const unsigned char *data = nullptr;
    std::size_t size = 0;
    std::size_t pos = 0;
    std::string error;

    bool failed() const { return !error.empty(); }
    std::size_t remaining() const { return size - pos; }

    void
    fail(std::string reason)
    {
        if (error.empty())
            error = std::move(reason);
    }

    bool
    take(void *p, std::size_t n)
    {
        if (failed())
            return false;
        if (n > remaining()) {
            fail(format("payload truncated: field needs %zu bytes, "
                        "%zu left",
                        n, remaining()));
            return false;
        }
        std::memcpy(p, data + pos, n);
        pos += n;
        return true;
    }

    std::uint8_t
    u8()
    {
        std::uint8_t v = 0;
        take(&v, 1);
        return v;
    }

    std::uint32_t
    u32()
    {
        unsigned char b[4] = {};
        if (!take(b, 4))
            return 0;
        return static_cast<std::uint32_t>(b[0]) |
               static_cast<std::uint32_t>(b[1]) << 8 |
               static_cast<std::uint32_t>(b[2]) << 16 |
               static_cast<std::uint32_t>(b[3]) << 24;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t lo = u32();
        std::uint64_t hi = u32();
        return lo | hi << 32;
    }

    std::string
    str(const char *what, std::uint32_t cap)
    {
        std::uint32_t n = u32();
        if (failed())
            return {};
        if (n > cap) {
            fail(format("%s length %u exceeds cap %u", what, n, cap));
            return {};
        }
        if (n > remaining()) {
            fail(format("%s claims %u bytes, payload has %zu left",
                        what, n, remaining()));
            return {};
        }
        std::string s(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
        return s;
    }
};

/** Frame @p payload into one on-disk record. */
std::string
frameRecord(const std::string &payload)
{
    std::string out;
    out.reserve(kFrameBytes + payload.size());
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    putU64(out, fnv1a64(payload.data(), payload.size()));
    out.append(payload);
    return out;
}

std::string
encodeAccepted(std::uint64_t id, const JobSpec &spec,
               std::uint64_t submitted_at_ms)
{
    std::string payload;
    putU8(payload, kRecAccepted);
    putU64(payload, id);
    putU64(payload, submitted_at_ms);
    appendJobSpec(payload, spec);
    return payload;
}

std::string
encodeRunning(std::uint64_t id, int attempt)
{
    std::string payload;
    putU8(payload, kRecRunning);
    putU64(payload, id);
    putU8(payload, static_cast<std::uint8_t>(
                       std::clamp(attempt, 0, 255)));
    return payload;
}

std::string
encodeDone(std::uint64_t id, int attempts, bool from_cache,
           std::uint64_t latency_ms)
{
    std::string payload;
    putU8(payload, kRecDone);
    putU64(payload, id);
    putU8(payload, static_cast<std::uint8_t>(
                       std::clamp(attempts, 0, 255)));
    putU8(payload, from_cache ? 1 : 0);
    putU64(payload, latency_ms);
    return payload;
}

std::string
encodeFailed(std::uint64_t id, int attempts, std::uint64_t latency_ms,
             const std::string &reason)
{
    std::string payload;
    putU8(payload, kRecFailed);
    putU64(payload, id);
    putU8(payload, static_cast<std::uint8_t>(
                       std::clamp(attempts, 0, 255)));
    putU64(payload, latency_ms);
    putStr(payload, reason.size() > kJournalMaxReasonBytes
                        ? reason.substr(0, kJournalMaxReasonBytes)
                        : reason);
    return payload;
}

std::string
encodeEvicted(std::uint64_t id)
{
    std::string payload;
    putU8(payload, kRecEvicted);
    putU64(payload, id);
    return payload;
}

std::string
encodeBaseline(std::uint64_t done, std::uint64_t failed,
               std::uint64_t evicted, std::uint64_t retries)
{
    std::string payload;
    putU8(payload, kRecBaseline);
    putU64(payload, done);
    putU64(payload, failed);
    putU64(payload, evicted);
    putU64(payload, retries);
    return payload;
}

bool
readWholeFile(const std::string &path, std::string &out)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return errno == ENOENT; // absent = empty journal, fine
    out.clear();
    char buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return true;
}

} // namespace

std::string
JournalError::describe() const
{
    return format("journal offset %llu: %s",
                  static_cast<unsigned long long>(offset),
                  reason.c_str());
}

std::size_t
JournalRecovery::liveCount() const
{
    std::size_t n = 0;
    for (const JournalJob &job : jobs)
        n += job.state == JobState::Queued;
    return n;
}

std::size_t
JournalRecovery::terminalCount() const
{
    return jobs.size() - liveCount();
}

bool
Journal::replay(const std::string &content, JournalRecovery *out)
{
    *out = JournalRecovery();
    if (content.empty())
        return true; // a journal that never existed recovers nothing

    const auto *data =
        reinterpret_cast<const unsigned char *>(content.data());
    std::size_t size = content.size();

    if (size < kMagicBytes ||
        std::memcmp(data, kJournalMagic, kMagicBytes) != 0) {
        out->truncated = true;
        out->truncation = {0, "bad journal magic (want WC3DJRN2)"};
        return false;
    }

    // id -> index into out->jobs; replay applies each well-formed
    // record at most once and never lets a later record move a job
    // out of a terminal state.
    std::vector<std::uint64_t> ids;
    auto findJob = [&](std::uint64_t id) -> JournalJob * {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (ids[i] == id)
                return &out->jobs[i];
        }
        return nullptr;
    };
    auto terminal = [](const JournalJob &job) {
        return job.state == JobState::Done ||
               job.state == JobState::Failed;
    };

    std::size_t pos = kMagicBytes;
    while (pos < size) {
        std::uint64_t offset = pos;
        auto tear = [&](std::string reason) {
            out->truncated = true;
            out->truncation = {offset, std::move(reason)};
        };
        if (size - pos < kFrameBytes) {
            tear(format("torn record header: %zu byte(s) at end of "
                        "file",
                        size - pos));
            return true;
        }
        PayloadReader hdr{data + pos, kFrameBytes, 0, {}};
        std::uint32_t len = hdr.u32();
        std::uint64_t sum = hdr.u64();
        if (len < 1 || len > kJournalMaxPayload) {
            tear(format("record length %u out of range (1..%u)", len,
                        kJournalMaxPayload));
            return true;
        }
        if (size - pos - kFrameBytes < len) {
            tear(format("torn record payload: %u byte(s) claimed, "
                        "%zu left",
                        len, size - pos - kFrameBytes));
            return true;
        }
        const unsigned char *payload = data + pos + kFrameBytes;
        if (fnv1a64(payload, len) != sum) {
            tear("record checksum mismatch");
            return true;
        }

        PayloadReader in{payload, len, 0, {}};
        std::uint8_t type = in.u8();
        if (type < kRecAccepted || type > kRecMax) {
            tear(format("unknown record type %u", type));
            return true;
        }

        bool anomaly = false;
        switch (type) {
        case kRecAccepted: {
            std::uint64_t id = in.u64();
            std::uint64_t submitted = in.u64();
            std::size_t specPos = in.pos;
            std::string specError;
            auto spec = parseJobSpec(in.data, in.size, &specPos,
                                     &specError);
            if (!spec) {
                in.fail("job spec: " + specError);
                break;
            }
            in.pos = specPos;
            if (in.failed())
                break;
            if (id == 0) {
                in.fail("accepted record with job id 0");
                break;
            }
            if (findJob(id)) {
                anomaly = true; // duplicate accept — keep the first
                break;
            }
            JournalJob job;
            job.id = id;
            job.spec = *spec;
            job.submittedAtMs = submitted;
            out->jobs.push_back(std::move(job));
            ids.push_back(id);
            break;
        }
        case kRecRunning: {
            std::uint64_t id = in.u64();
            int attempt = in.u8();
            if (in.failed())
                break;
            JournalJob *job = findJob(id);
            if (!job || terminal(*job)) {
                // Unknown id, or a transition on a job already
                // terminal: never resurrect, never obey.
                anomaly = true;
                break;
            }
            job->attempts = std::max(job->attempts, attempt);
            break;
        }
        case kRecDone: {
            std::uint64_t id = in.u64();
            int attempts = in.u8();
            std::uint8_t fromCache = in.u8();
            std::uint64_t latency = in.u64();
            if (in.failed())
                break;
            if (fromCache > 1) {
                in.fail(format("fromCache is not a bool byte: %u",
                               fromCache));
                break;
            }
            JournalJob *job = findJob(id);
            if (!job || terminal(*job)) {
                anomaly = true; // no duplicate terminal states
                break;
            }
            job->state = JobState::Done;
            job->attempts = std::max(job->attempts, attempts);
            job->fromCache = fromCache;
            job->latencyMs = latency;
            break;
        }
        case kRecFailed: {
            std::uint64_t id = in.u64();
            int attempts = in.u8();
            std::uint64_t latency = in.u64();
            std::string reason = in.str("failure reason",
                                        kServeMaxStringBytes);
            if (in.failed())
                break;
            JournalJob *job = findJob(id);
            if (!job || terminal(*job)) {
                anomaly = true; // no duplicate terminal states
                break;
            }
            job->state = JobState::Failed;
            job->attempts = std::max(job->attempts, attempts);
            job->failReason = std::move(reason);
            job->latencyMs = latency;
            break;
        }
        case kRecEvicted: {
            std::uint64_t id = in.u64();
            if (in.failed())
                break;
            JournalJob *job = findJob(id);
            if (!job || !terminal(*job)) {
                anomaly = true; // only terminal jobs age out
                break;
            }
            job->evicted = true;
            break;
        }
        case kRecBaseline: {
            std::uint64_t done = in.u64();
            std::uint64_t failed = in.u64();
            std::uint64_t evicted = in.u64();
            std::uint64_t retries = in.u64();
            if (in.failed())
                break;
            out->baseDone = done;
            out->baseFailed = failed;
            out->baseEvicted = evicted;
            out->baseRetries = retries;
            break;
        }
        }

        if (in.failed()) {
            tear(in.error);
            return true;
        }
        if (in.pos != len) {
            tear(format("record payload has %zu trailing byte(s)",
                        len - in.pos));
            return true;
        }
        ++out->records;
        out->anomalies += anomaly;
        pos += kFrameBytes + len;
    }
    return true;
}

Journal::~Journal()
{
    close();
}

void
Journal::noteError(std::uint64_t offset, std::string reason)
{
    _lastError = JournalError{offset, std::move(reason)};
}

bool
Journal::open(const std::string &dir, JournalRecovery *recovery)
{
    close();
    _lastError.reset();
    _dir = dir;
    _path = dir + "/" + kJournalFile;

    if (!makeDirs(dir)) {
        noteError(0, format("cannot create journal dir '%s'",
                            dir.c_str()));
        return false;
    }

    std::string content;
    if (!readWholeFile(_path, content)) {
        noteError(0, format("cannot read '%s': %s", _path.c_str(),
                            std::strerror(errno)));
        return false;
    }

    JournalRecovery local;
    JournalRecovery *rec = recovery ? recovery : &local;
    if (!Journal::replay(content, rec)) {
        // Wrong magic: this is not (any prefix of) a journal we
        // wrote. Refuse to touch it — the operator pointed the
        // daemon at the wrong directory.
        noteError(rec->truncation.offset,
                  format("'%s': %s", _path.c_str(),
                         rec->truncation.reason.c_str()));
        return false;
    }

    std::uint64_t keep = content.empty()
                             ? 0
                             : (rec->truncated ? rec->truncation.offset
                                               : content.size());

    if (content.empty()) {
        // Fresh journal: write the magic durably before any record.
        std::string error;
        if (!atomicWriteFile(_path,
                             std::string(kJournalMagic, kMagicBytes),
                             &error)) {
            noteError(0, error);
            return false;
        }
        keep = kMagicBytes;
    } else if (rec->truncated) {
        // Torn tail: drop it so the next replay sees a clean log.
        if (::truncate(_path.c_str(),
                       static_cast<off_t>(keep)) != 0) {
            noteError(keep,
                      format("cannot truncate torn tail of '%s': %s",
                             _path.c_str(), std::strerror(errno)));
            return false;
        }
    }

    _fd = ::open(_path.c_str(), O_WRONLY | O_APPEND);
    if (_fd < 0) {
        noteError(0, format("cannot open '%s' for append: %s",
                            _path.c_str(), std::strerror(errno)));
        return false;
    }
    _fileBytes = keep;
    _snapshotBytes = keep;
    return true;
}

bool
Journal::appendRecord(const std::string &payload)
{
    if (_fd < 0) {
        noteError(_fileBytes, "journal is not open");
        return false;
    }
    std::string frame = frameRecord(payload);
    faultio::IoError io;
    if (!faultio::writeAll(_fd, frame.data(), frame.size(), _path,
                           &io) ||
        !faultio::syncFd(_fd, _path, &io)) {
        noteError(_fileBytes, io.describe());
        return false;
    }
    _fileBytes += frame.size();
    ++_appends;
    return true;
}

bool
Journal::appendAccepted(std::uint64_t id, const JobSpec &spec,
                        std::uint64_t submitted_at_ms)
{
    return appendRecord(encodeAccepted(id, spec, submitted_at_ms));
}

bool
Journal::appendRunning(std::uint64_t id, int attempt)
{
    return appendRecord(encodeRunning(id, attempt));
}

bool
Journal::appendDone(std::uint64_t id, int attempts, bool from_cache,
                    std::uint64_t latency_ms)
{
    return appendRecord(
        encodeDone(id, attempts, from_cache, latency_ms));
}

bool
Journal::appendFailed(std::uint64_t id, int attempts,
                      std::uint64_t latency_ms,
                      const std::string &reason)
{
    return appendRecord(encodeFailed(id, attempts, latency_ms, reason));
}

bool
Journal::appendEvicted(std::uint64_t id)
{
    return appendRecord(encodeEvicted(id));
}

bool
Journal::wantsCompact() const
{
    return _fd >= 0 && _fileBytes > _snapshotBytes &&
           _fileBytes - _snapshotBytes > _compactThreshold;
}

void
Journal::setCompactThreshold(std::uint64_t bytes)
{
    _compactThreshold = bytes;
}

bool
Journal::compact(const JobQueue &queue)
{
    if (_path.empty()) {
        noteError(0, "journal is not open");
        return false;
    }

    std::string image(kJournalMagic, kMagicBytes);

    // Counter baseline: terminal history whose jobs are no longer
    // individually encoded. The archived jobs below re-encode their
    // own done/failed/retry contributions, so subtract them out.
    auto jobRetries = [](const Job &job) -> std::uint64_t {
        return job.attempts > 1
                   ? static_cast<std::uint64_t>(job.attempts - 1)
                   : 0;
    };
    std::vector<const Job *> archived = queue.terminalJobs();
    std::vector<const Job *> live = queue.liveJobs();
    std::uint64_t archDone = 0;
    std::uint64_t archFailed = 0;
    std::uint64_t encodedRetries = 0;
    for (const Job *job : archived) {
        archDone += job->state == JobState::Done;
        archFailed += job->state == JobState::Failed;
        encodedRetries += jobRetries(*job);
    }
    for (const Job *job : live)
        encodedRetries += jobRetries(*job);
    auto sub = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : 0;
    };
    image += frameRecord(encodeBaseline(
        sub(queue.doneCount(), archDone),
        sub(queue.failedCount(), archFailed), queue.terminalEvicted(),
        sub(queue.retryCount(), encodedRetries)));

    for (const Job *job : archived) {
        image += frameRecord(encodeAccepted(job->id, job->spec,
                                            job->submittedAtMs));
        if (job->attempts > 0)
            image += frameRecord(encodeRunning(job->id, job->attempts));
        if (job->state == JobState::Done) {
            image += frameRecord(encodeDone(job->id, job->attempts,
                                            false, job->latencyMs));
        } else {
            image += frameRecord(
                encodeFailed(job->id, job->attempts, job->latencyMs,
                             job->failReason));
        }
    }
    for (const Job *job : live) {
        image += frameRecord(encodeAccepted(job->id, job->spec,
                                            job->submittedAtMs));
        if (job->attempts > 0)
            image += frameRecord(encodeRunning(job->id, job->attempts));
    }

    // Swap the snapshot in atomically, then reopen the append fd on
    // the new file (the old fd points at the unlinked inode).
    std::string error;
    if (!atomicWriteFile(_path, image, &error)) {
        noteError(_fileBytes, "compaction: " + error);
        return false;
    }
    int fd = ::open(_path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) {
        noteError(0, format("cannot reopen '%s' after compaction: %s",
                            _path.c_str(), std::strerror(errno)));
        close();
        return false;
    }
    if (_fd >= 0)
        ::close(_fd);
    _fd = fd;
    _fileBytes = image.size();
    _snapshotBytes = image.size();
    ++_compactions;
    return true;
}

void
Journal::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

void
Journal::removeFile()
{
    close();
    if (!_path.empty())
        ::unlink(_path.c_str());
}

} // namespace wc3d::serve
