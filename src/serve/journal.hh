/**
 * @file
 * Durable write-ahead journal for the serve daemon's job table.
 *
 * Every job state transition (accepted / running / done / failed /
 * evicted) is appended to an on-disk log before the daemon
 * acknowledges it to a client, with an fsync per record, so a daemon
 * crash, OOM-kill or host reboot never loses an acknowledged job: on
 * restart the daemon replays the journal, re-queues live jobs with
 * their attempt counts preserved and restores terminal jobs into the
 * archive.
 *
 * On-disk format (WC3DTRC2 discipline — length-framed, checksummed,
 * validated field by field, no fatal()):
 *
 *   "WC3DJRN2"                                    8-byte file magic
 *   repeated records:
 *     u32  payload length  (1 .. kJournalMaxPayload)
 *     u64  FNV-1a 64 checksum of the payload
 *     payload: u8 record type, then type-specific fields
 *
 * A torn tail — a record cut short by a crash, or any record whose
 * length, checksum or fields fail validation — ends the replay at
 * that record: everything before it is recovered, the file is
 * truncated at the bad record's offset, and the problem is reported
 * as a structured JournalError{offset, reason}. Corruption can only
 * cost the suffix, never the prefix, and can never resurrect a job
 * that reached a terminal state earlier in the log.
 *
 * Growth is bounded by snapshot compaction: once appended bytes since
 * the last snapshot exceed a threshold, the journal is atomically
 * rewritten (temp + fsync + rename, through the faultio shim) as a
 * snapshot of the live jobs, the bounded terminal archive and a
 * baseline record carrying the counters of history no longer encoded
 * record-by-record.
 */

#ifndef WC3D_SERVE_JOURNAL_HH
#define WC3D_SERVE_JOURNAL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/jobqueue.hh"
#include "serve/protocol.hh"

namespace wc3d::serve {

/** Largest journal record payload accepted by the replayer. */
constexpr std::uint32_t kJournalMaxPayload = 1u << 20;

/** Failure reasons longer than this are truncated before journaling
 *  so one pathological error string cannot bloat the log. */
constexpr std::size_t kJournalMaxReasonBytes = 4096;

/** A structured journal problem: where in the file, and why. */
struct JournalError
{
    std::uint64_t offset = 0; ///< byte offset of the offending record
    std::string reason;

    std::string describe() const;
};

/** One job reconstructed by replay, in first-accepted order. */
struct JournalJob
{
    std::uint64_t id = 0;
    JobSpec spec;
    int attempts = 0; ///< highest attempt recorded (0 = never ran)
    JobState state = JobState::Queued; ///< Queued/Done/Failed only
    std::uint8_t fromCache = 0;
    std::string failReason;
    std::uint64_t submittedAtMs = 0;
    std::uint64_t latencyMs = 0;
    bool evicted = false; ///< terminal and aged out of the archive
};

/** Everything replay reconstructs from one journal file. */
struct JournalRecovery
{
    std::vector<JournalJob> jobs; ///< first-accepted order

    /** Counter baseline from the last snapshot: terminal jobs (and
     *  their retries) that are no longer encoded record-by-record. */
    std::uint64_t baseDone = 0;
    std::uint64_t baseFailed = 0;
    std::uint64_t baseEvicted = 0;
    std::uint64_t baseRetries = 0;

    std::size_t records = 0;   ///< well-formed records applied
    std::size_t anomalies = 0; ///< well-formed but inapplicable records
                               ///< (e.g. a transition for a terminal
                               ///< job) — ignored, never obeyed

    /** Set when replay stopped before end of file (torn tail or
     *  corruption); truncation says where and why. */
    bool truncated = false;
    JournalError truncation;

    std::size_t liveCount() const;
    std::size_t terminalCount() const;
};

/**
 * The write side plus replay. Not thread-safe (the daemon is
 * single-threaded); never calls fatal() — every failure surfaces as a
 * false return with lastError() set.
 */
class Journal
{
  public:
    /** Default snapshot-compaction threshold: bytes appended since
     *  the last snapshot (override via WC3D_SERVE_JOURNAL_COMPACT). */
    static constexpr std::uint64_t kDefaultCompactBytes = 1u << 20;

    Journal() = default;
    ~Journal();
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Open (or create) the journal in directory @p dir, replaying any
     * existing log into @p recovery first. A torn tail is truncated
     * in place and reported through @p recovery->truncation; only an
     * unusable journal (unreadable file, failed truncate, ...) makes
     * open() fail.
     */
    bool open(const std::string &dir, JournalRecovery *recovery);

    /** @return true while the journal is open and accepting appends. */
    bool ok() const { return _fd >= 0; }

    const std::string &path() const { return _path; }

    /** @name Append one state transition (write + fsync).
     *  @return false with lastError() set on I/O failure. */
    /// @{
    bool appendAccepted(std::uint64_t id, const JobSpec &spec,
                        std::uint64_t submitted_at_ms);
    bool appendRunning(std::uint64_t id, int attempt);
    bool appendDone(std::uint64_t id, int attempts, bool from_cache,
                    std::uint64_t latency_ms);
    bool appendFailed(std::uint64_t id, int attempts,
                      std::uint64_t latency_ms,
                      const std::string &reason);
    bool appendEvicted(std::uint64_t id);
    /// @}

    /**
     * Atomically rewrite the journal as a snapshot of @p queue
     * (baseline counters + terminal archive + live jobs). Called
     * automatically by the append path once appended bytes exceed the
     * threshold; also the rescue path after a failed append.
     */
    bool compact(const JobQueue &queue);

    /** @return true when appended-bytes growth warrants compact(). */
    bool wantsCompact() const;

    void setCompactThreshold(std::uint64_t bytes);

    /** Close the fd (no further appends; ok() goes false). */
    void close();

    /** Delete the journal file (clean shutdown: a drained daemon has
     *  nothing to recover). Closes first. */
    void removeFile();

    /** @name Telemetry for the metrics manifest */
    /// @{
    std::uint64_t appends() const { return _appends; }
    std::uint64_t compactions() const { return _compactions; }
    /// @}

    const std::optional<JournalError> &lastError() const
    {
        return _lastError;
    }

    /**
     * Pure replay of @p content (an in-memory journal image) into
     * @p out. Never crashes on arbitrary bytes; stops at the first
     * malformed record, reporting it via out->truncated/truncation.
     * @return false only when the file magic itself is wrong.
     * Exposed for the journal mutation fuzzer.
     */
    static bool replay(const std::string &content, JournalRecovery *out);

  private:
    bool appendRecord(const std::string &payload);
    void noteError(std::uint64_t offset, std::string reason);

    int _fd = -1;
    std::string _dir;
    std::string _path;
    std::uint64_t _fileBytes = 0;      ///< current file size
    std::uint64_t _snapshotBytes = 0;  ///< file size after last snapshot
    std::uint64_t _compactThreshold = kDefaultCompactBytes;
    std::uint64_t _appends = 0;
    std::uint64_t _compactions = 0;
    std::optional<JournalError> _lastError;
};

} // namespace wc3d::serve

#endif // WC3D_SERVE_JOURNAL_HH
