/**
 * @file
 * Fault-injection shim for durable file I/O. Every write that must
 * survive a crash (the serve journal, the v5 run cache, the fleet
 * store index, metrics manifests) funnels through writeAll()/syncFd()
 * here, so filesystem failure modes — ENOSPC, short writes, a crash
 * between write and rename — can be injected from the environment and
 * the recovery paths tested rather than asserted.
 *
 * Injection knobs (all off by default):
 *   WC3D_FAULT_WRITE_FAIL_NTH=<n>     the n-th write (1-based, process-
 *                                     wide) fails with injected ENOSPC
 *   WC3D_FAULT_WRITE_SHORT_NTH=<n>    the n-th write persists only half
 *                                     its bytes, then reports a short
 *                                     write
 *   WC3D_FAULT_ENOSPC=1               every write fails with ENOSPC
 *   WC3D_FAULT_CRASH_AFTER_WRITES=<n> _exit() the process right after
 *                                     the n-th successful write — a
 *                                     power-loss point between a write
 *                                     and whatever was meant to follow
 *
 * All failures are reported as structured IoError values; nothing in
 * this layer calls fatal() or throws.
 */

#ifndef WC3D_COMMON_FAULTIO_HH
#define WC3D_COMMON_FAULTIO_HH

#include <cstdint>
#include <string>

namespace wc3d::faultio {

/** Exit status used by the injected crash point (distinct from the
 *  serve worker's kCrashStatus so soak harnesses can tell them apart). */
constexpr int kCrashExitStatus = 86;

/** One failed I/O step: which operation, on which path, and why. */
struct IoError
{
    std::string op;     ///< "open", "write", "fsync", "close", "rename"
    std::string path;   ///< file the operation targeted
    std::string reason; ///< strerror text or "injected ..." marker

    /** @return a one-line human-readable description. */
    std::string describe() const;
};

/** Injection plan; the default-constructed plan injects nothing. */
struct FaultPlan
{
    std::uint64_t failNthWrite = 0;     ///< 1-based; 0 = off
    std::uint64_t shortNthWrite = 0;    ///< 1-based; 0 = off
    bool allEnospc = false;             ///< every write fails
    std::uint64_t crashAfterWrites = 0; ///< _exit after n successes; 0 = off
};

/** @return the active plan (first use loads the WC3D_FAULT_* env knobs). */
FaultPlan plan();

/** Override the plan programmatically (tests); resets the write counter. */
void setPlan(const FaultPlan &plan);

/** Re-read the WC3D_FAULT_* env knobs and reset the write counter. */
void resetFromEnv();

/** @return how many writeAll() calls have been attempted process-wide. */
std::uint64_t writesAttempted();

/**
 * Write all @p size bytes to @p fd, retrying on EINTR and continuing
 * after genuine partial writes, subject to the active fault plan.
 * @return false with @p err filled (when non-null) on any failure;
 * never kills the process except at an injected crash point.
 */
bool writeAll(int fd, const void *data, std::size_t size,
              const std::string &path, IoError *err);

/** fsync @p fd. @return false with @p err filled on failure. */
bool syncFd(int fd, const std::string &path, IoError *err);

/**
 * fsync the directory containing @p path, making a preceding rename(2)
 * durable. @return false with @p err filled on failure.
 */
bool syncDirOf(const std::string &path, IoError *err);

} // namespace wc3d::faultio

#endif // WC3D_COMMON_FAULTIO_HH
