#include "common/faultio.hh"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/strutil.hh"

namespace wc3d::faultio {

namespace {

std::mutex planMutex;
FaultPlan activePlan;
bool planLoaded = false;
std::atomic<std::uint64_t> writeCount{0};

FaultPlan
loadFromEnv()
{
    FaultPlan p;
    p.failNthWrite =
        static_cast<std::uint64_t>(envInt("WC3D_FAULT_WRITE_FAIL_NTH", 0));
    p.shortNthWrite =
        static_cast<std::uint64_t>(envInt("WC3D_FAULT_WRITE_SHORT_NTH", 0));
    p.allEnospc = envInt("WC3D_FAULT_ENOSPC", 0) != 0;
    p.crashAfterWrites = static_cast<std::uint64_t>(
        envInt("WC3D_FAULT_CRASH_AFTER_WRITES", 0));
    return p;
}

FaultPlan
currentPlan()
{
    std::lock_guard<std::mutex> lock(planMutex);
    if (!planLoaded) {
        activePlan = loadFromEnv();
        planLoaded = true;
    }
    return activePlan;
}

bool
fail(IoError *err, const char *op, const std::string &path,
     std::string reason)
{
    if (err) {
        err->op = op;
        err->path = path;
        err->reason = std::move(reason);
    }
    return false;
}

/** Plain EINTR-safe full write of [data, data+size) to fd. */
bool
rawWriteAll(int fd, const unsigned char *data, std::size_t size,
            const std::string &path, IoError *err)
{
    std::size_t done = 0;
    while (done < size) {
        ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return fail(err, "write", path, std::strerror(errno));
        }
        if (n == 0)
            return fail(err, "write", path,
                        format("short write: %zu of %zu bytes", done, size));
        done += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

std::string
IoError::describe() const
{
    return format("%s '%s': %s", op.c_str(), path.c_str(), reason.c_str());
}

FaultPlan
plan()
{
    return currentPlan();
}

void
setPlan(const FaultPlan &plan)
{
    std::lock_guard<std::mutex> lock(planMutex);
    activePlan = plan;
    planLoaded = true;
    writeCount.store(0, std::memory_order_relaxed);
}

void
resetFromEnv()
{
    std::lock_guard<std::mutex> lock(planMutex);
    activePlan = loadFromEnv();
    planLoaded = true;
    writeCount.store(0, std::memory_order_relaxed);
}

std::uint64_t
writesAttempted()
{
    return writeCount.load(std::memory_order_relaxed);
}

bool
writeAll(int fd, const void *data, std::size_t size,
         const std::string &path, IoError *err)
{
    FaultPlan p = currentPlan();
    std::uint64_t seq =
        writeCount.fetch_add(1, std::memory_order_relaxed) + 1;
    auto *bytes = static_cast<const unsigned char *>(data);

    if (p.allEnospc || (p.failNthWrite != 0 && seq == p.failNthWrite)) {
        return fail(err, "write", path,
                    p.allEnospc
                        ? "injected ENOSPC (WC3D_FAULT_ENOSPC)"
                        : "injected ENOSPC (WC3D_FAULT_WRITE_FAIL_NTH)");
    }
    if (p.shortNthWrite != 0 && seq == p.shortNthWrite) {
        // Persist half the payload for real — a torn record on disk is
        // exactly what recovery code has to face — then report the
        // failure the caller must handle.
        std::size_t half = size / 2;
        if (half > 0)
            rawWriteAll(fd, bytes, half, path, nullptr);
        return fail(err, "write", path,
                    format("injected short write: %zu of %zu bytes "
                           "(WC3D_FAULT_WRITE_SHORT_NTH)",
                           half, size));
    }

    if (!rawWriteAll(fd, bytes, size, path, err))
        return false;

    if (p.crashAfterWrites != 0 && seq >= p.crashAfterWrites) {
        // Power-loss point: the write above reached the kernel, nothing
        // after it (rename, directory sync, ...) will happen.
        ::_exit(kCrashExitStatus);
    }
    return true;
}

bool
syncFd(int fd, const std::string &path, IoError *err)
{
    if (::fsync(fd) != 0)
        return fail(err, "fsync", path, std::strerror(errno));
    return true;
}

bool
syncDirOf(const std::string &path, IoError *err)
{
    std::size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos
                          ? std::string(".")
                          : path.substr(0, slash == 0 ? 1 : slash);
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return fail(err, "open", dir, std::strerror(errno));
    bool ok = syncFd(fd, dir, err);
    ::close(fd);
    return ok;
}

} // namespace wc3d::faultio
