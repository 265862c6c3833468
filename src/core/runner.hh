/**
 * @file
 * Experiment runners: execute a synthetic timedemo at the API level
 * (statistics only) or through the full GPU simulator, with a disk
 * cache for microarchitectural runs. Workloads and the simulator are
 * deterministic, so cached results are bit-identical to fresh runs;
 * every bench binary can therefore share one simulation per game.
 *
 * Environment knobs:
 *  - WC3D_FRAMES:     frames for microarchitectural runs (default 4)
 *  - WC3D_API_FRAMES: frames for API-level runs (default 300)
 *  - WC3D_NO_CACHE:   set to 1 to force re-simulation
 *  - WC3D_CACHE_DIR:  cache directory (default ".wc3d-cache"; nested
 *                     paths are created as needed)
 *  - WC3D_THREADS:    simulation threads (default: hardware
 *                     concurrency; 1 = fully sequential). Independent
 *                     games fan out across the pool and each run
 *                     shards its shading work; all statistics are
 *                     bit-identical for any thread count (see
 *                     DESIGN.md "Threading model").
 */

#ifndef WC3D_CORE_RUNNER_HH
#define WC3D_CORE_RUNNER_HH

#include <string>
#include <vector>

#include "api/apistats.hh"
#include "gpu/pipeline.hh"
#include "gpu/simulator.hh"
#include "memory/cache.hh"
#include "stats/series.hh"

namespace wc3d::core {

/** Default frame counts (env-overridable). */
int defaultMicroFrames();
int defaultApiFrames();

/** Result of an API-level (no simulator) run. */
struct ApiRun
{
    std::string id;
    int frames = 0;
    api::ApiStats stats;
};

/**
 * Run timedemo @p id for @p frames frames with no GPU sink.
 * API-level statistics only; fast enough to run uncached.
 */
ApiRun runApiLevel(const std::string &id, int frames);

/** Result of a full-pipeline run. */
struct MicroRun
{
    std::string id;
    int frames = 0;
    int width = 0;
    int height = 0;
    gpu::PipelineCounters counters;
    memsys::CacheStats zCache;
    memsys::CacheStats colorCache;
    memsys::CacheStats texL0;
    memsys::CacheStats texL1;
    stats::FrameSeries series;

    /** Framebuffer pixels per frame. */
    std::uint64_t
    pixels() const
    {
        return static_cast<std::uint64_t>(width) * height;
    }

    /** Total pixels over the whole run (overdraw denominators). */
    std::uint64_t
    totalPixels() const
    {
        return pixels() * static_cast<std::uint64_t>(frames);
    }

    /** Average memory traffic per frame in bytes. */
    double
    bytesPerFrame() const
    {
        return frames
            ? static_cast<double>(counters.traffic.total()) / frames
            : 0.0;
    }
};

/**
 * Run timedemo @p id through the full GPU simulator, using the disk
 * cache when permitted.
 */
MicroRun runMicroarch(const std::string &id, int frames,
                      int width = 1024, int height = 768,
                      bool allow_cache = true);

/** Convenience: microarch runs for the three simulated OGL games. */
std::vector<MicroRun> runSimulatedGames(int frames);

/** Convenience: API runs for all twelve games. */
std::vector<ApiRun> runAllGamesApi(int frames);

/** @name Cache internals (exposed for tests and wc3d-bench) */
/// @{
std::string cachePath(const std::string &id, int frames, int width,
                      int height);
bool saveMicroRun(const MicroRun &run, const std::string &path);
bool loadMicroRun(MicroRun &run, const std::string &path);
/** Serialize @p run to the cache text format (the golden-statistics
 *  files and the wc3d-bench digests are this text; equality of two
 *  encodings is the bit-identity check). */
std::string encodeMicroRun(const MicroRun &run);
/// @}

} // namespace wc3d::core

#endif // WC3D_CORE_RUNNER_HH
