/**
 * @file
 * Reusable gate checks over BENCH_speed.json documents (schema
 * wc3d-bench-speed-v1, written by bench/bench_common.hh). The
 * examples/bench_gate CLI prints and aggregates these results; the
 * logic lives here so edge cases (mixed-host sweeps, missing sweep
 * points) are unit-testable against hand-built JSON fixtures.
 */

#ifndef WC3D_CORE_BENCHGATE_HH
#define WC3D_CORE_BENCHGATE_HH

#include <string>

#include "common/json.hh"

namespace wc3d::core {

/** Verdict of one gate check. */
enum class GateOutcome
{
    Pass, ///< measured, and within the floor
    Fail, ///< measured, and out of bounds (or document malformed)
    Skip, ///< not meaningfully measurable on this document — never
          ///< gates, always explained in the message
};

struct GateResult
{
    GateOutcome outcome = GateOutcome::Fail;
    std::string message; ///< human-readable explanation
};

/**
 * The 4-thread-vs-1-thread parallel-speedup gate over
 * speed_simulation.sweep. The ratio compares two measurements from the
 * same binary and host, so it is machine-independent — but only
 * meaningful when both points exist and were measured on one host with
 * >= 4 hardware threads. The gate therefore *skips* (never fails)
 * when:
 *  - the sweep lacks a 1- or 4-thread entry (or its seconds are not
 *    positive),
 *  - entries carry mismatched host_threads values (sweep stitched
 *    together from different hosts),
 *  - the sweep host has fewer than 4 hardware threads.
 * Sweeps recorded before per-entry host_threads fall back to the
 * document-level host fingerprint. A document without a
 * speed_simulation.sweep array fails (malformed, not unmeasurable).
 */
GateResult evalParallelSpeedupGate(const json::Value &doc,
                                   double min_speedup);

/**
 * True when a speed_simulation.sweep entry asked for more simulation
 * threads than the measuring host had hardware threads — its wall time
 * measures time-slicing, not scaling, and must not arm any gate.
 * Detected from the explicit "oversubscribed" annotation (written by
 * bench_speed_simulation on re-record) or, for older documents,
 * computed from threads > host_threads. Entries without host_threads
 * are assumed not oversubscribed.
 */
bool sweepEntryOversubscribed(const json::Value &entry);

} // namespace wc3d::core

#endif // WC3D_CORE_BENCHGATE_HH
