/**
 * @file
 * Fleet-level queries over the store: per-stage time breakdowns,
 * flattened counter views of every artifact kind, and counter-drift
 * comparison between any two entries with a configurable threshold —
 * the regression gate behind `wc3d-fleet query --regress` (exit
 * non-zero on drift, the way bench_gate gates wall time).
 */

#ifndef WC3D_FLEET_QUERY_HH
#define WC3D_FLEET_QUERY_HH

#include <string>
#include <vector>

#include "fleet/store.hh"

namespace wc3d::fleet {

/** One phase row of a metrics manifest (fraction of the total). */
struct StageBreakdown
{
    std::string name;
    double seconds = 0.0;
    std::uint64_t calls = 0;
    double fraction = 0.0;
};

/** Phases of a metrics document, descending by seconds. Empty for
 *  bench documents (they carry no phase clock). */
std::vector<StageBreakdown> stageBreakdown(const json::Value &doc);

/**
 * Flatten @p doc into comparable (name, value) pairs, sorted by name:
 *  - metrics: every registry counter, plus derived
 *    "<...>.cache.<c>.hitRate" rates (hits/accesses);
 *  - bench:   bench wall clocks and sweep frames/sec under "bench.".
 */
std::vector<std::pair<std::string, double>>
flattenCounters(const json::Value &doc, Kind kind);

/** One counter whose value moved between two entries. */
struct Drift
{
    std::string name;
    double base = 0.0;
    double cur = 0.0;
    /** |cur - base| / |base| (1.0 when base == 0 and cur != 0). */
    double rel = 0.0;
};

/**
 * Compare the flattened counters of @p base_doc and @p cur_doc
 * (same-kind documents). Counters present in both whose relative
 * drift exceeds @p threshold land in @p exceeded; counters only on
 * one side are listed in @p only_base / @p only_cur (informational,
 * not gating). @p prefix restricts the comparison ("" = all).
 * @return the number of compared counters.
 */
std::size_t compareCounters(const json::Value &base_doc,
                            const json::Value &cur_doc, Kind kind,
                            double threshold,
                            const std::string &prefix,
                            std::vector<Drift> *exceeded,
                            std::vector<std::string> *only_base,
                            std::vector<std::string> *only_cur);

} // namespace wc3d::fleet

#endif // WC3D_FLEET_QUERY_HH
