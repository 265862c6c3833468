/**
 * @file
 * Static HTML report over a fleet store: one self-contained page —
 * inline CSS and inline SVG, no scripts, no external assets — with
 * the perf trajectory across ingested runs, per-stage stacked bars
 * for every metrics manifest and a thread-sweep heatmap from the bench
 * documents. `wc3d-fleet report` writes it; CI uploads it as an
 * artifact.
 */

#ifndef WC3D_FLEET_REPORT_HH
#define WC3D_FLEET_REPORT_HH

#include <string>

#include "fleet/store.hh"

namespace wc3d::fleet {

/**
 * Render the report page for @p store. Entries whose blobs fail to
 * load are listed in a problems section instead of aborting the
 * render; the function only fails (empty string + @p err) when the
 * store itself is unreadable.
 */
std::string renderHtmlReport(const FleetStore &store, FleetError *err);

/** HTML-escape @p s (&, <, >, quotes). */
std::string htmlEscape(const std::string &s);

} // namespace wc3d::fleet

#endif // WC3D_FLEET_REPORT_HH
