#include "fleet/report.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/strutil.hh"
#include "fleet/query.hh"

namespace wc3d::fleet {

namespace {

/** Everything the report needs from one entry, loaded once. */
struct LoadedEntry
{
    const IndexEntry *index = nullptr;
    json::Value doc;
    double totalSeconds = 0.0; ///< trajectory y value
    std::vector<StageBreakdown> stages;
};

double
entryTotalSeconds(const json::Value &doc, Kind kind)
{
    double total = 0.0;
    if (kind == Kind::Metrics) {
        const json::Value *runs = doc.find("runs");
        if (runs && runs->isArray()) {
            for (const json::Value &run : runs->items()) {
                const json::Value *seconds = run.find("seconds");
                if (seconds && seconds->isNumber())
                    total += seconds->asDouble();
            }
        }
        return total;
    }
    if (kind == Kind::Bench) {
        const json::Value *benches = doc.find("benches");
        if (benches && benches->isObject()) {
            for (const auto &kv : benches->members()) {
                const json::Value *wall =
                    kv.second.find("wall_seconds");
                if (wall && wall->isNumber())
                    total += wall->asDouble();
            }
        }
    }
    return total;
}

/** Stable phase color: hash the name onto a hue wheel. */
std::string
phaseColor(const std::string &name)
{
    std::uint32_t h = 2166136261u;
    for (unsigned char c : name) {
        h ^= c;
        h *= 16777619u;
    }
    return format("hsl(%u,62%%,52%%)", h % 360u);
}

/** Heatmap cell color: cold blue (0) to warm yellow-green (1). */
std::string
heatColor(double t)
{
    t = std::clamp(t, 0.0, 1.0);
    return format("hsl(%d,70%%,%d%%)", 220 - static_cast<int>(160 * t),
                  35 + static_cast<int>(25 * t));
}

std::string
joinDemos(const std::vector<std::string> &demos)
{
    std::string out;
    for (const std::string &demo : demos) {
        if (!out.empty())
            out += ", ";
        out += demo;
    }
    return out.empty() ? "-" : out;
}

std::string
fmtSeconds(double s)
{
    if (s >= 100.0)
        return format("%.0f s", s);
    if (s >= 1.0)
        return format("%.2f s", s);
    return format("%.0f ms", s * 1000.0);
}

void
sectionHeading(std::string &html, const char *title)
{
    html += "<h2>";
    html += title;
    html += "</h2>\n";
}

/** Perf trajectory: one dot per entry in insertion order, polyline
 *  per artifact kind, y = total run wall-clock. */
void
renderTrajectory(std::string &html,
                 const std::vector<LoadedEntry> &loaded)
{
    std::vector<const LoadedEntry *> points;
    for (const LoadedEntry &e : loaded) {
        if (e.totalSeconds > 0.0)
            points.push_back(&e);
    }
    sectionHeading(html, "Perf trajectory");
    if (points.empty()) {
        html += "<p class=\"empty\">No timed entries ingested "
                "yet.</p>\n";
        return;
    }
    const int w = 720, h = 260, ml = 64, mr = 16, mt = 16, mb = 40;
    double ymax = 0.0;
    for (const LoadedEntry *p : points)
        ymax = std::max(ymax, p->totalSeconds);
    ymax *= 1.08;
    auto xpos = [&](std::size_t i) {
        double span = points.size() > 1
                          ? static_cast<double>(points.size() - 1)
                          : 1.0;
        return ml + (w - ml - mr) * (static_cast<double>(i) / span);
    };
    auto ypos = [&](double v) {
        return h - mb - (h - mt - mb) * (v / ymax);
    };
    html += format("<svg viewBox=\"0 0 %d %d\" role=\"img\">\n", w, h);
    // Gridlines + y labels at quarters.
    for (int g = 0; g <= 4; ++g) {
        double v = ymax * g / 4.0;
        double y = ypos(v);
        html += format("<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" "
                       "y2=\"%.1f\" class=\"grid\"/>\n",
                       ml, y, w - mr, y);
        html += format("<text x=\"%d\" y=\"%.1f\" "
                       "class=\"ylab\">%s</text>\n",
                       ml - 6, y + 4, fmtSeconds(v).c_str());
    }
    for (Kind kind : {Kind::Metrics, Kind::Bench}) {
        std::string line;
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (points[i]->index->kind != kind)
                continue;
            line += format("%.1f,%.1f ", xpos(i),
                           ypos(points[i]->totalSeconds));
        }
        if (!line.empty())
            html += format("<polyline points=\"%s\" class=\"line "
                           "line-%s\"/>\n",
                           line.c_str(), kindName(kind));
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        const LoadedEntry *p = points[i];
        html += format(
            "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"4\" class=\"dot "
            "dot-%s\"><title>#%llu %s (%s): %s</title></circle>\n",
            xpos(i), ypos(p->totalSeconds),
            kindName(p->index->kind),
            static_cast<unsigned long long>(p->index->seq),
            htmlEscape(p->index->git).c_str(),
            kindName(p->index->kind),
            fmtSeconds(p->totalSeconds).c_str());
        html += format("<text x=\"%.1f\" y=\"%d\" "
                       "class=\"xlab\">#%llu</text>\n",
                       xpos(i), h - mb + 16,
                       static_cast<unsigned long long>(p->index->seq));
    }
    html += "</svg>\n";
}

/** Per-stage stacked bars: one row per metrics entry, segment width
 *  proportional to phase share, row width to the entry total. */
void
renderStages(std::string &html,
             const std::vector<LoadedEntry> &loaded)
{
    std::vector<const LoadedEntry *> rows;
    for (const LoadedEntry &e : loaded) {
        if (e.index->kind == Kind::Metrics && !e.stages.empty())
            rows.push_back(&e);
    }
    sectionHeading(html, "Per-stage time breakdown");
    if (rows.empty()) {
        html += "<p class=\"empty\">No metrics manifests with phase "
                "clocks ingested yet.</p>\n";
        return;
    }
    double max_total = 0.0;
    for (const LoadedEntry *r : rows) {
        double total = 0.0;
        for (const StageBreakdown &s : r->stages)
            total += s.seconds;
        max_total = std::max(max_total, total);
    }
    const int w = 720, row_h = 26, label_w = 130;
    int h = static_cast<int>(rows.size()) * row_h + 8;
    html += format("<svg viewBox=\"0 0 %d %d\" role=\"img\">\n", w, h);
    std::vector<std::string> legend;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const LoadedEntry *e = rows[r];
        double total = 0.0;
        for (const StageBreakdown &s : e->stages)
            total += s.seconds;
        double y = 4.0 + static_cast<double>(r) * row_h;
        html += format("<text x=\"%d\" y=\"%.1f\" "
                       "class=\"ylab\">#%llu %s</text>\n",
                       label_w - 6, y + 14,
                       static_cast<unsigned long long>(e->index->seq),
                       htmlEscape(e->index->git).c_str());
        double x = label_w;
        double full = (w - label_w - 8) *
                      (max_total > 0.0 ? total / max_total : 0.0);
        for (const StageBreakdown &s : e->stages) {
            double seg = total > 0.0 ? full * s.seconds / total : 0.0;
            html += format(
                "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" "
                "height=\"%d\" fill=\"%s\"><title>%s: %s "
                "(%.1f%%)</title></rect>\n",
                x, y, std::max(seg, 0.5), row_h - 6,
                phaseColor(s.name).c_str(),
                htmlEscape(s.name).c_str(),
                fmtSeconds(s.seconds).c_str(), 100.0 * s.fraction);
            x += seg;
            if (std::find(legend.begin(), legend.end(), s.name) ==
                legend.end())
                legend.push_back(s.name);
        }
    }
    html += "</svg>\n<p class=\"legend\">";
    for (const std::string &name : legend)
        html += format("<span><i style=\"background:%s\"></i>%s</span> ",
                       phaseColor(name).c_str(),
                       htmlEscape(name).c_str());
    html += "</p>\n";
}

/** Thread-sweep heatmap: rows = bench entries, columns = thread
 *  counts, color = frames/sec normalized over the grid. */
void
renderSweep(std::string &html,
            const std::vector<LoadedEntry> &loaded)
{
    struct SweepRow
    {
        const LoadedEntry *entry;
        std::map<std::uint64_t, double> fps; // threads -> fps
    };
    std::vector<SweepRow> rows;
    std::vector<std::uint64_t> columns;
    double fmin = 0.0, fmax = 0.0;
    bool first = true;
    for (const LoadedEntry &e : loaded) {
        if (e.index->kind != Kind::Bench)
            continue;
        const json::Value *sim = e.doc.find("speed_simulation");
        const json::Value *sweep = sim ? sim->find("sweep") : nullptr;
        if (!sweep || !sweep->isArray() || sweep->size() == 0)
            continue;
        SweepRow row{&e, {}};
        for (const json::Value &point : sweep->items()) {
            const json::Value *threads = point.find("threads");
            const json::Value *fps = point.find("frames_per_sec");
            if (!threads || !threads->isNumber() || !fps ||
                !fps->isNumber())
                continue;
            std::uint64_t t = threads->asU64();
            double v = fps->asDouble();
            row.fps[t] = v;
            if (std::find(columns.begin(), columns.end(), t) ==
                columns.end())
                columns.push_back(t);
            if (first || v < fmin)
                fmin = v;
            if (first || v > fmax)
                fmax = v;
            first = false;
        }
        if (!row.fps.empty())
            rows.push_back(std::move(row));
    }
    sectionHeading(html, "Thread-sweep heatmap");
    if (rows.empty()) {
        html += "<p class=\"empty\">No bench documents with a thread "
                "sweep ingested yet.</p>\n";
        return;
    }
    std::sort(columns.begin(), columns.end());
    const int cell_w = 84, cell_h = 30, label_w = 130;
    int w = label_w + cell_w * static_cast<int>(columns.size()) + 8;
    int h = cell_h * (static_cast<int>(rows.size()) + 1) + 8;
    html += format("<svg viewBox=\"0 0 %d %d\" role=\"img\">\n", w, h);
    for (std::size_t c = 0; c < columns.size(); ++c)
        html += format("<text x=\"%d\" y=\"20\" class=\"xlab\">%llu "
                       "thread(s)</text>\n",
                       label_w + static_cast<int>(c) * cell_w +
                           cell_w / 2,
                       static_cast<unsigned long long>(columns[c]));
    for (std::size_t r = 0; r < rows.size(); ++r) {
        int y = cell_h * (static_cast<int>(r) + 1) + 4;
        html += format("<text x=\"%d\" y=\"%d\" "
                       "class=\"ylab\">#%llu %s</text>\n",
                       label_w - 6, y + 19,
                       static_cast<unsigned long long>(
                           rows[r].entry->index->seq),
                       htmlEscape(rows[r].entry->index->git).c_str());
        for (std::size_t c = 0; c < columns.size(); ++c) {
            auto it = rows[r].fps.find(columns[c]);
            int x = label_w + static_cast<int>(c) * cell_w;
            if (it == rows[r].fps.end()) {
                html += format("<rect x=\"%d\" y=\"%d\" width=\"%d\" "
                               "height=\"%d\" class=\"cell-empty\"/>\n",
                               x, y, cell_w - 3, cell_h - 3);
                continue;
            }
            double t = fmax > fmin
                           ? (it->second - fmin) / (fmax - fmin)
                           : 1.0;
            html += format(
                "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" "
                "fill=\"%s\"><title>%.3f frames/s</title></rect>\n",
                x, y, cell_w - 3, cell_h - 3, heatColor(t).c_str(),
                it->second);
            html += format("<text x=\"%d\" y=\"%d\" "
                           "class=\"cell\">%.2f</text>\n",
                           x + (cell_w - 3) / 2, y + cell_h / 2 + 4,
                           it->second);
        }
    }
    html += "</svg>\n";
}

} // namespace

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          case '"':
            out += "&quot;";
            break;
          case '\'':
            out += "&#39;";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
renderHtmlReport(const FleetStore &store, FleetError *err)
{
    (void)err; // entries failing to load become a problems section
    std::vector<LoadedEntry> loaded;
    std::vector<std::string> problems;
    for (const IndexEntry &e : store.entries()) {
        LoadedEntry le;
        le.index = &e;
        FleetError load_err;
        if (!store.loadEntry(e, le.doc, &load_err)) {
            problems.push_back(load_err.describe());
            continue;
        }
        le.totalSeconds = entryTotalSeconds(le.doc, e.kind);
        le.stages = stageBreakdown(le.doc);
        loaded.push_back(std::move(le));
    }

    std::string html;
    html +=
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        "<title>wc3d fleet report</title>\n"
        "<style>\n"
        "body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;"
        "max-width:800px;color:#1a1a2e;padding:0 1rem}\n"
        "h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem}\n"
        "table{border-collapse:collapse;width:100%}\n"
        "th,td{border:1px solid #d0d0e0;padding:4px 8px;"
        "text-align:left;font-size:13px}\n"
        "th{background:#f0f0fa}\n"
        "svg{width:100%;height:auto;background:#fafaff;"
        "border:1px solid #e0e0ee;border-radius:4px}\n"
        ".grid{stroke:#e4e4f0;stroke-width:1}\n"
        ".line{fill:none;stroke-width:2}\n"
        ".line-metrics{stroke:#4466cc}.line-bench{stroke:#cc7722}\n"
        ".dot-metrics{fill:#4466cc}.dot-bench{fill:#cc7722}\n"
        ".ylab{font:11px sans-serif;fill:#556;text-anchor:end}\n"
        ".xlab{font:11px sans-serif;fill:#556;text-anchor:middle}\n"
        ".cell{font:11px sans-serif;fill:#fff;text-anchor:middle}\n"
        ".cell-empty{fill:#eee}\n"
        ".legend span{margin-right:1em;white-space:nowrap}\n"
        ".legend i{display:inline-block;width:10px;height:10px;"
        "margin-right:4px;border-radius:2px}\n"
        ".empty{color:#889}\n"
        ".problems{color:#a22}\n"
        "code{background:#f0f0fa;padding:1px 4px;border-radius:3px}\n"
        "</style>\n</head>\n<body>\n";
    html += "<h1>wc3d fleet report</h1>\n";
    html += format("<p>Store <code>%s</code> &middot; %zu entr%s</p>\n",
                   htmlEscape(store.dir()).c_str(),
                   store.entries().size(),
                   store.entries().size() == 1 ? "y" : "ies");

    if (!problems.empty()) {
        html += "<div class=\"problems\"><h2>Problems</h2><ul>\n";
        for (const std::string &p : problems)
            html += "<li>" + htmlEscape(p) + "</li>\n";
        html += "</ul></div>\n";
    }

    sectionHeading(html, "Ingested runs");
    if (loaded.empty()) {
        html += "<p class=\"empty\">Store is empty — ingest manifests "
                "with <code>wc3d-fleet ingest FILE...</code>.</p>\n";
    } else {
        html += "<table><tr><th>#</th><th>kind</th><th>git</th>"
                "<th>config</th><th>host</th><th>demos</th>"
                "<th>source</th></tr>\n";
        for (const LoadedEntry &e : loaded) {
            html += format(
                "<tr><td>%llu</td><td>%s</td><td>%s</td>"
                "<td><code>%.8s</code></td><td>%s</td><td>%s</td>"
                "<td>%s</td></tr>\n",
                static_cast<unsigned long long>(e.index->seq),
                kindName(e.index->kind),
                htmlEscape(e.index->git).c_str(),
                e.index->config.c_str(),
                htmlEscape(e.index->host).c_str(),
                htmlEscape(joinDemos(e.index->demos)).c_str(),
                htmlEscape(e.index->source).c_str());
        }
        html += "</table>\n";
    }

    renderTrajectory(html, loaded);
    renderStages(html, loaded);
    renderSweep(html, loaded);

    html += "</body>\n</html>\n";
    return html;
}

} // namespace wc3d::fleet
