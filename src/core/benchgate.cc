#include "core/benchgate.hh"

#include "common/strutil.hh"

namespace wc3d::core {

namespace {

double
numberAt(const json::Value *obj, const char *key, double fallback = 0.0)
{
    const json::Value *v = obj ? obj->find(key) : nullptr;
    return v ? v->asDouble() : fallback;
}

} // namespace

GateResult
evalParallelSpeedupGate(const json::Value &doc, double min_speedup)
{
    auto fail = [](std::string msg) {
        return GateResult{GateOutcome::Fail, std::move(msg)};
    };
    auto skip = [](std::string msg) {
        return GateResult{GateOutcome::Skip, std::move(msg)};
    };

    const json::Value *speed = doc.find("speed_simulation");
    const json::Value *sweep = speed ? speed->find("sweep") : nullptr;
    if (!sweep || !sweep->isArray())
        return fail("speed_simulation.sweep missing "
                    "(parallel-speedup gate)");

    double s1 = 0.0;
    double s4 = 0.0;
    // host_threads across entries: identical (one host), absent
    // everywhere (legacy sweep -> document host fingerprint), or
    // mismatched (stitched from several hosts -> not comparable).
    int host_threads = 0;
    std::size_t entries = 0;
    std::size_t tagged = 0;
    bool mismatched = false;
    bool oversub = false;
    for (const json::Value &entry : sweep->items()) {
        ++entries;
        int threads = static_cast<int>(numberAt(&entry, "threads"));
        if (threads == 1) {
            s1 = numberAt(&entry, "seconds");
            oversub = oversub || sweepEntryOversubscribed(entry);
        }
        if (threads == 4) {
            s4 = numberAt(&entry, "seconds");
            oversub = oversub || sweepEntryOversubscribed(entry);
        }
        const json::Value *ht = entry.find("host_threads");
        if (ht) {
            int v = static_cast<int>(ht->asDouble());
            if (tagged > 0 && v != host_threads)
                mismatched = true;
            host_threads = v;
            ++tagged;
        }
    }
    bool any_host = tagged > 0;
    if (tagged > 0 && tagged < entries)
        mismatched = true; // some entries tagged, some not
    if (mismatched)
        return skip("parallel speedup gate: sweep entries were "
                    "measured on mismatched hosts (host_threads "
                    "disagree) — ratios are not comparable");
    if (!any_host) {
        // Sweeps recorded before per-entry host_threads: fall back to
        // the document-level host fingerprint.
        host_threads =
            static_cast<int>(numberAt(doc.find("host"), "threads"));
    }
    if (host_threads < 4)
        return skip(format(
            "parallel speedup gate: sweep host has %d hardware "
            "thread(s), need >= 4 for a meaningful 4-thread "
            "measurement",
            host_threads));
    if (oversub)
        return skip("parallel speedup gate: the 1- or 4-thread sweep "
                    "point was measured oversubscribed (threads > "
                    "host_threads) — the ratio times time-slicing, "
                    "not scaling");
    if (s1 <= 0.0 || s4 <= 0.0)
        return skip(format(
            "parallel speedup gate: sweep lacks a usable %s point "
            "(1t %.3fs, 4t %.3fs) — nothing to gate",
            s1 <= 0.0 ? "1-thread" : "4-thread", s1, s4));

    double speedup = s1 / s4;
    if (speedup >= min_speedup)
        return GateResult{
            GateOutcome::Pass,
            format("parallel speedup 4t vs 1t %.2fx (floor %.2fx)",
                   speedup, min_speedup)};
    return fail(format(
        "parallel speedup 4t vs 1t %.2fx below floor %.2fx", speedup,
        min_speedup));
}

bool
sweepEntryOversubscribed(const json::Value &entry)
{
    const json::Value *flag = entry.find("oversubscribed");
    if (flag && flag->asBool())
        return true;
    const json::Value *ht = entry.find("host_threads");
    if (!ht)
        return false;
    int threads = static_cast<int>(numberAt(&entry, "threads"));
    return threads > static_cast<int>(ht->asDouble());
}

} // namespace wc3d::core
