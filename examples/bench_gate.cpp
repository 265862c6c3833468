/**
 * @file
 * Performance gate over BENCH_speed.json (see bench/bench_common.hh
 * for the schema): fails the build when the measured hot-path numbers
 * regress. Two kinds of checks:
 *
 * 1. Ratio gates, always applied. The decoded-vs-legacy interpreter
 *    speedups in hotpath.interp are ratios of two measurements from
 *    the same binary on the same host, so they are machine-independent.
 *    The fragment profile must reach WC3D_GATE_MIN_SPEEDUP (default
 *    2.0); the other profiles must not fall below 1.0 (the decoded
 *    path must never lose to the legacy reference).
 *
 * 2. The parallel-speedup gate: the thread sweep's 4-thread point must
 *    be at least WC3D_GATE_MIN_PARALLEL_SPEEDUP (default 1.4) times
 *    faster than its 1-thread point. Like the interpreter ratios this
 *    compares two measurements from the same binary and host, so it is
 *    machine-independent — but it is only meaningful when the sweep was
 *    taken on one host with >= 4 hardware threads (each entry records
 *    host_threads). On smaller hosts, on sweeps stitched together from
 *    mismatched hosts, and on sweeps lacking a 1- or 4-thread point,
 *    the gate is skipped with a logged warning, never gated and never
 *    passed silently (see core/benchgate.hh).
 *
 * 3. Wall-time gates, applied only against a baseline document
 *    (--baseline <path>) whose host fingerprint (cpu model + hardware
 *    threads) matches the current document's. Each hot-path timedemo
 *    and thread-sweep point must stay within WC3D_GATE_THRESHOLD
 *    (default 0.20, i.e. +20%) of the baseline seconds. On a
 *    fingerprint mismatch the wall-time gates are skipped with a
 *    warning: absolute seconds from different machines are not
 *    comparable. Sweep points that either document marks (or computes)
 *    as oversubscribed — more simulation threads than the measuring
 *    host's hardware threads — are also skipped: such a baseline
 *    number times kernel time-slicing, not the simulator, and must
 *    never arm a wall-time gate (see core/benchgate.hh).
 *
 *     ./bench_gate current.json [--baseline BENCH_speed.json]
 *
 * Exits 0 when every applied gate passes, 1 otherwise.
 */

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env.hh"
#include "common/json.hh"
#include "core/benchgate.hh"

using namespace wc3d;

namespace {

int g_failures = 0;

void
pass(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::printf("  ok   ");
    std::vprintf(fmt, args);
    std::printf("\n");
    va_end(args);
}

void
fail(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::printf("  FAIL ");
    std::vprintf(fmt, args);
    std::printf("\n");
    va_end(args);
    ++g_failures;
}

double
numberAt(const json::Value *obj, const char *key, double fallback = 0.0)
{
    const json::Value *v = obj ? obj->find(key) : nullptr;
    return v ? v->asDouble() : fallback;
}

std::string
stringAt(const json::Value *obj, const char *key)
{
    const json::Value *v = obj ? obj->find(key) : nullptr;
    return v ? v->asString() : std::string();
}

bool
loadDoc(const std::string &path, json::Value &doc)
{
    std::string error;
    if (!json::parseFile(path, doc, &error)) {
        std::fprintf(stderr, "bench_gate: cannot read %s: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    const json::Value *schema = doc.find("schema");
    if (!schema || schema->asString() != "wc3d-bench-speed-v1") {
        std::fprintf(stderr, "bench_gate: %s is not a "
                     "wc3d-bench-speed-v1 document\n", path.c_str());
        return false;
    }
    return true;
}

/** "cpu model/threads" summary of a document's host fingerprint. */
std::string
hostSummary(const json::Value &doc)
{
    const json::Value *host = doc.find("host");
    return stringAt(host, "cpu") + "/" +
           std::to_string(static_cast<int>(numberAt(host, "threads")));
}

void
gateInterpRatios(const json::Value &doc, double min_fragment)
{
    const json::Value *hot = doc.find("hotpath");
    const json::Value *interp = hot ? hot->find("interp") : nullptr;
    if (!interp) {
        fail("hotpath.interp missing from document");
        return;
    }
    for (const char *profile : {"vertex", "fragment", "texture"}) {
        const json::Value *entry = interp->find(profile);
        if (!entry) {
            fail("hotpath.interp.%s missing", profile);
            continue;
        }
        double speedup = numberAt(entry, "speedup");
        double floor =
            std::strcmp(profile, "fragment") == 0 ? min_fragment : 1.0;
        if (speedup >= floor) {
            pass("interp %-8s decoded speedup %.2fx (floor %.2fx)",
                 profile, speedup, floor);
        } else {
            fail("interp %-8s decoded speedup %.2fx below floor %.2fx",
                 profile, speedup, floor);
        }
    }
}

void
reportGate(const core::GateResult &r)
{
    switch (r.outcome) {
    case core::GateOutcome::Pass:
        pass("%s", r.message.c_str());
        break;
    case core::GateOutcome::Fail:
        fail("%s", r.message.c_str());
        break;
    case core::GateOutcome::Skip:
        std::printf("  SKIP %s\n", r.message.c_str());
        break;
    }
}

void
gateParallelSpeedup(const json::Value &doc, double min_speedup)
{
    // Shared with tests/test_benchgate.cc: mixed-host sweeps, missing
    // sweep points and oversubscribed measurements skip (with an
    // explanation), never gate.
    reportGate(core::evalParallelSpeedupGate(doc, min_speedup));
}

void
gateSeconds(const char *what, const std::string &name, double current,
            double baseline, double threshold)
{
    if (baseline <= 0.0 || current <= 0.0) {
        fail("%s %s: missing measurement (current %.3f, baseline %.3f)",
             what, name.c_str(), current, baseline);
        return;
    }
    double limit = baseline * (1.0 + threshold);
    double delta = (current - baseline) / baseline * 100.0;
    if (current <= limit) {
        pass("%s %-18s %.3fs vs baseline %.3fs (%+.1f%%, limit +%.0f%%)",
             what, name.c_str(), current, baseline, delta,
             threshold * 100.0);
    } else {
        fail("%s %-18s %.3fs exceeds baseline %.3fs by %.1f%% "
             "(limit +%.0f%%)",
             what, name.c_str(), current, baseline, delta,
             threshold * 100.0);
    }
}

void
gateWallTimes(const json::Value &doc, const json::Value &base,
              double threshold)
{
    // Hot-path timedemos, matched by game id.
    const json::Value *hot = doc.find("hotpath");
    const json::Value *base_hot = base.find("hotpath");
    const json::Value *demos = hot ? hot->find("timedemos") : nullptr;
    const json::Value *base_demos =
        base_hot ? base_hot->find("timedemos") : nullptr;
    if (demos && base_demos && demos->isArray() && base_demos->isArray()) {
        for (const json::Value &entry : demos->items()) {
            std::string id = stringAt(&entry, "id");
            double baseline = 0.0;
            for (const json::Value &b : base_demos->items()) {
                if (stringAt(&b, "id") == id)
                    baseline = numberAt(&b, "seconds");
            }
            gateSeconds("timedemo", id, numberAt(&entry, "seconds"),
                        baseline, threshold);
        }
    } else {
        fail("hotpath.timedemos missing from current or baseline");
    }

    // Thread-sweep points, matched by thread count.
    const json::Value *speed = doc.find("speed_simulation");
    const json::Value *base_speed = base.find("speed_simulation");
    const json::Value *sweep = speed ? speed->find("sweep") : nullptr;
    const json::Value *base_sweep =
        base_speed ? base_speed->find("sweep") : nullptr;
    if (sweep && base_sweep && sweep->isArray() && base_sweep->isArray()) {
        for (const json::Value &entry : sweep->items()) {
            int threads = static_cast<int>(numberAt(&entry, "threads"));
            double baseline = 0.0;
            bool stale = core::sweepEntryOversubscribed(entry);
            for (const json::Value &b : base_sweep->items()) {
                if (static_cast<int>(numberAt(&b, "threads")) == threads) {
                    baseline = numberAt(&b, "seconds");
                    stale = stale || core::sweepEntryOversubscribed(b);
                }
            }
            if (stale) {
                // Refuse to arm a wall-time gate against a number that
                // measured kernel time-slicing rather than the
                // simulator (threads > host_threads on either side).
                std::printf("  SKIP sweep %d threads: measurement was "
                            "oversubscribed (threads > host_threads) — "
                            "wall time not comparable\n",
                            threads);
                continue;
            }
            gateSeconds("sweep", std::to_string(threads) + " threads",
                        numberAt(&entry, "seconds"), baseline, threshold);
        }
    } else {
        fail("speed_simulation.sweep missing from current or baseline");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string current_path = envString("WC3D_BENCH_JSON",
                                         "BENCH_speed.json");
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (argv[i][0] != '-') {
            current_path = argv[i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_gate [current.json] "
                         "[--baseline baseline.json]\n");
            return 2;
        }
    }

    json::Value doc;
    if (!loadDoc(current_path, doc))
        return 1;

    double min_fragment = envDouble("WC3D_GATE_MIN_SPEEDUP", 2.0);
    double min_parallel = envDouble("WC3D_GATE_MIN_PARALLEL_SPEEDUP", 1.4);
    double threshold = envDouble("WC3D_GATE_THRESHOLD", 0.20);

    std::printf("bench_gate: %s (host %s)\n", current_path.c_str(),
                hostSummary(doc).c_str());
    gateInterpRatios(doc, min_fragment);
    gateParallelSpeedup(doc, min_parallel);

    if (!baseline_path.empty()) {
        json::Value base;
        if (!loadDoc(baseline_path, base))
            return 1;
        if (hostSummary(base) == hostSummary(doc)) {
            std::printf("baseline: %s (host matches)\n",
                        baseline_path.c_str());
            gateWallTimes(doc, base, threshold);
        } else {
            std::printf("baseline: %s host differs (%s) — wall-time "
                        "gates skipped, ratio gates still apply\n",
                        baseline_path.c_str(),
                        hostSummary(base).c_str());
        }
    }

    if (g_failures > 0) {
        std::printf("bench_gate: %d gate(s) FAILED\n", g_failures);
        return 1;
    }
    std::printf("bench_gate: all gates passed\n");
    return 0;
}
