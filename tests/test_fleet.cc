/**
 * @file
 * Fleet metrics store: ingest/dedupe/reject round trips, index
 * persistence across reopen, stage-breakdown and counter-flatten
 * queries, the drift gate behind `wc3d-fleet query --regress`, store
 * consistency checking (corrupt blobs, orphans, torn index) and the
 * self-contained HTML report.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/fs.hh"
#include "common/json.hh"
#include "fleet/query.hh"
#include "fleet/report.hh"
#include "fleet/store.hh"

using namespace wc3d;
using namespace wc3d::fleet;

namespace {

/** Fresh per-test store directory (process-unique: ctest parallelism). */
std::string
storeDir(const char *name)
{
    return ::testing::TempDir() + "wc3d_fleet_" +
           std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

/** Best-effort recursive cleanup of a store directory. */
void
removeStore(const std::string &dir)
{
    for (const char *sub : {"/blobs", "/quarantine"}) {
        std::vector<std::string> names;
        if (listDir(dir + sub, names)) {
            for (const std::string &n : names)
                std::remove((dir + sub + "/" + n).c_str());
        }
        ::rmdir((dir + sub).c_str());
    }
    std::remove((dir + "/index.json").c_str());
    ::rmdir(dir.c_str());
}

/** Minimal valid wc3d-metrics-v1 manifest with tweakable counters. */
json::Value
metricsDoc(const std::string &git, std::uint64_t indices,
           std::uint64_t hits, std::uint64_t accesses,
           bool extra_counter = false)
{
    json::Value doc = json::Value::object();
    doc.set("schema", json::Value::str("wc3d-metrics-v1"));
    doc.set("schemaMinor", json::Value::number(std::uint64_t(1)));
    json::Value host = json::Value::object();
    host.set("hostname", json::Value::str("fleet-test-host"));
    host.set("hardwareThreads", json::Value::number(std::uint64_t(8)));
    doc.set("host", std::move(host));
    json::Value config = json::Value::object();
    config.set("threads", json::Value::number(std::uint64_t(2)));
    config.set("git", json::Value::str(git));
    config.set("width", json::Value::number(std::uint64_t(96)));
    config.set("runCache", json::Value::boolean(false));
    doc.set("config", std::move(config));
    json::Value phases = json::Value::array();
    const struct
    {
        const char *name;
        double seconds;
        std::uint64_t calls;
    } rows[] = {{"shade", 0.25, 20}, {"raster", 0.75, 10}};
    for (const auto &row : rows) {
        json::Value phase = json::Value::object();
        phase.set("name", json::Value::str(row.name));
        phase.set("seconds", json::Value::number(row.seconds));
        phase.set("calls", json::Value::number(row.calls));
        phases.push(std::move(phase));
    }
    doc.set("phases", std::move(phases));
    json::Value runs = json::Value::array();
    json::Value run = json::Value::object();
    run.set("kind", json::Value::str("micro"));
    run.set("id", json::Value::str("doom3/trdemo2"));
    run.set("seconds", json::Value::number(1.0));
    run.set("counters", json::Value::object());
    runs.push(std::move(run));
    doc.set("runs", std::move(runs));
    json::Value counters = json::Value::object();
    counters.set("sim.d.indices", json::Value::number(indices));
    counters.set("sim.d.cache.z.hits", json::Value::number(hits));
    counters.set("sim.d.cache.z.accesses",
                 json::Value::number(accesses));
    if (extra_counter)
        counters.set("sim.d.newCounter",
                     json::Value::number(std::uint64_t(7)));
    json::Value registry = json::Value::object();
    registry.set("counters", std::move(counters));
    registry.set("distributions", json::Value::object());
    doc.set("registry", std::move(registry));
    return doc;
}

/** Minimal valid wc3d-bench-speed-v1 document. */
json::Value
benchDoc(double wall, double fps4)
{
    json::Value doc = json::Value::object();
    doc.set("schema", json::Value::str("wc3d-bench-speed-v1"));
    doc.set("git", json::Value::str("v1-bench"));
    json::Value benches = json::Value::object();
    json::Value b = json::Value::object();
    b.set("wall_seconds", json::Value::number(wall));
    benches.set("speed_simulation", std::move(b));
    doc.set("benches", std::move(benches));
    json::Value sim = json::Value::object();
    sim.set("game", json::Value::str("doom3/trdemo2"));
    sim.set("frames", json::Value::number(std::uint64_t(4)));
    json::Value sweep = json::Value::array();
    for (std::uint64_t threads : {std::uint64_t(1), std::uint64_t(4)}) {
        json::Value point = json::Value::object();
        point.set("threads", json::Value::number(threads));
        point.set("frames_per_sec",
                  json::Value::number(threads == 1 ? fps4 / 3.0
                                                   : fps4));
        sweep.push(std::move(point));
    }
    sim.set("sweep", std::move(sweep));
    doc.set("speed_simulation", std::move(sim));
    json::Value host = json::Value::object();
    host.set("cpu", json::Value::str("test-cpu"));
    host.set("threads", json::Value::number(std::uint64_t(8)));
    doc.set("host", std::move(host));
    return doc;
}

} // namespace

TEST(Fleet, IngestDedupesByContentAndSurvivesReopen)
{
    std::string dir = storeDir("ingest");
    removeStore(dir);
    {
        FleetStore store(dir);
        FleetError err;
        ASSERT_TRUE(store.open(&err)) << err.describe();
        EXPECT_TRUE(store.entries().empty());

        // Write the same document twice with different formatting;
        // content addressing must collapse them.
        json::Value doc = metricsDoc("v1", 1000, 90, 100);
        std::string compact = dir + "_compact.json";
        std::string pretty = dir + "_pretty.json";
        std::string error;
        ASSERT_TRUE(
            json::writeFileAtomic(compact, doc.serialize(0), &error));
        ASSERT_TRUE(
            json::writeFileAtomic(pretty, doc.serialize(2), &error));

        EXPECT_EQ(store.ingestFile(compact, &err),
                  FleetStore::IngestResult::Added);
        EXPECT_EQ(store.ingestFile(pretty, &err),
                  FleetStore::IngestResult::Duplicate);
        ASSERT_EQ(store.entries().size(), 1u);
        // Copy: the next ingest may reallocate the entries vector.
        const IndexEntry e = store.entries()[0];
        EXPECT_EQ(e.seq, 1u);
        EXPECT_EQ(e.kind, Kind::Metrics);
        EXPECT_EQ(e.git, "v1");
        EXPECT_EQ(e.host, "fleet-test-host/8");
        ASSERT_EQ(e.demos.size(), 1u);
        EXPECT_EQ(e.demos[0], "doom3/trdemo2");

        // Same knobs, new git: new blob, same config fingerprint
        // (git and runCache are excluded from it).
        ASSERT_EQ(store.ingestDocument(metricsDoc("v2", 1000, 90, 100),
                                       "unit", &err),
                  FleetStore::IngestResult::Added)
            << err.describe();
        ASSERT_EQ(store.entries().size(), 2u);
        EXPECT_EQ(store.entries()[1].seq, 2u);
        EXPECT_EQ(store.entries()[1].config, e.config);

        std::remove(compact.c_str());
        std::remove(pretty.c_str());
    }
    // Reopen: the index round-trips.
    {
        FleetStore store(dir);
        FleetError err;
        ASSERT_TRUE(store.open(&err)) << err.describe();
        ASSERT_EQ(store.entries().size(), 2u);
        EXPECT_EQ(store.entries()[0].git, "v1");
        EXPECT_EQ(store.entries()[1].git, "v2");
        json::Value doc;
        ASSERT_TRUE(store.loadEntry(store.entries()[0], doc, &err))
            << err.describe();
        EXPECT_EQ(doc.find("config")->find("git")->asString(), "v1");
    }
    removeStore(dir);
}

TEST(Fleet, IngestRejectsInvalidDocumentsWithStructuredErrors)
{
    std::string dir = storeDir("reject");
    removeStore(dir);
    FleetStore store(dir);
    FleetError err;
    ASSERT_TRUE(store.open(&err));

    // Unknown schema, missing schema, structurally broken metrics.
    const char *bad[] = {
        "{\"schema\":\"wc3d-other-v1\"}",
        "{}",
        "[1,2,3]",
        "{\"schema\":\"wc3d-metrics-v1\",\"config\":{}}",
        "{\"schema\":\"wc3d-serve-metrics-v1\"}",
        "{\"schema\":\"wc3d-bench-speed-v1\"}",
    };
    for (const char *text : bad) {
        json::Value doc;
        std::string error;
        ASSERT_TRUE(json::parse(text, doc, &error)) << text;
        err = FleetError{};
        EXPECT_EQ(store.ingestDocument(doc, "unit", &err),
                  FleetStore::IngestResult::Error)
            << text;
        EXPECT_FALSE(err.reason.empty()) << text;
        EXPECT_EQ(err.path, "unit") << text;
    }
    // A schemaMinor >= 1 document without a host block must fail.
    json::Value doc = metricsDoc("v1", 1, 1, 1);
    doc.set("host", json::Value::null());
    EXPECT_EQ(store.ingestDocument(doc, "unit", &err),
              FleetStore::IngestResult::Error);

    // Nothing was stored; an unreadable path is an Error too.
    EXPECT_TRUE(store.entries().empty());
    EXPECT_EQ(store.ingestFile(dir + "/no_such.json", &err),
              FleetStore::IngestResult::Error);
    removeStore(dir);
}

TEST(Fleet, ClassifiesAllThreeArtifactKinds)
{
    std::string dir = storeDir("kinds");
    removeStore(dir);
    FleetStore store(dir);
    FleetError err;
    ASSERT_TRUE(store.open(&err));
    ASSERT_EQ(store.ingestDocument(metricsDoc("g", 1, 1, 1), "m", &err),
              FleetStore::IngestResult::Added)
        << err.describe();
    ASSERT_EQ(store.ingestDocument(benchDoc(10.0, 40.0), "b", &err),
              FleetStore::IngestResult::Added)
        << err.describe();
    ASSERT_EQ(store.entries().size(), 2u);
    EXPECT_EQ(store.entries()[0].kind, Kind::Metrics);
    EXPECT_EQ(store.entries()[1].kind, Kind::Bench);
    // Metrics demos come from the run list, bench from the sweep game;
    // the bench host falls back to its cpu/threads block.
    ASSERT_EQ(store.entries()[0].demos.size(), 1u);
    EXPECT_EQ(store.entries()[0].demos[0], "doom3/trdemo2");
    ASSERT_EQ(store.entries()[1].demos.size(), 1u);
    EXPECT_EQ(store.entries()[1].demos[0], "doom3/trdemo2");
    EXPECT_EQ(store.entries()[1].host, "test-cpu/8");
    EXPECT_EQ(store.entry(2)->git, "v1-bench");
    EXPECT_EQ(store.entry(99), nullptr);

    // The third tag, the retired serve-daemon manifest, classifies as
    // unknown even when it carries every field it once needed.
    json::Value serve;
    std::string error;
    ASSERT_TRUE(json::parse("{\"schema\":\"wc3d-serve-metrics-v1\","
                            "\"git\":\"g\",\"jobs\":[]}",
                            serve, &error));
    Kind kind = Kind::Metrics;
    std::string reason;
    EXPECT_FALSE(classifyDocument(serve, &kind, &reason));
    EXPECT_NE(reason.find("unknown schema tag"), std::string::npos)
        << reason;
    removeStore(dir);
}

TEST(Fleet, StageBreakdownSortsAndFractions)
{
    json::Value doc = metricsDoc("g", 1, 1, 1);
    auto stages = stageBreakdown(doc);
    ASSERT_EQ(stages.size(), 2u);
    // Descending by seconds, fractions of the total.
    EXPECT_EQ(stages[0].name, "raster");
    EXPECT_DOUBLE_EQ(stages[0].seconds, 0.75);
    EXPECT_DOUBLE_EQ(stages[0].fraction, 0.75);
    EXPECT_EQ(stages[0].calls, 10u);
    EXPECT_EQ(stages[1].name, "shade");
    EXPECT_DOUBLE_EQ(stages[1].fraction, 0.25);
    // Bench documents carry no phase clock.
    EXPECT_TRUE(stageBreakdown(benchDoc(10.0, 40.0)).empty());
}

TEST(Fleet, FlattenDerivesRatesAndCoversEveryKind)
{
    auto metrics = flattenCounters(metricsDoc("g", 1000, 90, 100),
                                   Kind::Metrics);
    ASSERT_EQ(metrics.size(), 4u); // 3 counters + derived hitRate
    bool found_rate = false;
    for (const auto &kv : metrics) {
        if (kv.first == "sim.d.cache.z.hitRate") {
            found_rate = true;
            EXPECT_DOUBLE_EQ(kv.second, 0.9);
        }
    }
    EXPECT_TRUE(found_rate);

    auto bench = flattenCounters(benchDoc(10.0, 40.0), Kind::Bench);
    bool found_wall = false, found_fps = false;
    for (const auto &kv : bench) {
        if (kv.first == "bench.speed_simulation.wall_seconds" &&
            kv.second == 10.0)
            found_wall = true;
        if (kv.first == "bench.sweep.t4.frames_per_sec" &&
            kv.second == 40.0)
            found_fps = true;
    }
    EXPECT_TRUE(found_wall);
    EXPECT_TRUE(found_fps);
}

TEST(Fleet, RegressionGateFlagsDriftBeyondThreshold)
{
    json::Value base = metricsDoc("v1", 1000, 90, 100);
    json::Value same = metricsDoc("v2", 1000, 90, 100);
    json::Value worse = metricsDoc("v2", 1000, 50, 100); // rate 0.9->0.5

    std::vector<Drift> exceeded;
    std::vector<std::string> only_base, only_cur;
    std::size_t n = compareCounters(base, same, Kind::Metrics, 0.05,
                                    "", &exceeded, &only_base,
                                    &only_cur);
    EXPECT_EQ(n, 4u);
    EXPECT_TRUE(exceeded.empty());
    EXPECT_TRUE(only_base.empty());
    EXPECT_TRUE(only_cur.empty());

    exceeded.clear();
    compareCounters(base, worse, Kind::Metrics, 0.05, "", &exceeded,
                    nullptr, nullptr);
    // hits dropped 44% and the derived rate with it.
    ASSERT_EQ(exceeded.size(), 2u);
    EXPECT_EQ(exceeded[0].name, "sim.d.cache.z.hitRate");
    EXPECT_NEAR(exceeded[0].rel, 4.0 / 9.0, 1e-9);
    EXPECT_EQ(exceeded[1].name, "sim.d.cache.z.hits");

    // A looser threshold passes the same pair.
    exceeded.clear();
    compareCounters(base, worse, Kind::Metrics, 0.5, "", &exceeded,
                    nullptr, nullptr);
    EXPECT_TRUE(exceeded.empty());

    // Prefix restricts both the gate and the compared count.
    exceeded.clear();
    n = compareCounters(base, worse, Kind::Metrics, 0.05,
                        "sim.d.indices", &exceeded, nullptr, nullptr);
    EXPECT_EQ(n, 1u);
    EXPECT_TRUE(exceeded.empty());

    // One-sided counters are reported, not gated.
    json::Value extra =
        metricsDoc("v2", 1000, 90, 100, /*extra_counter=*/true);
    only_base.clear();
    only_cur.clear();
    exceeded.clear();
    compareCounters(base, extra, Kind::Metrics, 0.05, "", &exceeded,
                    &only_base, &only_cur);
    EXPECT_TRUE(exceeded.empty());
    EXPECT_TRUE(only_base.empty());
    ASSERT_EQ(only_cur.size(), 1u);
    EXPECT_EQ(only_cur[0], "sim.d.newCounter");
}

TEST(Fleet, CheckDetectsCorruptBlobsAndOrphans)
{
    std::string dir = storeDir("check");
    removeStore(dir);
    FleetStore store(dir);
    FleetError err;
    ASSERT_TRUE(store.open(&err));
    ASSERT_EQ(store.ingestDocument(metricsDoc("v1", 1, 1, 1), "u", &err),
              FleetStore::IngestResult::Added);
    ASSERT_EQ(store.ingestDocument(benchDoc(10.0, 40.0), "u", &err),
              FleetStore::IngestResult::Added);

    std::vector<std::string> problems;
    EXPECT_TRUE(store.check(&problems)) << problems.front();
    EXPECT_TRUE(problems.empty());

    // A hand-edited blob no longer hashes to its address.
    json::Value tampered = metricsDoc("v1-tampered", 1, 1, 1);
    std::string error;
    ASSERT_TRUE(json::writeFileAtomic(
        store.blobPath(store.entries()[0].blob),
        tampered.serialize(1) + "\n", &error));
    // An orphan blob no index entry references.
    ASSERT_TRUE(json::writeFileAtomic(dir + "/blobs/feedfeedfeedfeed.json",
                                      "{}", &error));
    problems.clear();
    EXPECT_FALSE(store.check(&problems));
    ASSERT_EQ(problems.size(), 2u);
    EXPECT_NE(problems[0].find("does not match its address"),
              std::string::npos)
        << problems[0];
    EXPECT_NE(problems[1].find("orphaned blob"), std::string::npos)
        << problems[1];
    removeStore(dir);
}

TEST(Fleet, RepairQuarantinesEvidenceAndDropsBrokenEntries)
{
    std::string dir = storeDir("repair");
    removeStore(dir);
    FleetStore store(dir);
    FleetError err;
    ASSERT_TRUE(store.open(&err));
    ASSERT_EQ(store.ingestDocument(metricsDoc("v1", 1, 1, 1), "u", &err),
              FleetStore::IngestResult::Added);
    ASSERT_EQ(store.ingestDocument(metricsDoc("v2", 2, 1, 2), "u", &err),
              FleetStore::IngestResult::Added);
    ASSERT_EQ(store.ingestDocument(benchDoc(10.0, 40.0), "u", &err),
              FleetStore::IngestResult::Added);
    const std::string tampered_blob = store.entries()[0].blob;
    const std::string missing_blob = store.entries()[1].blob;
    const std::uint64_t surviving_seq = store.entries()[2].seq;

    // Break the store three ways: a blob that no longer hashes to its
    // address, a blob deleted out from under its entry, and an orphan
    // no entry references.
    std::string error;
    ASSERT_TRUE(json::writeFileAtomic(store.blobPath(tampered_blob),
                                      "{\"tampered\":true}", &error));
    ASSERT_EQ(std::remove(store.blobPath(missing_blob).c_str()), 0);
    ASSERT_TRUE(json::writeFileAtomic(
        dir + "/blobs/feedfeedfeedfeed.json", "{}", &error));
    std::vector<std::string> problems;
    EXPECT_FALSE(store.check(&problems));

    std::vector<std::string> actions;
    ASSERT_TRUE(store.repair(&actions, &err)) << err.describe();
    ASSERT_EQ(actions.size(), 3u);
    EXPECT_NE(actions[0].find("quarantined"), std::string::npos)
        << actions[0];
    EXPECT_NE(actions[1].find("dropped entry"), std::string::npos)
        << actions[1];
    EXPECT_NE(actions[2].find("orphaned blob"), std::string::npos)
        << actions[2];

    // The store now passes check; the survivor kept its seq (gaps in
    // the sequence are legal — it only ever ascends).
    problems.clear();
    EXPECT_TRUE(store.check(&problems))
        << (problems.empty() ? "" : problems.front());
    ASSERT_EQ(store.entries().size(), 1u);
    EXPECT_EQ(store.entries()[0].seq, surviving_seq);
    EXPECT_EQ(store.entries()[0].kind, Kind::Bench);

    // Evidence preserved, not deleted: both bad blobs moved to
    // quarantine/ and are gone from blobs/.
    std::vector<std::string> q;
    ASSERT_TRUE(listDir(dir + "/quarantine", q));
    ASSERT_EQ(q.size(), 2u);
    EXPECT_TRUE(std::find(q.begin(), q.end(),
                          tampered_blob + ".json") != q.end());
    EXPECT_TRUE(std::find(q.begin(), q.end(),
                          "feedfeedfeedfeed.json") != q.end());
    std::vector<std::string> blobs;
    ASSERT_TRUE(listDir(dir + "/blobs", blobs));
    EXPECT_EQ(blobs.size(), 1u);

    // The rewritten index survives a reopen, and the repaired store
    // keeps accepting ingests with ascending seqs.
    FleetStore reopened(dir);
    ASSERT_TRUE(reopened.open(&err)) << err.describe();
    ASSERT_EQ(reopened.entries().size(), 1u);
    EXPECT_EQ(reopened.entries()[0].seq, surviving_seq);
    ASSERT_EQ(reopened.ingestDocument(metricsDoc("v9", 2, 1, 2), "u",
                                      &err),
              FleetStore::IngestResult::Added)
        << err.describe();
    EXPECT_GT(reopened.entries()[1].seq, surviving_seq);
    removeStore(dir);
}

TEST(Fleet, RepairOnAHealthyStoreIsANoOp)
{
    std::string dir = storeDir("repair_noop");
    removeStore(dir);
    FleetStore store(dir);
    FleetError err;
    ASSERT_TRUE(store.open(&err));
    ASSERT_EQ(store.ingestDocument(metricsDoc("v1", 1, 1, 1), "u", &err),
              FleetStore::IngestResult::Added);
    std::vector<std::string> actions;
    ASSERT_TRUE(store.repair(&actions, &err)) << err.describe();
    EXPECT_TRUE(actions.empty());
    ASSERT_EQ(store.entries().size(), 1u);
    std::vector<std::string> problems;
    EXPECT_TRUE(store.check(&problems));
    // No quarantine directory materializes for a clean store.
    std::vector<std::string> q;
    EXPECT_FALSE(listDir(dir + "/quarantine", q));
    removeStore(dir);
}

TEST(Fleet, OpenRejectsCorruptIndexButNotAbsentOne)
{
    std::string dir = storeDir("torn");
    removeStore(dir);
    FleetStore store(dir);
    FleetError err;
    EXPECT_TRUE(store.open(&err)); // absent index = empty store

    ASSERT_TRUE(makeDirs(dir));
    std::string error;
    ASSERT_TRUE(json::writeFileAtomic(dir + "/index.json",
                                      "{\"schema\":\"wc3d-fleet-",
                                      &error));
    EXPECT_FALSE(store.open(&err));
    EXPECT_EQ(err.path, dir + "/index.json");
    EXPECT_FALSE(err.reason.empty());

    // Wrong schema and out-of-order seq are also corrupt.
    ASSERT_TRUE(json::writeFileAtomic(
        dir + "/index.json", "{\"schema\":\"other\",\"entries\":[]}",
        &error));
    EXPECT_FALSE(store.open(&err));
    ASSERT_TRUE(json::writeFileAtomic(
        dir + "/index.json",
        "{\"schema\":\"wc3d-fleet-index-v1\",\"entries\":["
        "{\"seq\":2,\"kind\":\"metrics\",\"blob\":"
        "\"0123456789abcdef\"},"
        "{\"seq\":1,\"kind\":\"metrics\",\"blob\":"
        "\"0123456789abcdef\"}]}",
        &error));
    EXPECT_FALSE(store.open(&err));
    EXPECT_NE(err.reason.find("out of order"), std::string::npos)
        << err.reason;
    // So is an entry of a kind the store no longer knows.
    ASSERT_TRUE(json::writeFileAtomic(
        dir + "/index.json",
        "{\"schema\":\"wc3d-fleet-index-v1\",\"entries\":["
        "{\"seq\":1,\"kind\":\"serve\",\"blob\":"
        "\"0123456789abcdef\"}]}",
        &error));
    EXPECT_FALSE(store.open(&err));
    EXPECT_NE(err.reason.find("unknown"), std::string::npos)
        << err.reason;
    removeStore(dir);
}

TEST(Fleet, HtmlReportIsSelfContainedAndEscaped)
{
    std::string dir = storeDir("report");
    removeStore(dir);
    FleetStore store(dir);
    FleetError err;
    ASSERT_TRUE(store.open(&err));
    ASSERT_EQ(store.ingestDocument(
                  metricsDoc("v1<script>", 1000, 90, 100), "u", &err),
              FleetStore::IngestResult::Added);
    ASSERT_EQ(store.ingestDocument(metricsDoc("v2", 900, 80, 100), "u",
                                   &err),
              FleetStore::IngestResult::Added);
    ASSERT_EQ(store.ingestDocument(benchDoc(11.0, 36.0), "u", &err),
              FleetStore::IngestResult::Added);
    ASSERT_EQ(store.ingestDocument(benchDoc(12.5, 32.0), "u", &err),
              FleetStore::IngestResult::Added);

    std::string html = renderHtmlReport(store, &err);
    ASSERT_FALSE(html.empty()) << err.describe();
    // Self-contained: inline style + SVG, no scripts or external refs.
    EXPECT_NE(html.find("<style>"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);
    EXPECT_EQ(html.find("<script"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    // Every section rendered: trajectory, stages, sweep.
    EXPECT_NE(html.find("raster"), std::string::npos);
    EXPECT_NE(html.find("doom3/trdemo2"), std::string::npos);
    // The hostile git string arrived escaped.
    EXPECT_EQ(html.find("v1<script>"), std::string::npos);
    EXPECT_NE(html.find("v1&lt;script&gt;"), std::string::npos);

    EXPECT_EQ(htmlEscape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    removeStore(dir);
}

TEST(Fleet, ContentHashIsStableHex)
{
    // FNV-1a 64 reference values: the store's addresses must never
    // silently change shape or seed.
    EXPECT_EQ(contentHash(""), "cbf29ce484222325");
    EXPECT_EQ(contentHash("a"), "af63dc4c8601ec8c");
    EXPECT_EQ(contentHash("ab"), contentHash("ab"));
    EXPECT_NE(contentHash("ab"), contentHash("ba"));
}
