/**
 * @file
 * Observability layer: the JSON model round-trips exactly, Chrome
 * traces written by common/prof parse and validate (spans nest, no
 * negative durations), the WC3D_METRICS_OUT document carries every
 * registered counter/distribution, and the WC3D_LOG_LEVEL knob parses
 * the documented spellings.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/prof.hh"
#include "common/threadpool.hh"
#include "core/runmeta.hh"
#include "core/runner.hh"

using namespace wc3d;
using namespace wc3d::core;

namespace {

/** Tiny run: correctness of the export, not workload scale. */
constexpr int kFrames = 1;
constexpr int kWidth = 96;
constexpr int kHeight = 64;

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

/** Restores prof recording state and buffers around a test. */
class ProfSandbox
{
  public:
    ProfSandbox() : _wasEnabled(prof::enabled())
    {
        prof::reset();
        prof::setEnabled(true);
    }

    ~ProfSandbox()
    {
        prof::setEnabled(_wasEnabled);
        prof::reset();
    }

  private:
    bool _wasEnabled;
};

} // namespace

// --- JSON model ----------------------------------------------------

TEST(Json, SerializeParseRoundTrip)
{
    json::Value doc = json::Value::object();
    doc.set("u", json::Value::number(std::uint64_t(18446744073709551615ull)));
    doc.set("i", json::Value::number(std::int64_t(-42)));
    doc.set("d", json::Value::number(1.5));
    doc.set("s", json::Value::str("a \"quoted\"\nline\t\\"));
    doc.set("b", json::Value::boolean(true));
    doc.set("n", json::Value::null());
    json::Value arr = json::Value::array();
    arr.push(json::Value::number(1));
    arr.push(json::Value::number(2.25));
    arr.push(json::Value::str("x"));
    doc.set("a", std::move(arr));

    for (int indent : {0, 2}) {
        json::Value back;
        std::string error;
        ASSERT_TRUE(json::parse(doc.serialize(indent), back, &error))
            << error;
        EXPECT_EQ(back.find("u")->asU64(), 18446744073709551615ull);
        EXPECT_EQ(back.find("i")->asI64(), -42);
        EXPECT_EQ(back.find("d")->asDouble(), 1.5);
        EXPECT_EQ(back.find("s")->asString(), "a \"quoted\"\nline\t\\");
        EXPECT_TRUE(back.find("b")->asBool());
        EXPECT_TRUE(back.find("n")->isNull());
        ASSERT_EQ(back.find("a")->size(), 3u);
        EXPECT_EQ(back.find("a")->at(1).asDouble(), 2.25);
        // Exact integers stay integers and doubles stay doubles.
        EXPECT_EQ(back.find("u")->type(), json::Value::Type::Unsigned);
        EXPECT_EQ(back.find("i")->type(), json::Value::Type::Signed);
        EXPECT_EQ(back.find("d")->type(), json::Value::Type::Double);
    }
}

TEST(Json, MemberOrderPreservedAndReplaced)
{
    json::Value doc = json::Value::object();
    doc.set("z", json::Value::number(1));
    doc.set("a", json::Value::number(2));
    doc.set("z", json::Value::number(3)); // replaces, keeps position
    ASSERT_EQ(doc.members().size(), 2u);
    EXPECT_EQ(doc.members()[0].first, "z");
    EXPECT_EQ(doc.members()[0].second.asU64(), 3u);
    EXPECT_EQ(doc.serialize(), "{\"z\":3,\"a\":2}");
}

TEST(Json, RejectsMalformedInput)
{
    const char *bad[] = {"",      "{",      "[1,]",      "{\"a\":}",
                         "nulll", "\"open", "{\"a\" 1}", "[1 2]",
                         "--1"};
    for (const char *text : bad) {
        json::Value out;
        std::string error;
        EXPECT_FALSE(json::parse(text, out, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
    // Trailing garbage after a valid document is an error too.
    json::Value out;
    std::string error;
    EXPECT_FALSE(json::parse("{} x", out, &error));
}

TEST(Json, NonFiniteDoublesSerializeAsNull)
{
    json::Value doc = json::Value::array();
    doc.push(json::Value::number(0.0 / 0.0));
    doc.push(json::Value::number(1e308 * 10));
    EXPECT_EQ(doc.serialize(), "[null,null]");
}

TEST(Json, AtomicFileWriteAndParseFile)
{
    std::string path = tempPath("wc3d_json_roundtrip.json");
    json::Value doc = json::Value::object();
    doc.set("hello", json::Value::str("world"));
    std::string error;
    ASSERT_TRUE(json::writeFileAtomic(path, doc.serialize(1), &error))
        << error;
    json::Value back;
    ASSERT_TRUE(json::parseFile(path, back, &error)) << error;
    EXPECT_EQ(back.find("hello")->asString(), "world");
    std::remove(path.c_str());

    EXPECT_FALSE(json::parseFile(tempPath("wc3d_no_such_file.json"),
                                 back, &error));
    EXPECT_FALSE(json::writeFileAtomic(
        tempPath("no_such_dir/sub/x.json"), "{}", &error));
}

// --- Chrome trace export -------------------------------------------

TEST(Prof, DisabledSpansRecordNothing)
{
    bool was = prof::enabled();
    prof::setEnabled(false);
    prof::reset();
    {
        WC3D_PROF_SCOPE("never.recorded");
    }
    EXPECT_EQ(prof::eventCount(), 0u);
    prof::setEnabled(was);
}

TEST(Prof, TraceValidatesAndNests)
{
    ProfSandbox sandbox;
    {
        prof::ScopedProcess process(7, "unit-test");
        WC3D_PROF_SCOPE("outer");
        {
            WC3D_PROF_SCOPE("inner", "detail");
        }
        {
            WC3D_PROF_SCOPE("inner", "again");
        }
    }
    EXPECT_EQ(prof::eventCount(), 3u);

    std::string path = tempPath("wc3d_prof_unit.json");
    std::string error;
    ASSERT_TRUE(prof::writeChromeTrace(path, &error)) << error;
    json::Value doc;
    ASSERT_TRUE(json::parseFile(path, doc, &error)) << error;
    std::size_t events = 0;
    EXPECT_TRUE(prof::validateChromeTrace(doc, &error, &events))
        << error;
    EXPECT_EQ(events, 3u);
    std::remove(path.c_str());

    // The detail form labels the event "name:detail".
    bool found = false;
    for (const json::Value &e : doc.find("traceEvents")->items()) {
        const json::Value *name = e.find("name");
        if (name && name->asString() == "inner:detail")
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Prof, SimulationTraceValidates)
{
    ProfSandbox sandbox;
    ThreadPool::setGlobalThreads(2);
    runMicroarch("doom3/trdemo2", kFrames, kWidth, kHeight,
                 /*allow_cache=*/false);
    ThreadPool::setGlobalThreads(1);
    ASSERT_GT(prof::eventCount(), 0u);

    std::string path = tempPath("wc3d_prof_sim.json");
    std::string error;
    ASSERT_TRUE(prof::writeChromeTrace(path, &error)) << error;
    json::Value doc;
    ASSERT_TRUE(json::parseFile(path, doc, &error)) << error;
    std::size_t events = 0;
    EXPECT_TRUE(prof::validateChromeTrace(doc, &error, &events))
        << error;
    EXPECT_GT(events, 0u);
    std::remove(path.c_str());
}

TEST(Prof, ValidatorRejectsBrokenTraces)
{
    std::string error;
    json::Value doc;

    ASSERT_TRUE(json::parse("{\"traceEvents\":1}", doc, &error));
    EXPECT_FALSE(prof::validateChromeTrace(doc, &error));

    // Negative duration.
    ASSERT_TRUE(json::parse(
        "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"pid\":0,"
        "\"tid\":1,\"ts\":5,\"dur\":-1}]}",
        doc, &error));
    EXPECT_FALSE(prof::validateChromeTrace(doc, &error));

    // Partial overlap within one lane: begin/end were unbalanced.
    ASSERT_TRUE(json::parse(
        "{\"traceEvents\":["
        "{\"ph\":\"X\",\"name\":\"a\",\"pid\":0,\"tid\":1,\"ts\":0,"
        "\"dur\":10},"
        "{\"ph\":\"X\",\"name\":\"b\",\"pid\":0,\"tid\":1,\"ts\":5,"
        "\"dur\":10}]}",
        doc, &error));
    EXPECT_FALSE(prof::validateChromeTrace(doc, &error));

    // Missing a required field.
    ASSERT_TRUE(json::parse(
        "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"pid\":0,"
        "\"ts\":0,\"dur\":1}]}",
        doc, &error));
    EXPECT_FALSE(prof::validateChromeTrace(doc, &error));
}

// --- Run metrics ---------------------------------------------------

TEST(RunMeta, MetricsDocumentRoundTripsEveryRegistryEntry)
{
    RunMeta &meta = RunMeta::global();
    meta.reset();
    ThreadPool::setGlobalThreads(1);
    runApiLevel("quake4/demo4", 4);
    runMicroarch("doom3/trdemo2", kFrames, kWidth, kHeight,
                 /*allow_cache=*/false);

    auto counters = meta.counterNames();
    auto dists = meta.distributionNames();
    ASSERT_FALSE(counters.empty());
    ASSERT_FALSE(dists.empty());

    std::string path = tempPath("wc3d_metrics_unit.json");
    std::string error;
    ASSERT_TRUE(meta.write(path, &error)) << error;
    json::Value doc;
    ASSERT_TRUE(json::parseFile(path, doc, &error)) << error;
    EXPECT_TRUE(validateMetrics(doc, &error)) << error;
    std::remove(path.c_str());

    // Every registered name survives the trip, with its exact value.
    const json::Value *reg = doc.find("registry");
    ASSERT_NE(reg, nullptr);
    const json::Value *cjson = reg->find("counters");
    const json::Value *djson = reg->find("distributions");
    ASSERT_NE(cjson, nullptr);
    ASSERT_NE(djson, nullptr);
    for (const auto &name : counters) {
        const json::Value *v = cjson->find(name);
        ASSERT_NE(v, nullptr) << name;
        EXPECT_EQ(v->asU64(), meta.counterValue(name)) << name;
    }
    for (const auto &name : dists)
        EXPECT_NE(djson->find(name), nullptr) << name;

    // Spot-check the hierarchical naming contract.
    EXPECT_NE(cjson->find("api.quake4/demo4.indices"), nullptr);
    EXPECT_NE(cjson->find("sim.doom3/trdemo2.indices"), nullptr);
    EXPECT_NE(cjson->find("sim.doom3/trdemo2.cache.z.accesses"),
              nullptr);

    // Config section carries the run shape.
    const json::Value *config = doc.find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_NE(config->find("threads"), nullptr);
    EXPECT_NE(config->find("git"), nullptr);

    meta.reset();
    EXPECT_TRUE(meta.counterNames().empty());
}

TEST(RunMeta, RerunsReplaceNotAccumulate)
{
    RunMeta &meta = RunMeta::global();
    meta.reset();
    ThreadPool::setGlobalThreads(1);
    runApiLevel("quake4/demo4", 4);
    std::uint64_t first =
        meta.counterValue("api.quake4/demo4.indices");
    runApiLevel("quake4/demo4", 4);
    EXPECT_EQ(meta.counterValue("api.quake4/demo4.indices"), first);

    // Still exactly one run record for the id.
    json::Value doc = meta.toJson();
    ASSERT_NE(doc.find("runs"), nullptr);
    EXPECT_EQ(doc.find("runs")->size(), 1u);
    meta.reset();
}

TEST(RunMeta, ValidatorRejectsBrokenDocuments)
{
    std::string error;
    json::Value doc;
    ASSERT_TRUE(json::parse("{}", doc, &error));
    EXPECT_FALSE(validateMetrics(doc, &error));
    ASSERT_TRUE(json::parse("{\"schema\":\"other\"}", doc, &error));
    EXPECT_FALSE(validateMetrics(doc, &error));
}

// Fleet ingest keys entries by host; the manifest must identify where
// it was produced, and the validator must keep accepting pre-host
// (schemaMinor 0) documents so old archives still lint.
TEST(RunMeta, HostBlockVersioningAndValidation)
{
    RunMeta &meta = RunMeta::global();
    meta.reset();
    json::Value doc = meta.toJson();
    std::string error;
    ASSERT_TRUE(validateMetrics(doc, &error)) << error;

    const json::Value *minor = doc.find("schemaMinor");
    ASSERT_NE(minor, nullptr);
    EXPECT_GE(minor->asU64(), 1u);
    const json::Value *host = doc.find("host");
    ASSERT_NE(host, nullptr);
    ASSERT_TRUE(host->isObject());
    ASSERT_NE(host->find("hostname"), nullptr);
    EXPECT_FALSE(host->find("hostname")->asString().empty());
    ASSERT_NE(host->find("hardwareThreads"), nullptr);
    EXPECT_TRUE(host->find("hardwareThreads")->isNumber());

    // The fingerprint is "<hostname>/<hardwareThreads>".
    std::string fp = hostFingerprint(doc);
    EXPECT_NE(fp.find(host->find("hostname")->asString()),
              std::string::npos);
    EXPECT_NE(fp.find('/'), std::string::npos);
    json::Value bare = json::Value::object();
    EXPECT_EQ(hostFingerprint(bare), "unknown");

    // A legacy minor-0 document — no schemaMinor, no host block —
    // still validates.
    json::Value rebuilt = json::Value::object();
    for (const auto &member : doc.members()) {
        if (member.first != "host" && member.first != "schemaMinor")
            rebuilt.set(member.first, member.second);
    }
    ASSERT_TRUE(validateMetrics(rebuilt, &error)) << error;

    // Claiming minor >= 1 without the host block is rejected, as are
    // host blocks with a missing/empty hostname.
    json::Value lying = rebuilt;
    lying.set("schemaMinor", json::Value::number(std::uint64_t(1)));
    EXPECT_FALSE(validateMetrics(lying, &error));
    EXPECT_NE(error.find("host"), std::string::npos);

    json::Value anon = doc;
    json::Value bad_host = json::Value::object();
    bad_host.set("hostname", json::Value::str(""));
    bad_host.set("hardwareThreads", json::Value::number(8));
    anon.set("host", std::move(bad_host));
    EXPECT_FALSE(validateMetrics(anon, &error));
    EXPECT_NE(error.find("hostname"), std::string::npos);

    json::Value no_hw = doc;
    json::Value host2 = json::Value::object();
    host2.set("hostname", json::Value::str("h"));
    no_hw.set("host", std::move(host2));
    EXPECT_FALSE(validateMetrics(no_hw, &error));
    EXPECT_NE(error.find("hardwareThreads"), std::string::npos);

    // Minor 2 documents carried a shader-compiler stats block that
    // minor 3 dropped; the validator ignores blocks it does not know,
    // so archived minor-2 manifests still lint.
    EXPECT_GE(minor->asU64(), 3u);
    json::Value minor2 = doc;
    minor2.set("schemaMinor", json::Value::number(std::uint64_t(2)));
    json::Value compiler = json::Value::object();
    compiler.set("programsCompiled", json::Value::number(7));
    compiler.set("fallbacks", json::Value::number(0));
    minor2.set("shaderCompiler", std::move(compiler));
    EXPECT_TRUE(validateMetrics(minor2, &error)) << error;
}

// --- Log levels ----------------------------------------------------

TEST(Log, ParsesDocumentedLevelSpellings)
{
    struct Case
    {
        const char *text;
        LogLevel level;
    } cases[] = {
        {"quiet", LogLevel::Quiet}, {"warn", LogLevel::Warn},
        {"warning", LogLevel::Warn}, {"info", LogLevel::Info},
        {"debug", LogLevel::Debug}, {"0", LogLevel::Quiet},
        {"3", LogLevel::Debug},     {" Info ", LogLevel::Info},
        {"DEBUG", LogLevel::Debug},
    };
    for (const Case &c : cases) {
        LogLevel out = LogLevel::Warn;
        EXPECT_TRUE(parseLogLevel(c.text, out)) << c.text;
        EXPECT_EQ(out, c.level) << c.text;
    }
    LogLevel out = LogLevel::Info;
    EXPECT_FALSE(parseLogLevel("loud", out));
    EXPECT_FALSE(parseLogLevel("", out));
    EXPECT_FALSE(parseLogLevel("4", out));
    EXPECT_EQ(out, LogLevel::Info); // untouched on failure
}

TEST(Log, LevelGatesWriters)
{
    LogLevel saved = logLevel();
    setLogLevel(LogLevel::Quiet);
    // Nothing to assert on stderr contents here; this exercises the
    // gating paths for coverage and must simply not crash.
    warn("suppressed %d", 1);
    inform("suppressed %d", 2);
    debugLog("suppressed %d", 3);
    setLogLevel(LogLevel::Debug);
    debugLog("emitted at debug level");
    setLogLevel(saved);
}

TEST(Log, ConcurrentWritersDoNotRace)
{
    LogLevel saved = logLevel();
    setLogLevel(LogLevel::Quiet); // keep test output clean
    std::atomic<int> go{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&go] {
            ++go;
            while (go.load() < 4) {
            }
            for (int i = 0; i < 200; ++i)
                warn("thread message %d", i);
        });
    }
    for (auto &t : threads)
        t.join();
    setLogLevel(saved);
}

// A process killed by SIGTERM/SIGINT must still leave a valid trace:
// the std::atexit writer never runs on a signal death, so
// prof::installSignalFlush() is the only thing standing between an
// interrupted run and a silently empty trace file. Forks a traced
// child, kills it, and validates what it left behind.
TEST(Prof, SignalTerminationStillFlushesTrace)
{
    std::string trace_path = tempPath("wc3d_signal_trace.json");
    std::string ready_path = tempPath("wc3d_signal_ready");
    std::remove(trace_path.c_str());
    std::remove(ready_path.c_str());

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: record spans, mark readiness, then idle until the
        // parent's SIGTERM arrives. _exit on any escape path — the
        // child must never return into gtest.
        setenv("WC3D_TRACE_OUT", trace_path.c_str(), 1);
        prof::reset();
        prof::setEnabled(true);
        prof::installSignalFlush();
        for (int i = 0; i < 50; ++i) {
            WC3D_PROF_SCOPE("signal.span");
        }
        std::FILE *f = std::fopen(ready_path.c_str(), "wb");
        if (f) {
            std::fputc('1', f);
            std::fclose(f);
        }
        for (;;)
            ::pause();
        ::_exit(3); // unreachable
    }

    // Wait for the child to finish recording (up to 10 s).
    bool ready = false;
    for (int i = 0; i < 1000 && !ready; ++i) {
        std::FILE *f = std::fopen(ready_path.c_str(), "rb");
        if (f) {
            ready = true;
            std::fclose(f);
        } else {
            ::usleep(10 * 1000);
        }
    }
    ASSERT_TRUE(ready) << "traced child never became ready";

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    // The handler must re-raise with default disposition, so the
    // child reads as killed-by-SIGTERM, not a normal exit.
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGTERM);

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parseFile(trace_path, doc, &error)) << error;
    std::size_t events = 0;
    EXPECT_TRUE(prof::validateChromeTrace(doc, &error, &events))
        << error;
    EXPECT_GE(events, 50u);

    std::remove(trace_path.c_str());
    std::remove(ready_path.c_str());
}
