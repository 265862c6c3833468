/**
 * @file
 * Serve-layer tests, no daemon process involved:
 *
 *  - protocol round-trips for every message type across one stream;
 *  - decoder validation (bad magic, unknown tag, length-lie, field
 *    range violations, trailing payload bytes) with a structured,
 *    latched ServeError for each;
 *  - a deterministic seeded mutation fuzzer over encoded job streams
 *    (truncate / bit-flip / byte-swap / length-lie), the same
 *    discipline as the WC3DTRC2 fuzzer in test_trace.cc — never
 *    crash, always either parse cleanly or explain;
 *  - JobQueue scheduling: retry/backoff timing, timeout expiry,
 *    poison-job capping, capacity rejection and drain ordering, all
 *    against injected clocks.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/fs.hh"
#include "common/rng.hh"
#include "serve/jobqueue.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"

using namespace wc3d;
using namespace wc3d::serve;

namespace {

JobSpec
sampleSpec(const std::string &demo = "ut2004", std::uint32_t frames = 2)
{
    JobSpec spec;
    spec.demo = demo;
    spec.frames = frames;
    spec.width = 256;
    spec.height = 192;
    return spec;
}

/** Encode a stream of messages with the magic prefix. */
std::string
encodeStream(const std::vector<Message> &msgs)
{
    std::string out;
    appendMagic(out);
    for (const auto &m : msgs)
        appendMessage(out, m);
    return out;
}

/** Decode everything, expecting a healthy stream. */
std::vector<Message>
decodeAll(const std::string &bytes)
{
    MessageDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    std::vector<Message> out;
    while (auto msg = dec.next())
        out.push_back(std::move(*msg));
    EXPECT_TRUE(dec.ok()) << dec.error()->describe();
    EXPECT_TRUE(dec.idle());
    return out;
}

} // namespace

TEST(ServeProtocol, RoundTripsEveryMessageType)
{
    SubmitMsg submit;
    submit.spec = sampleSpec();
    submit.spec.frameBegin = 7;
    submit.spec.hzEnabled = 0;
    submit.spec.hzMinMax = 1;
    submit.spec.vertexCacheEntries = 32;
    submit.spec.tileSize = 16;
    submit.spec.timeoutMs = 1234;
    submit.spec.debugSleepMs = 55;
    submit.spec.debugCrashAttempts = 2;
    AcceptedMsg accepted{42};
    RejectedMsg rejected{"queue is full (64 jobs)"};
    ProgressMsg progress{42, 3, 8};
    DoneMsg done;
    done.jobId = 42;
    done.fromCache = 1;
    done.attempts = 2;
    done.result = "wc3d-microrun-v1\nid=x\n#end\n";
    FailedMsg failed;
    failed.jobId = 43;
    failed.attempts = 3;
    failed.reason = "poison job";
    StatusMsg status{5, 2, 10, 1, 4, 1};
    ExecMsg exec;
    exec.jobId = 44;
    exec.attempt = 2;
    exec.spec = sampleSpec("doom3", 1);
    StatsMsg stats;
    stats.uptimeMs = 123456;
    stats.queued = 3;
    stats.waiting = 1;
    stats.running = 2;
    stats.done = 100;
    stats.failed = 4;
    stats.retries = 9;
    stats.timeouts = 2;
    stats.workerDeaths = 3;
    stats.cacheHits = 17;
    stats.submitted = 111;
    stats.rejected = 5;
    stats.jobsEvicted = 6;
    stats.workers = 4;
    stats.workersBusy = 2;
    stats.draining = 1;
    stats.journaling = 1;
    stats.journalDegraded = 0;
    stats.journalAppends = 321;
    stats.journalCompactions = 2;
    stats.recoveredJobs = 9;
    stats.doneLatency[0] = 8;
    stats.doneLatency[5] = 90;
    stats.doneLatency[kLatencyBuckets - 1] = 2;
    stats.failedLatency[3] = 4;

    std::vector<Message> in = {submit,   StatusReqMsg{}, KillWorkerMsg{},
                               DrainMsg{}, accepted,     rejected,
                               progress, done,           failed,
                               status,   exec,           QuitMsg{},
                               StatsReqMsg{}, stats};
    auto out = decodeAll(encodeStream(in));
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(out[i].index(), in[i].index()) << "message " << i;

    const auto &s = std::get<SubmitMsg>(out[0]).spec;
    EXPECT_EQ(s.demo, "ut2004");
    EXPECT_EQ(s.frameBegin, 7u);
    EXPECT_EQ(s.frames, 2u);
    EXPECT_EQ(s.width, 256u);
    EXPECT_EQ(s.height, 192u);
    EXPECT_EQ(s.hzEnabled, 0);
    EXPECT_EQ(s.hzMinMax, 1);
    EXPECT_EQ(s.vertexCacheEntries, 32u);
    EXPECT_EQ(s.tileSize, 16u);
    EXPECT_EQ(s.timeoutMs, 1234u);
    EXPECT_EQ(s.debugSleepMs, 55u);
    EXPECT_EQ(s.debugCrashAttempts, 2);
    const auto &d = std::get<DoneMsg>(out[7]);
    EXPECT_EQ(d.jobId, 42u);
    EXPECT_EQ(d.fromCache, 1);
    EXPECT_EQ(d.result, done.result);
    const auto &st = std::get<StatusMsg>(out[9]);
    EXPECT_EQ(st.queued, 5u);
    EXPECT_EQ(st.draining, 1);
    const auto &e = std::get<ExecMsg>(out[10]);
    EXPECT_EQ(e.jobId, 44u);
    EXPECT_EQ(e.attempt, 2);
    EXPECT_EQ(e.spec.demo, "doom3");
    const auto &sm = std::get<StatsMsg>(out[13]);
    EXPECT_EQ(sm.uptimeMs, 123456u);
    EXPECT_EQ(sm.queued, 3u);
    EXPECT_EQ(sm.waiting, 1u);
    EXPECT_EQ(sm.running, 2u);
    EXPECT_EQ(sm.done, 100u);
    EXPECT_EQ(sm.jobsEvicted, 6u);
    EXPECT_EQ(sm.workers, 4u);
    EXPECT_EQ(sm.workersBusy, 2u);
    EXPECT_EQ(sm.draining, 1);
    EXPECT_EQ(sm.journaling, 1);
    EXPECT_EQ(sm.journalDegraded, 0);
    EXPECT_EQ(sm.journalAppends, 321u);
    EXPECT_EQ(sm.journalCompactions, 2u);
    EXPECT_EQ(sm.recoveredJobs, 9u);
    EXPECT_EQ(sm.doneLatency, stats.doneLatency);
    EXPECT_EQ(sm.failedLatency, stats.failedLatency);
}

// StatsMsg carries cross-field invariants the decoder must enforce:
// more busy workers than workers is a protocol violation, and the
// draining flag is a strict wire bool.
TEST(ServeProtocol, RejectsInconsistentStatsMsg)
{
    StatsMsg stats;
    stats.workers = 2;
    stats.workersBusy = 3;
    {
        MessageDecoder dec;
        std::string bytes = encodeStream({stats});
        dec.feed(bytes.data(), bytes.size());
        EXPECT_FALSE(dec.next().has_value());
        ASSERT_FALSE(dec.ok());
        EXPECT_NE(dec.error()->reason.find("busy"),
                  std::string::npos)
            << dec.error()->reason;
    }
    stats.workersBusy = 2;
    stats.draining = 2;
    {
        MessageDecoder dec;
        std::string bytes = encodeStream({stats});
        dec.feed(bytes.data(), bytes.size());
        EXPECT_FALSE(dec.next().has_value());
        ASSERT_FALSE(dec.ok());
    }
    // The durability flags are strict wire bools too.
    stats.draining = 0;
    stats.journaling = 2;
    {
        MessageDecoder dec;
        std::string bytes = encodeStream({stats});
        dec.feed(bytes.data(), bytes.size());
        EXPECT_FALSE(dec.next().has_value());
        ASSERT_FALSE(dec.ok());
    }
}

TEST(ServeProtocol, DecodesAcrossArbitraryFeedBoundaries)
{
    std::vector<Message> in = {SubmitMsg{sampleSpec()},
                               ProgressMsg{1, 1, 2}, QuitMsg{}};
    std::string bytes = encodeStream(in);
    // Feed one byte at a time: truncation is "wait", never an error.
    MessageDecoder dec;
    std::vector<Message> out;
    for (char c : bytes) {
        dec.feed(&c, 1);
        while (auto msg = dec.next())
            out.push_back(std::move(*msg));
        ASSERT_TRUE(dec.ok());
    }
    EXPECT_EQ(out.size(), in.size());
    EXPECT_TRUE(dec.idle());
}

TEST(ServeProtocol, RejectsBadMagic)
{
    std::string bytes = encodeStream({QuitMsg{}});
    bytes[3] ^= 0x40;
    MessageDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    EXPECT_FALSE(dec.next().has_value());
    ASSERT_FALSE(dec.ok());
    EXPECT_NE(dec.error()->reason.find("magic"), std::string::npos);
}

TEST(ServeProtocol, RejectsUnknownTag)
{
    std::string bytes = encodeStream({QuitMsg{}});
    bytes[8] = 0x7f; // first record's tag byte
    MessageDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    EXPECT_FALSE(dec.next().has_value());
    ASSERT_FALSE(dec.ok());
    EXPECT_NE(dec.error()->reason.find("tag"), std::string::npos);
}

// A length field claiming more than the cap must be rejected before
// any buffering or allocation happens — the classic length-lie.
TEST(ServeProtocol, RejectsLengthLieAgainstCap)
{
    std::string bytes = encodeStream({QuitMsg{}});
    std::uint32_t lie = kServeMaxPayload + 1;
    std::memcpy(&bytes[9], &lie, 4); // length field (LE host assumed)
    MessageDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    EXPECT_FALSE(dec.next().has_value());
    ASSERT_FALSE(dec.ok());
    EXPECT_NE(dec.error()->reason.find("cap"), std::string::npos);
}

TEST(ServeProtocol, RejectsTrailingPayloadBytes)
{
    // A QuitMsg with a non-empty payload: length says 1, decoder for
    // tag 11 consumes 0.
    std::string bytes;
    appendMagic(bytes);
    bytes.push_back(11); // Quit tag
    bytes.push_back(1);
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0x5a);
    MessageDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    EXPECT_FALSE(dec.next().has_value());
    ASSERT_FALSE(dec.ok());
    EXPECT_NE(dec.error()->reason.find("trailing"), std::string::npos);
}

TEST(ServeProtocol, ValidatesSpecRanges)
{
    JobSpec spec = sampleSpec();
    EXPECT_FALSE(spec.validate().has_value());

    JobSpec bad = spec;
    bad.demo = "";
    EXPECT_TRUE(bad.validate().has_value());
    bad = spec;
    bad.frames = 0;
    EXPECT_TRUE(bad.validate().has_value());
    bad = spec;
    bad.frames = kServeMaxFrames + 1;
    EXPECT_TRUE(bad.validate().has_value());
    bad = spec;
    bad.width = kServeMinDim - 1;
    EXPECT_TRUE(bad.validate().has_value());
    bad = spec;
    bad.height = kServeMaxDim + 1;
    EXPECT_TRUE(bad.validate().has_value());
    bad = spec;
    bad.frameBegin = kServeMaxFrameBegin + 1;
    EXPECT_TRUE(bad.validate().has_value());
    bad = spec;
    bad.hzEnabled = 2; // bools are strict 0/1 on the wire
    EXPECT_TRUE(bad.validate().has_value());

    // An out-of-range spec must also be rejected at decode time, not
    // just by explicit validate() calls.
    SubmitMsg submit;
    submit.spec = spec;
    std::string bytes = encodeStream({submit});
    // frames field: first u32 after the demo string payload; easier
    // and more robust to just rebuild with a bad spec bypassing
    // validate — encode does not validate, decode does.
    SubmitMsg evil;
    evil.spec = spec;
    evil.spec.frames = 0;
    std::string evil_bytes = encodeStream({evil});
    MessageDecoder dec;
    dec.feed(evil_bytes.data(), evil_bytes.size());
    EXPECT_FALSE(dec.next().has_value());
    ASSERT_FALSE(dec.ok());
    EXPECT_NE(dec.error()->reason.find("frames"), std::string::npos);
}

/**
 * Deterministic mutation fuzzer over a valid serve stream: the
 * decoder must never crash (ASan/UBSan in CI), never spin, and for
 * every mutant either decode some prefix cleanly and then wait for
 * more bytes, or latch a structured non-empty error.
 */
TEST(ServeFuzz, SeededMutationsNeverCrashAndAlwaysExplain)
{
    SubmitMsg submit;
    submit.spec = sampleSpec();
    ExecMsg exec;
    exec.jobId = 9;
    exec.attempt = 1;
    exec.spec = sampleSpec("quake4", 1);
    DoneMsg done;
    done.jobId = 9;
    done.attempts = 1;
    done.result = std::string(300, 'x');
    FailedMsg failed;
    failed.jobId = 10;
    failed.attempts = 2;
    failed.reason = "worker killed by signal 9";
    StatsMsg stats;
    stats.uptimeMs = 5000;
    stats.done = 40;
    stats.workers = 4;
    stats.workersBusy = 3;
    stats.doneLatency[6] = 40;
    const std::string base =
        encodeStream({submit, StatusReqMsg{}, exec,
                      ProgressMsg{9, 1, 1}, done, failed,
                      StatusMsg{1, 2, 3, 4, 5, 0}, StatsReqMsg{},
                      stats, QuitMsg{}});
    ASSERT_GT(base.size(), 64u);

    const int kMutations = 1500;
    int rejected = 0;
    int clean = 0;
    for (int seed = 0; seed < kMutations; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed), /*stream=*/0x53f2);
        std::string bytes = base;
        switch (seed % 4) {
        case 0: // truncate at an arbitrary byte
            bytes.resize(rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size())));
            break;
        case 1: { // flip 1..8 random bits
            int flips = 1 + static_cast<int>(rng.nextBounded(8));
            for (int i = 0; i < flips; ++i) {
                std::uint32_t at = rng.nextBounded(
                    static_cast<std::uint32_t>(bytes.size()));
                bytes[static_cast<std::size_t>(at)] ^=
                    static_cast<char>(1u << rng.nextBounded(8));
            }
            break;
        }
        case 2: { // overwrite one byte with a random value
            std::uint32_t at = rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size()));
            bytes[static_cast<std::size_t>(at)] =
                static_cast<char>(rng.nextBounded(256));
            break;
        }
        case 3: { // length-lie: random u32 over a random 4-byte span
            std::uint32_t at = rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size() - 3));
            std::uint32_t v = rng.nextU32();
            std::memcpy(&bytes[at], &v, 4);
            break;
        }
        }

        MessageDecoder dec;
        dec.feed(bytes.data(), bytes.size());
        std::uint64_t decoded = 0;
        while (dec.next()) {
            ASSERT_LT(++decoded, 100000u)
                << "seed " << seed << ": decoder did not terminate";
        }
        if (!dec.ok()) {
            ++rejected;
            EXPECT_FALSE(dec.error()->reason.empty())
                << "seed " << seed;
            // A latched decoder stays dead even when fed more bytes.
            dec.feed(base.data(), base.size());
            EXPECT_FALSE(dec.next().has_value()) << "seed " << seed;
        } else {
            ++clean;
        }
    }
    // The corpus must exercise both outcomes. (Unlike the trace
    // fuzzer, truncation mutants usually land as "waiting for more
    // bytes" — clean, by design — so rejections are rarer here.)
    EXPECT_GT(rejected, kMutations / 8);
    EXPECT_GT(clean, kMutations / 16);
}

// ---------------------------------------------------------------
// JobQueue scheduling (injected clocks; no IO, no processes).
// ---------------------------------------------------------------

namespace {

RetryPolicy
testPolicy()
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.timeoutMs = 1000;
    policy.backoffBaseMs = 100;
    policy.backoffCapMs = 400;
    return policy;
}

} // namespace

TEST(JobQueue, FifoDispatchOrder)
{
    JobQueue q(8, testPolicy());
    std::uint64_t a = q.submit(sampleSpec("a"), 1, nullptr);
    std::uint64_t b = q.submit(sampleSpec("b"), 1, nullptr);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    Job *first = q.nextReady(0);
    ASSERT_TRUE(first);
    EXPECT_EQ(first->id, a);
    q.markRunning(a, 0);
    Job *second = q.nextReady(0);
    ASSERT_TRUE(second);
    EXPECT_EQ(second->id, b);
}

TEST(JobQueue, CapacityRejectsWithReason)
{
    JobQueue q(2, testPolicy());
    EXPECT_NE(q.submit(sampleSpec(), 1, nullptr), 0u);
    EXPECT_NE(q.submit(sampleSpec(), 1, nullptr), 0u);
    std::string why;
    EXPECT_EQ(q.submit(sampleSpec(), 1, &why), 0u);
    EXPECT_NE(why.find("full"), std::string::npos);
    // Terminal jobs free capacity again.
    q.complete(1);
    EXPECT_NE(q.submit(sampleSpec(), 1, nullptr), 0u);
}

TEST(JobQueue, RetryBackoffIsExponentialAndCapped)
{
    JobQueue q(8, testPolicy());
    std::uint64_t id = q.submit(sampleSpec(), 1, nullptr);

    // Attempt 1 fails at t=1000: backoff 100 ms (base * 2^0).
    q.markRunning(id, 0);
    EXPECT_TRUE(q.retryOrFail(id, 1000, "worker crashed"));
    EXPECT_EQ(q.find(id)->state, JobState::Waiting);
    EXPECT_EQ(q.find(id)->readyAtMs, 1100u);
    EXPECT_EQ(q.nextReady(1099), nullptr);
    Job *ready = q.nextReady(1100);
    ASSERT_TRUE(ready);
    EXPECT_EQ(ready->id, id);

    // Attempt 2 fails at t=2000: backoff doubles to 200 ms.
    q.markRunning(id, 1100);
    EXPECT_TRUE(q.retryOrFail(id, 2000, "worker crashed"));
    EXPECT_EQ(q.find(id)->readyAtMs, 2200u);
    EXPECT_EQ(q.retryCount(), 2u);

    // The policy cap bounds the delay for late attempts.
    RetryPolicy p = testPolicy();
    EXPECT_EQ(p.backoffForAttempt(2), 100u);
    EXPECT_EQ(p.backoffForAttempt(3), 200u);
    EXPECT_EQ(p.backoffForAttempt(4), 400u);
    EXPECT_EQ(p.backoffForAttempt(10), 400u); // capped
}

TEST(JobQueue, PoisonJobCapsAtMaxAttempts)
{
    JobQueue q(8, testPolicy());
    std::uint64_t id = q.submit(sampleSpec(), 1, nullptr);
    std::uint64_t now = 0;
    // maxAttempts = 3: two retries succeed, the third failure is
    // terminal with the poison reason.
    for (int attempt = 1; attempt <= 2; ++attempt) {
        Job *job = q.nextReady(now);
        ASSERT_TRUE(job);
        q.markRunning(id, now);
        EXPECT_TRUE(q.retryOrFail(id, now, "worker crashed"));
        now = q.find(id)->readyAtMs;
    }
    q.markRunning(id, now);
    EXPECT_FALSE(q.retryOrFail(id, now, "worker crashed"));
    const Job *job = q.find(id);
    ASSERT_TRUE(job);
    EXPECT_EQ(job->state, JobState::Failed);
    EXPECT_EQ(job->attempts, 3);
    EXPECT_NE(job->failReason.find("poison job"), std::string::npos);
    EXPECT_NE(job->failReason.find("worker crashed"),
              std::string::npos);
    EXPECT_EQ(q.failedCount(), 1u);
    // Terminal means terminal: further crash reports must not
    // resurrect the job.
    EXPECT_FALSE(q.retryOrFail(id, now, "late report"));
    EXPECT_EQ(q.find(id)->state, JobState::Failed);
}

TEST(JobQueue, TimeoutExpiryHonorsPerJobOverride)
{
    JobQueue q(8, testPolicy());
    JobSpec slow = sampleSpec();
    slow.timeoutMs = 250; // override the 1000 ms policy default
    std::uint64_t a = q.submit(slow, 1, nullptr);
    std::uint64_t b = q.submit(sampleSpec(), 1, nullptr);
    q.markRunning(a, 0);
    q.markRunning(b, 0);

    EXPECT_TRUE(q.expired(249).empty());
    auto at250 = q.expired(250);
    ASSERT_EQ(at250.size(), 1u);
    EXPECT_EQ(at250[0], a);
    auto at1000 = q.expired(1000);
    EXPECT_EQ(at1000.size(), 2u);

    // nextEventDelay tracks the nearest deadline, then the next one.
    EXPECT_EQ(q.nextEventDelay(0, 10000), 250u);
    q.retryOrFail(a, 250, "timed out");
    // Waiting job's backoff expiry (250+100) precedes b's deadline.
    EXPECT_EQ(q.nextEventDelay(250, 10000), 100u);
}

TEST(JobQueue, DrainRejectsNewAndFinishesAccepted)
{
    JobQueue q(8, testPolicy());
    std::uint64_t a = q.submit(sampleSpec("a"), 1, nullptr);
    std::uint64_t b = q.submit(sampleSpec("b"), 1, nullptr);
    q.markRunning(a, 0);

    q.beginDrain();
    EXPECT_TRUE(q.draining());
    std::string why;
    EXPECT_EQ(q.submit(sampleSpec("c"), 1, &why), 0u);
    EXPECT_NE(why.find("draining"), std::string::npos);

    // Drain is not complete while accepted jobs are live — including
    // a retry of a running job that fails during the drain.
    EXPECT_FALSE(q.drained());
    EXPECT_TRUE(q.retryOrFail(a, 10, "worker crashed"));
    EXPECT_FALSE(q.drained());
    Job *job = q.nextReady(1000);
    ASSERT_TRUE(job); // the retried job redispatches during drain
    EXPECT_EQ(job->id, a);
    q.markRunning(a, 1000);
    q.complete(a);
    EXPECT_FALSE(q.drained()); // b is still queued
    q.markRunning(b, 1000);
    q.complete(b);
    EXPECT_TRUE(q.drained());
    EXPECT_EQ(q.doneCount(), 2u);
}

TEST(JobQueue, TerminalArchiveIsBounded)
{
    const std::size_t keep = JobQueue::kTerminalKeep;
    const std::size_t total = keep + 10;
    JobQueue q(4, testPolicy());
    std::uint64_t first_id = 0, last_id = 0;
    for (std::size_t i = 0; i < total; ++i) {
        std::uint64_t id = q.submit(sampleSpec(), 7, nullptr);
        ASSERT_NE(id, 0u); // terminal jobs must not eat capacity
        if (first_id == 0)
            first_id = id;
        last_id = id;
        q.markRunning(id, 0);
        q.complete(id);
    }
    // Lifetime counters see everything; the findable archive is
    // bounded so a long-running daemon's memory does not grow with
    // every job ever served.
    EXPECT_EQ(q.doneCount(), total);
    EXPECT_EQ(q.terminalJobs().size(), keep);
    EXPECT_EQ(q.terminalEvicted(), total - keep);
    EXPECT_EQ(q.find(first_id), nullptr); // aged out of the archive
    Job *last = q.find(last_id);
    ASSERT_TRUE(last);
    EXPECT_EQ(last->state, JobState::Done);
    EXPECT_EQ(last->client, 7u);
    // Archived jobs are out of every live-state scan.
    EXPECT_EQ(q.queuedCount(), 0u);
    EXPECT_EQ(q.runningCount(), 0u);
    q.beginDrain();
    EXPECT_TRUE(q.drained());
    // A stale crash report for an archived job must not resurrect it.
    EXPECT_FALSE(q.retryOrFail(last_id, 0, "late report"));
    EXPECT_EQ(q.find(last_id)->state, JobState::Done);
}

TEST(JobQueue, LatencyHistogramsTrackSubmitToTerminal)
{
    JobQueue q(8, testPolicy());

    // 100 ms submit->done: bit_width(100) == 7.
    std::uint64_t a = q.submit(sampleSpec("a"), 1, nullptr, 1000);
    q.markRunning(a, 1000);
    q.complete(a, 1100);
    EXPECT_EQ(q.find(a)->latencyMs, 100u);
    EXPECT_EQ(q.doneLatencyHistogram()[7], 1u);

    // 3 ms submit->failed: bit_width(3) == 2.
    std::uint64_t b = q.submit(sampleSpec("b"), 1, nullptr, 0);
    q.markRunning(b, 0);
    q.fail(b, "unknown demo", 3);
    EXPECT_EQ(q.find(b)->latencyMs, 3u);
    EXPECT_EQ(q.failedLatencyHistogram()[2], 1u);

    // Instant completion lands in bucket 0; a clock that appears to
    // run backwards clamps to 0 rather than wrapping.
    std::uint64_t c = q.submit(sampleSpec("c"), 1, nullptr, 500);
    q.markRunning(c, 500);
    q.complete(c, 500);
    EXPECT_EQ(q.find(c)->latencyMs, 0u);
    EXPECT_EQ(q.doneLatencyHistogram()[0], 1u);
    std::uint64_t d = q.submit(sampleSpec("d"), 1, nullptr, 900);
    q.markRunning(d, 900);
    q.complete(d, 100);
    EXPECT_EQ(q.find(d)->latencyMs, 0u);
    EXPECT_EQ(q.doneLatencyHistogram()[0], 2u);

    // Latencies past the top bucket's range clamp to the last bucket.
    std::uint64_t e = q.submit(sampleSpec("e"), 1, nullptr, 0);
    q.markRunning(e, 0);
    q.complete(e, 1ull << 40);
    EXPECT_EQ(q.doneLatencyHistogram()[kLatencyBuckets - 1], 1u);
}

TEST(JobQueue, PercentileFromHistogramReturnsBucketCeilings)
{
    std::array<std::uint64_t, kLatencyBuckets> hist{};
    EXPECT_EQ(serve::percentileFromHistogram(hist, 0.5), 0u);

    // All mass in bucket 0 (sub-millisecond jobs) reads as 0 ms.
    hist[0] = 10;
    EXPECT_EQ(serve::percentileFromHistogram(hist, 0.99), 0u);

    // Half the jobs in bucket 3 (<=7 ms), half in bucket 7 (<=127 ms):
    // the median reports the low bucket's ceiling, the tail the high
    // bucket's.
    hist = {};
    hist[3] = 50;
    hist[7] = 50;
    EXPECT_EQ(serve::percentileFromHistogram(hist, 0.0), 7u);
    EXPECT_EQ(serve::percentileFromHistogram(hist, 0.5), 7u);
    EXPECT_EQ(serve::percentileFromHistogram(hist, 0.9), 127u);
    EXPECT_EQ(serve::percentileFromHistogram(hist, 1.0), 127u);
}

TEST(JobQueue, ReadyAndWaitingCountsDistinguishBackoff)
{
    JobQueue q(8, testPolicy());
    std::uint64_t a = q.submit(sampleSpec("a"), 1, nullptr);
    q.submit(sampleSpec("b"), 1, nullptr);
    EXPECT_EQ(q.readyCount(), 2u);
    EXPECT_EQ(q.waitingCount(), 0u);
    EXPECT_EQ(q.queuedCount(), 2u);

    q.markRunning(a, 0);
    EXPECT_EQ(q.readyCount(), 1u);
    EXPECT_EQ(q.runningCount(), 1u);
    EXPECT_TRUE(q.retryOrFail(a, 10, "worker crashed"));
    // The retried job is backing off, not dispatchable.
    EXPECT_EQ(q.readyCount(), 1u);
    EXPECT_EQ(q.waitingCount(), 1u);
    EXPECT_EQ(q.queuedCount(), 2u);
    EXPECT_EQ(q.runningCount(), 0u);
}

// ---------------------------------------------------------------
// Durable job journal (WC3DJRN2): append/replay round trips,
// JobQueue restoration, snapshot compaction, torn-tail recovery and
// the seeded mutation fuzzer.
// ---------------------------------------------------------------

namespace {

/** Fresh per-test journal directory (process-unique for ctest -j). */
std::string
journalDir(const char *name)
{
    return ::testing::TempDir() + "wc3d_jrn_" +
           std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

std::string
journalFile(const std::string &dir)
{
    return dir + "/journal.wc3djrn";
}

void
removeJournalDir(const std::string &dir)
{
    std::remove(journalFile(dir).c_str());
    ::rmdir(dir.c_str());
}

std::string
readFileBytes(const std::string &path)
{
    std::string out;
    FILE *f = fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    fclose(f);
    return out;
}

/** Write a journal covering the whole job lifecycle: one done job
 *  (with a retry), one poison failure, one still live. */
void
writeLifecycleJournal(Journal &j)
{
    ASSERT_TRUE(j.appendAccepted(1, sampleSpec("ut2004"), 5000));
    ASSERT_TRUE(j.appendRunning(1, 1));
    ASSERT_TRUE(j.appendRunning(1, 2));
    ASSERT_TRUE(j.appendDone(1, 2, false, 120));
    ASSERT_TRUE(j.appendAccepted(2, sampleSpec("doom3", 1), 5100));
    ASSERT_TRUE(j.appendRunning(2, 1));
    ASSERT_TRUE(
        j.appendFailed(2, 1, 300, "poison job: worker crashed"));
    ASSERT_TRUE(j.appendAccepted(3, sampleSpec("quake4", 3), 5200));
    ASSERT_TRUE(j.appendRunning(3, 1));
}

} // namespace

TEST(Journal, AppendReplayRoundTripsTheJobLifecycle)
{
    std::string dir = journalDir("roundtrip");
    removeJournalDir(dir);
    Journal j;
    JournalRecovery fresh;
    ASSERT_TRUE(j.open(dir, &fresh))
        << (j.lastError() ? j.lastError()->describe() : "");
    EXPECT_TRUE(fresh.jobs.empty());
    EXPECT_FALSE(fresh.truncated);
    writeLifecycleJournal(j);
    EXPECT_EQ(j.appends(), 9u);
    j.close();
    EXPECT_FALSE(j.ok());

    JournalRecovery out;
    ASSERT_TRUE(Journal::replay(readFileBytes(journalFile(dir)), &out));
    EXPECT_FALSE(out.truncated);
    EXPECT_EQ(out.records, 9u);
    EXPECT_EQ(out.anomalies, 0u);
    ASSERT_EQ(out.jobs.size(), 3u);
    EXPECT_EQ(out.liveCount(), 1u);
    EXPECT_EQ(out.terminalCount(), 2u);

    const JournalJob &a = out.jobs[0];
    EXPECT_EQ(a.id, 1u);
    EXPECT_EQ(a.state, JobState::Done);
    EXPECT_EQ(a.attempts, 2);
    EXPECT_EQ(a.fromCache, 0);
    EXPECT_EQ(a.latencyMs, 120u);
    EXPECT_EQ(a.submittedAtMs, 5000u);
    EXPECT_EQ(a.spec.demo, "ut2004");
    const JournalJob &b = out.jobs[1];
    EXPECT_EQ(b.id, 2u);
    EXPECT_EQ(b.state, JobState::Failed);
    EXPECT_EQ(b.failReason, "poison job: worker crashed");
    EXPECT_EQ(b.latencyMs, 300u);
    const JournalJob &c = out.jobs[2];
    EXPECT_EQ(c.id, 3u);
    EXPECT_EQ(c.state, JobState::Queued);
    EXPECT_EQ(c.attempts, 1); // the interrupted attempt is preserved
    EXPECT_EQ(c.spec.frames, 3u);

    // open() replays the same state a daemon restart would see.
    Journal j2;
    JournalRecovery rec;
    ASSERT_TRUE(j2.open(dir, &rec));
    EXPECT_EQ(rec.jobs.size(), 3u);
    EXPECT_EQ(rec.records, 9u);
    j2.removeFile();
    EXPECT_TRUE(readFileBytes(journalFile(dir)).empty());
    removeJournalDir(dir);
}

TEST(Journal, RecoveryRestoresThroughTheJobQueue)
{
    std::string dir = journalDir("restore");
    removeJournalDir(dir);
    Journal j;
    JournalRecovery rec;
    ASSERT_TRUE(j.open(dir, &rec));
    writeLifecycleJournal(j);
    j.close();
    ASSERT_TRUE(Journal::replay(readFileBytes(journalFile(dir)), &rec));

    JobQueue q(8, testPolicy());
    q.restoreBaseline(rec.baseDone, rec.baseFailed, rec.baseEvicted,
                      rec.baseRetries);
    for (const JournalJob &job : rec.jobs) {
        if (job.state == JobState::Queued)
            q.restoreLive(job.id, job.spec, job.attempts,
                          job.submittedAtMs);
        else
            q.restoreTerminal(job.id, job.spec, job.attempts,
                              job.state == JobState::Done,
                              job.failReason, job.latencyMs,
                              job.evicted, job.submittedAtMs);
    }
    EXPECT_EQ(q.doneCount(), 1u);
    EXPECT_EQ(q.failedCount(), 1u);
    EXPECT_EQ(q.queuedCount(), 1u);
    EXPECT_EQ(q.retryCount(), 1u); // job 1 ran twice
    // The live job redispatches with its attempt count preserved.
    Job *ready = q.nextReady(0);
    ASSERT_TRUE(ready);
    EXPECT_EQ(ready->id, 3u);
    EXPECT_EQ(ready->attempts, 1);
    EXPECT_EQ(ready->client, 0u); // orphaned: its submitter died
    // Terminal jobs landed in the archive, still terminal.
    ASSERT_TRUE(q.find(1));
    EXPECT_EQ(q.find(1)->state, JobState::Done);
    EXPECT_FALSE(q.retryOrFail(1, 0, "late report"));
    // Id allocation resumes past every restored id.
    EXPECT_GT(q.submit(sampleSpec(), 1, nullptr), 3u);
    removeJournalDir(dir);
}

TEST(Journal, ReplayNeverResurrectsTerminalJobs)
{
    std::string dir = journalDir("terminal");
    removeJournalDir(dir);
    Journal j;
    JournalRecovery rec;
    ASSERT_TRUE(j.open(dir, &rec));
    ASSERT_TRUE(j.appendAccepted(1, sampleSpec(), 0));
    ASSERT_TRUE(j.appendDone(1, 1, false, 10));
    // Everything after the terminal record is a recorded anomaly,
    // never obeyed: duplicate terminal states, a late running
    // transition, a duplicate accept, an eviction of a live job.
    ASSERT_TRUE(j.appendRunning(1, 7));
    ASSERT_TRUE(j.appendFailed(1, 7, 99, "late failure"));
    ASSERT_TRUE(j.appendAccepted(1, sampleSpec("doom3", 1), 1));
    ASSERT_TRUE(j.appendAccepted(2, sampleSpec(), 2));
    ASSERT_TRUE(j.appendEvicted(2));
    j.close();

    JournalRecovery out;
    ASSERT_TRUE(Journal::replay(readFileBytes(journalFile(dir)), &out));
    EXPECT_FALSE(out.truncated);
    EXPECT_EQ(out.records, 7u);
    EXPECT_EQ(out.anomalies, 4u);
    ASSERT_EQ(out.jobs.size(), 2u);
    EXPECT_EQ(out.jobs[0].state, JobState::Done);
    EXPECT_EQ(out.jobs[0].attempts, 1);
    EXPECT_EQ(out.jobs[0].spec.demo, "ut2004");
    EXPECT_TRUE(out.jobs[0].failReason.empty());
    EXPECT_EQ(out.jobs[1].state, JobState::Queued);
    EXPECT_FALSE(out.jobs[1].evicted);
    removeJournalDir(dir);
}

TEST(Journal, CompactionSnapshotsQueueAndPreservesCounters)
{
    std::string dir = journalDir("compact");
    removeJournalDir(dir);
    Journal j;
    JournalRecovery rec;
    ASSERT_TRUE(j.open(dir, &rec));

    // A queue with history: a done job that needed a retry, a poison
    // failure, a live job.
    JobQueue q(8, testPolicy());
    std::uint64_t a = q.submit(sampleSpec("a"), 1, nullptr, 100);
    q.markRunning(a, 100);
    ASSERT_TRUE(q.retryOrFail(a, 200, "worker crashed"));
    q.markRunning(a, 1000);
    q.complete(a, 1100);
    std::uint64_t b = q.submit(sampleSpec("b"), 1, nullptr, 100);
    std::uint64_t now = 100;
    for (int i = 0; i < 3; ++i) {
        q.markRunning(b, now);
        q.retryOrFail(b, now, "worker crashed");
        now = 5000;
    }
    ASSERT_EQ(q.find(b)->state, JobState::Failed);
    std::uint64_t c = q.submit(sampleSpec("c"), 1, nullptr, 100);

    ASSERT_TRUE(j.compact(q)) << j.lastError()->describe();
    EXPECT_EQ(j.compactions(), 1u);
    j.close();

    // The snapshot restores a queue with identical lifetime counters.
    JournalRecovery out;
    ASSERT_TRUE(Journal::replay(readFileBytes(journalFile(dir)), &out));
    EXPECT_FALSE(out.truncated);
    JobQueue q2(8, testPolicy());
    q2.restoreBaseline(out.baseDone, out.baseFailed, out.baseEvicted,
                       out.baseRetries);
    for (const JournalJob &job : out.jobs) {
        if (job.state == JobState::Queued)
            q2.restoreLive(job.id, job.spec, job.attempts,
                           job.submittedAtMs);
        else
            q2.restoreTerminal(job.id, job.spec, job.attempts,
                               job.state == JobState::Done,
                               job.failReason, job.latencyMs,
                               job.evicted, job.submittedAtMs);
    }
    EXPECT_EQ(q2.doneCount(), q.doneCount());
    EXPECT_EQ(q2.failedCount(), q.failedCount());
    EXPECT_EQ(q2.retryCount(), q.retryCount());
    EXPECT_EQ(q2.terminalEvicted(), q.terminalEvicted());
    EXPECT_EQ(q2.queuedCount(), 1u);
    ASSERT_TRUE(q2.find(c));
    EXPECT_EQ(q2.find(c)->state, JobState::Queued);
    ASSERT_TRUE(q2.find(b));
    EXPECT_EQ(q2.find(b)->attempts, 3);
    EXPECT_NE(q2.find(b)->failReason.find("poison"),
              std::string::npos);
    removeJournalDir(dir);
}

TEST(Journal, CompactionTriggersOnAppendedBytesSinceSnapshot)
{
    std::string dir = journalDir("threshold");
    removeJournalDir(dir);
    Journal j;
    JournalRecovery rec;
    ASSERT_TRUE(j.open(dir, &rec));
    j.setCompactThreshold(1);
    EXPECT_FALSE(j.wantsCompact()); // nothing appended yet
    ASSERT_TRUE(j.appendAccepted(1, sampleSpec(), 0));
    ASSERT_TRUE(j.appendDone(1, 1, false, 5));
    EXPECT_TRUE(j.wantsCompact());
    JobQueue q(8, testPolicy());
    ASSERT_TRUE(j.compact(q));
    EXPECT_FALSE(j.wantsCompact()); // growth is measured from the snapshot
    // The empty-queue snapshot still carries the baseline record.
    j.close();
    JournalRecovery out;
    ASSERT_TRUE(Journal::replay(readFileBytes(journalFile(dir)), &out));
    EXPECT_EQ(out.records, 1u);
    EXPECT_TRUE(out.jobs.empty());
    removeJournalDir(dir);
}

TEST(Journal, TornTailTruncatesAtTheBadRecordAndKeepsThePrefix)
{
    std::string dir = journalDir("torn");
    removeJournalDir(dir);
    Journal j;
    JournalRecovery rec;
    ASSERT_TRUE(j.open(dir, &rec));
    writeLifecycleJournal(j);
    j.close();
    const std::string intact = readFileBytes(journalFile(dir));

    // A crash mid-append leaves half a record header at the tail.
    FILE *f = fopen(journalFile(dir).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fwrite("\x09\x00\x00\x00\xff\xee\xdd", 1, 7, f), 7u);
    fclose(f);

    JournalRecovery out;
    ASSERT_TRUE(Journal::replay(readFileBytes(journalFile(dir)), &out));
    EXPECT_TRUE(out.truncated);
    EXPECT_EQ(out.truncation.offset, intact.size());
    EXPECT_NE(out.truncation.reason.find("torn"), std::string::npos)
        << out.truncation.reason;
    EXPECT_EQ(out.records, 9u); // the prefix survives in full
    EXPECT_EQ(out.jobs.size(), 3u);

    // open() truncates the torn tail in place; the next open is clean.
    Journal j2;
    JournalRecovery rec2;
    ASSERT_TRUE(j2.open(dir, &rec2))
        << (j2.lastError() ? j2.lastError()->describe() : "");
    EXPECT_TRUE(rec2.truncated);
    EXPECT_EQ(rec2.jobs.size(), 3u);
    j2.close();
    EXPECT_EQ(readFileBytes(journalFile(dir)).size(), intact.size());
    Journal j3;
    JournalRecovery rec3;
    ASSERT_TRUE(j3.open(dir, &rec3));
    EXPECT_FALSE(rec3.truncated);
    EXPECT_EQ(rec3.jobs.size(), 3u);
    j3.removeFile();
    removeJournalDir(dir);
}

TEST(Journal, RefusesAForeignFile)
{
    JournalRecovery out;
    EXPECT_FALSE(Journal::replay("NOTAJRNL, definitely", &out));
    EXPECT_TRUE(out.truncated);
    EXPECT_EQ(out.truncation.offset, 0u);
    EXPECT_NE(out.truncation.reason.find("magic"), std::string::npos);

    // open() refuses to touch it (the operator pointed the daemon at
    // the wrong directory) instead of truncating it to nothing.
    std::string dir = journalDir("foreign");
    removeJournalDir(dir);
    ASSERT_TRUE(makeDirs(dir));
    FILE *f = fopen(journalFile(dir).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("{\"schema\":\"not-a-journal\"}", f);
    fclose(f);
    Journal j;
    JournalRecovery rec;
    EXPECT_FALSE(j.open(dir, &rec));
    ASSERT_TRUE(j.lastError().has_value());
    EXPECT_NE(j.lastError()->reason.find("magic"), std::string::npos);
    EXPECT_FALSE(readFileBytes(journalFile(dir)).empty());
    removeJournalDir(dir);
}

TEST(Journal, RefusesAPreviousFormatJournal)
{
    // WC3DJRN1 checksummed its records with a truncated FNV-1a offset
    // basis; WC3DJRN2 uses the published one. A version-1 journal is
    // refused at its magic, before any record checksum is read, and
    // left on disk untouched for the operator.
    std::string dir = journalDir("jrn1");
    removeJournalDir(dir);
    {
        Journal j;
        ASSERT_TRUE(j.open(dir, nullptr));
        writeLifecycleJournal(j);
        j.close();
    }
    std::string image = readFileBytes(journalFile(dir));
    ASSERT_EQ(image.compare(0, 8, "WC3DJRN2"), 0);
    image[7] = '1';
    FILE *f = fopen(journalFile(dir).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fwrite(image.data(), 1, image.size(), f), image.size());
    fclose(f);

    JournalRecovery out;
    EXPECT_FALSE(Journal::replay(image, &out));
    EXPECT_TRUE(out.truncated);
    EXPECT_EQ(out.truncation.offset, 0u);
    EXPECT_NE(out.truncation.reason.find("WC3DJRN2"), std::string::npos);
    EXPECT_TRUE(out.jobs.empty());

    Journal j;
    JournalRecovery rec;
    EXPECT_FALSE(j.open(dir, &rec));
    ASSERT_TRUE(j.lastError().has_value());
    EXPECT_EQ(j.lastError()->offset, 0u);
    EXPECT_NE(j.lastError()->reason.find("magic"), std::string::npos);
    EXPECT_EQ(readFileBytes(journalFile(dir)), image);
    removeJournalDir(dir);
}

/**
 * Seeded mutation fuzzer over a valid journal image. Because every
 * record is length-framed and checksummed, any mutation of a record
 * body or frame is detected and replay degrades to the longest valid
 * prefix — it must never crash (ASan/UBSan in CI), never resurrect a
 * terminal job, and never invent jobs that were not in the prefix.
 */
TEST(JournalFuzz, MutationsNeverCrashNeverResurrectAlwaysKeepAPrefix)
{
    std::string dir = journalDir("fuzz");
    removeJournalDir(dir);
    Journal j;
    JournalRecovery rec;
    ASSERT_TRUE(j.open(dir, &rec));
    writeLifecycleJournal(j);
    ASSERT_TRUE(j.appendEvicted(1));
    j.close();
    const std::string base = readFileBytes(journalFile(dir));
    removeJournalDir(dir);
    ASSERT_GT(base.size(), 64u);

    JournalRecovery base_rec;
    ASSERT_TRUE(Journal::replay(base, &base_rec));
    ASSERT_FALSE(base_rec.truncated);

    const int kMutations = 1200;
    int refused = 0;
    int truncated = 0;
    int clean = 0;
    for (int seed = 0; seed < kMutations; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed), /*stream=*/0x3a41);
        std::string bytes = base;
        switch (seed % 4) {
        case 0: // truncate at an arbitrary byte
            bytes.resize(rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size())));
            break;
        case 1: { // flip 1..8 random bits
            int flips = 1 + static_cast<int>(rng.nextBounded(8));
            for (int i = 0; i < flips; ++i) {
                std::uint32_t at = rng.nextBounded(
                    static_cast<std::uint32_t>(bytes.size()));
                bytes[static_cast<std::size_t>(at)] ^=
                    static_cast<char>(1u << rng.nextBounded(8));
            }
            break;
        }
        case 2: { // length-lie: random u32 over a random 4-byte span
            std::uint32_t at = rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size() - 3));
            std::uint32_t v = rng.nextU32();
            std::memcpy(&bytes[at], &v, 4);
            break;
        }
        case 3: { // checksum-lie: random u64 over a random 8-byte span
            std::uint32_t at = rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size() - 7));
            std::uint64_t v =
                (static_cast<std::uint64_t>(rng.nextU32()) << 32) |
                rng.nextU32();
            std::memcpy(&bytes[at], &v, 8);
            break;
        }
        }

        JournalRecovery out;
        if (!Journal::replay(bytes, &out)) {
            // Only a damaged magic refuses replay outright.
            ++refused;
            EXPECT_TRUE(out.truncated) << "seed " << seed;
            EXPECT_EQ(out.truncation.offset, 0u) << "seed " << seed;
            continue;
        }
        if (out.truncated) {
            ++truncated;
            EXPECT_LE(out.truncation.offset, bytes.size())
                << "seed " << seed;
            EXPECT_FALSE(out.truncation.reason.empty())
                << "seed " << seed;
        } else {
            ++clean;
        }
        // Whatever survived is a prefix of the original history: no
        // invented records, jobs recovered in first-accepted order
        // with sane states, eviction only after a terminal state.
        EXPECT_LE(out.records, base_rec.records) << "seed " << seed;
        EXPECT_LE(out.jobs.size(), base_rec.jobs.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < out.jobs.size(); ++i) {
            const JournalJob &job = out.jobs[i];
            EXPECT_EQ(job.id, base_rec.jobs[i].id)
                << "seed " << seed << " job " << i;
            EXPECT_TRUE(job.state == JobState::Queued ||
                        job.state == JobState::Done ||
                        job.state == JobState::Failed)
                << "seed " << seed << " job " << i;
            if (job.evicted) {
                EXPECT_NE(job.state, JobState::Queued)
                    << "seed " << seed << " job " << i;
            }
        }
        // A full replay of an unmutated prefix can never disagree with
        // the base about a job that reached a terminal state.
        if (out.records == base_rec.records) {
            ASSERT_EQ(out.jobs.size(), base_rec.jobs.size());
            for (std::size_t i = 0; i < out.jobs.size(); ++i)
                EXPECT_EQ(out.jobs[i].state, base_rec.jobs[i].state)
                    << "seed " << seed << " job " << i;
        }
    }
    // The corpus must exercise every outcome. Clean survivals are
    // rare by design — only a truncation landing exactly on a record
    // boundary replays without complaint — but the deterministic
    // seeds guarantee a few.
    EXPECT_GT(refused, 0);
    EXPECT_GT(truncated, kMutations / 2);
    EXPECT_GE(clean, 1);
}
