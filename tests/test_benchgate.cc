/**
 * @file
 * Regression tests for the bench gates (core/benchgate), driven by
 * hand-built BENCH_speed.json fixtures. The edge cases are the point:
 * sweeps stitched together from mismatched hosts, sweeps lacking a 1-
 * or 4-thread point, and sweep entries measured oversubscribed
 * (threads > host_threads) must SKIP with a warning — never gate,
 * never pass silently.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "core/benchgate.hh"

using namespace wc3d;

namespace {

json::Value
sweepEntry(int threads, double seconds, int host_threads = 0)
{
    json::Value e = json::Value::object();
    e.set("threads", json::Value::number(threads));
    e.set("seconds", json::Value::number(seconds));
    if (host_threads > 0)
        e.set("host_threads", json::Value::number(host_threads));
    return e;
}

/** A document whose sweep is the given entries. */
json::Value
docWith(std::vector<json::Value> entries, int doc_host_threads = 0)
{
    json::Value sweep = json::Value::array();
    for (auto &e : entries)
        sweep.push(std::move(e));
    json::Value speed = json::Value::object();
    speed.set("sweep", std::move(sweep));
    json::Value doc = json::Value::object();
    doc.set("speed_simulation", std::move(speed));
    if (doc_host_threads > 0) {
        json::Value host = json::Value::object();
        host.set("threads", json::Value::number(doc_host_threads));
        doc.set("host", std::move(host));
    }
    return doc;
}

} // namespace

TEST(BenchGate, PassesWhenSpeedupMeetsFloor)
{
    json::Value doc = docWith(
        {sweepEntry(1, 8.0, 8), sweepEntry(2, 4.5, 8),
         sweepEntry(4, 3.0, 8)});
    auto r = core::evalParallelSpeedupGate(doc, 1.4);
    EXPECT_EQ(r.outcome, core::GateOutcome::Pass);
}

TEST(BenchGate, FailsBelowFloor)
{
    json::Value doc =
        docWith({sweepEntry(1, 4.0, 8), sweepEntry(4, 3.5, 8)});
    auto r = core::evalParallelSpeedupGate(doc, 1.4);
    EXPECT_EQ(r.outcome, core::GateOutcome::Fail);
    EXPECT_NE(r.message.find("below floor"), std::string::npos);
}

TEST(BenchGate, FailsWhenSweepMissing)
{
    json::Value doc = json::Value::object();
    auto r = core::evalParallelSpeedupGate(doc, 1.4);
    EXPECT_EQ(r.outcome, core::GateOutcome::Fail);
}

// The reported edge case: a sweep stitched together from two hosts
// (host_threads disagree) used to gate on meaningless cross-host
// ratios. It must skip with a warning instead.
TEST(BenchGate, SkipsOnMismatchedHosts)
{
    json::Value doc =
        docWith({sweepEntry(1, 8.0, 8), sweepEntry(4, 6.5, 4)});
    auto r = core::evalParallelSpeedupGate(doc, 1.4);
    EXPECT_EQ(r.outcome, core::GateOutcome::Skip);
    EXPECT_NE(r.message.find("mismatched hosts"), std::string::npos);
}

// Mixing tagged and untagged entries is also a stitched sweep (the
// untagged half predates per-entry host fingerprints) — and the
// order of the entries must not matter.
TEST(BenchGate, SkipsOnPartiallyTaggedSweep)
{
    json::Value tagged_first =
        docWith({sweepEntry(1, 8.0, 8), sweepEntry(4, 3.0)});
    json::Value untagged_first =
        docWith({sweepEntry(1, 8.0), sweepEntry(4, 3.0, 8)});
    EXPECT_EQ(core::evalParallelSpeedupGate(tagged_first, 1.4).outcome,
              core::GateOutcome::Skip);
    EXPECT_EQ(
        core::evalParallelSpeedupGate(untagged_first, 1.4).outcome,
        core::GateOutcome::Skip);
}

TEST(BenchGate, SkipsOnSmallHost)
{
    json::Value doc =
        docWith({sweepEntry(1, 8.0, 2), sweepEntry(4, 3.0, 2)});
    auto r = core::evalParallelSpeedupGate(doc, 1.4);
    EXPECT_EQ(r.outcome, core::GateOutcome::Skip);
    EXPECT_NE(r.message.find("hardware thread"), std::string::npos);
}

// A sweep without a 4-thread (or 1-thread) point has nothing to
// gate; it must skip, not divide by zero or fail.
TEST(BenchGate, SkipsWhenFourThreadPointMissing)
{
    json::Value no4 =
        docWith({sweepEntry(1, 8.0, 8), sweepEntry(2, 4.5, 8)});
    auto r = core::evalParallelSpeedupGate(no4, 1.4);
    EXPECT_EQ(r.outcome, core::GateOutcome::Skip);
    EXPECT_NE(r.message.find("4-thread"), std::string::npos);

    json::Value no1 =
        docWith({sweepEntry(2, 4.5, 8), sweepEntry(4, 3.0, 8)});
    r = core::evalParallelSpeedupGate(no1, 1.4);
    EXPECT_EQ(r.outcome, core::GateOutcome::Skip);
    EXPECT_NE(r.message.find("1-thread"), std::string::npos);
}

TEST(BenchGate, SkipsOnNonPositiveSeconds)
{
    json::Value doc =
        docWith({sweepEntry(1, 0.0, 8), sweepEntry(4, 3.0, 8)});
    EXPECT_EQ(core::evalParallelSpeedupGate(doc, 1.4).outcome,
              core::GateOutcome::Skip);
}

// Sweeps recorded before per-entry host_threads fall back to the
// document-level host fingerprint.
TEST(BenchGate, LegacySweepUsesDocumentHost)
{
    json::Value big_host = docWith(
        {sweepEntry(1, 8.0), sweepEntry(4, 3.0)}, /*doc host*/ 8);
    EXPECT_EQ(core::evalParallelSpeedupGate(big_host, 1.4).outcome,
              core::GateOutcome::Pass);

    json::Value small_host = docWith(
        {sweepEntry(1, 8.0), sweepEntry(4, 3.0)}, /*doc host*/ 2);
    EXPECT_EQ(core::evalParallelSpeedupGate(small_host, 1.4).outcome,
              core::GateOutcome::Skip);

    // No host information anywhere: not comparable, skip.
    json::Value no_host =
        docWith({sweepEntry(1, 8.0), sweepEntry(4, 3.0)});
    EXPECT_EQ(core::evalParallelSpeedupGate(no_host, 1.4).outcome,
              core::GateOutcome::Skip);
}

// ---------------------------------------------------------------------
// Oversubscribed sweep entries (threads > host_threads): such a point
// times kernel time-slicing, not the simulator, so it must never arm a
// gate. The reported case was a committed baseline recorded on a
// 1-hardware-thread host whose "4-thread" point (6.01s vs 1t 6.08s)
// made the parallel gate compare noise.
// ---------------------------------------------------------------------

TEST(BenchGate, OversubscribedDetectedFromHostThreads)
{
    EXPECT_TRUE(core::sweepEntryOversubscribed(sweepEntry(4, 6.0, 1)));
    EXPECT_TRUE(core::sweepEntryOversubscribed(sweepEntry(8, 2.0, 4)));
    EXPECT_FALSE(core::sweepEntryOversubscribed(sweepEntry(4, 3.0, 4)));
    EXPECT_FALSE(core::sweepEntryOversubscribed(sweepEntry(1, 8.0, 8)));
    // Entries without host_threads cannot be classified: assume fine.
    EXPECT_FALSE(core::sweepEntryOversubscribed(sweepEntry(4, 3.0)));
}

TEST(BenchGate, OversubscribedAnnotationIsAuthoritative)
{
    json::Value e = sweepEntry(4, 3.0, 8);
    e.set("oversubscribed", json::Value::boolean(true));
    EXPECT_TRUE(core::sweepEntryOversubscribed(e));
}

TEST(BenchGate, ParallelGateSkipsOversubscribedSweepPoint)
{
    // host_threads is plausible (8) but the 4-thread point carries the
    // recorder's oversubscribed annotation — skip, never gate.
    json::Value four = sweepEntry(4, 3.0, 8);
    four.set("oversubscribed", json::Value::boolean(true));
    json::Value doc =
        docWith({sweepEntry(1, 8.0, 8), std::move(four)});
    auto r = core::evalParallelSpeedupGate(doc, 1.4);
    EXPECT_EQ(r.outcome, core::GateOutcome::Skip);
    EXPECT_NE(r.message.find("oversubscribed"), std::string::npos);
}
