/**
 * @file
 * Tests of the benchmark's own code: span self-time arithmetic, span
 * parent and point ids, the written trace, the correctness checks, the
 * timing refusal, and the replica driver against SimulationRunner on a
 * tiny config of every workload. Run from the build directory
 * (run.py --self-test); files go to ./test_out.
 */

#include <chrono>
#include <csignal>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "checks.hh"
#include "fingerprint.hh"
#include "host_probe.hh"
#include "replica.hh"
#include "span_trace.hh"
#include "wormsim/common/json.hh"
#include "wormsim/common/logging.hh"
#include "wormsim/driver/runner.hh"
#include "workloads.hh"

using namespace perfbench;
using wormsim::SimulationConfig;

namespace
{

Span
span(std::uint32_t id, std::uint32_t parent, std::int64_t start,
     std::int64_t end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.start = start;
    s.end = end;
    return s;
}

const std::string kOut = "test_out";

} // namespace

TEST(SelfTime, NestedChildrenCountOnlyAtTheirParent)
{
    // root [0,100] > a [10,40] > g [15,30]; root > b [50,70]
    std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 40),
                               span(3, 2, 15, 30), span(4, 1, 50, 70)};
    std::vector<std::int64_t> self = selfTimes(spans);
    ASSERT_EQ(self.size(), 4u);
    EXPECT_EQ(self[0], 100 - 30 - 20);
    EXPECT_EQ(self[1], 30 - 15);
    EXPECT_EQ(self[2], 15);
    EXPECT_EQ(self[3], 20);
}

TEST(SelfTime, OverlappingChildrenAreCoveredOnce)
{
    // children [10,50] and [30,60] overlap; [80,120] is clipped to 100;
    // [90,95] lies inside the clipped one.
    std::vector<Span> spans = {span(7, 0, 0, 100), span(8, 7, 10, 50),
                               span(9, 7, 30, 60), span(10, 7, 80, 120),
                               span(11, 7, 90, 95)};
    std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 100 - (60 - 10) - (100 - 80));
    EXPECT_EQ(self[1], 40);
    EXPECT_EQ(self[2], 30);
}

TEST(SelfTime, OrderAndOrphansDoNotMatter)
{
    // Child listed before its parent; a span whose parent is absent.
    std::vector<Span> spans = {span(5, 4, 20, 30), span(4, 0, 0, 50),
                               span(6, 99, 0, 10)};
    std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 10);
    EXPECT_EQ(self[1], 40);
    EXPECT_EQ(self[2], 10);
    EXPECT_TRUE(selfTimes({}).empty());
}

TEST(Tracer, ParentAndPointIds)
{
    Tracer t;
    t.beginPoint(3, "p3");
    t.open(SpanName::SimRun);
    t.open(SpanName::Arrival);
    t.open(SpanName::Offer);
    t.close();
    t.close();
    t.close();
    t.open(SpanName::CloseSample);
    t.close();
    t.endPoint();
    t.beginPoint(4, "p4");
    t.open(SpanName::SimRun);
    t.close();
    t.endPoint();

    std::map<SpanName, std::vector<Span>> by;
    std::set<std::uint32_t> ids;
    for (const Span &s : t.kept()) {
        by[s.name].push_back(s);
        EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id";
        EXPECT_LE(s.start, s.end);
    }
    ASSERT_EQ(by[SpanName::Point].size(), 2u);
    ASSERT_EQ(by[SpanName::SimRun].size(), 2u);
    const Span &root = by[SpanName::Point][0];
    const Span &run = by[SpanName::SimRun][0];
    EXPECT_EQ(root.parent, 0u);
    EXPECT_EQ(run.parent, root.id);
    EXPECT_EQ(by[SpanName::Arrival][0].parent, run.id);
    EXPECT_EQ(by[SpanName::Offer][0].parent, by[SpanName::Arrival][0].id);
    EXPECT_EQ(by[SpanName::CloseSample][0].parent, root.id);
    for (const Span &s : t.kept())
        EXPECT_EQ(s.point, s.id < by[SpanName::Point][1].id ? 3u : 4u);
    EXPECT_EQ(by[SpanName::SimRun][1].parent, by[SpanName::Point][1].id);

    // Properly nested spans: the self times partition the roots.
    std::int64_t selfSum = 0;
    for (std::size_t n = 0; n < kNumSpanNames; ++n)
        selfSum += t.totals(static_cast<SpanName>(n)).selfNs;
    EXPECT_EQ(selfSum, t.totals(SpanName::Point).totalNs);
    EXPECT_EQ(t.totals(SpanName::SimRun).calls, 2u);
    EXPECT_EQ(t.totals(SpanName::Offer).calls, 1u);
}

TEST(Tracer, KeepCapRetainsEveryKeptSpansParent)
{
    Tracer t(3);
    t.beginPoint(0, "p");
    for (int r = 0; r < 4; ++r) {
        t.open(SpanName::SimRun);
        for (int k = 0; k < 3; ++k) {
            t.open(SpanName::Tick);
            t.open(SpanName::Step);
            t.close();
            t.close();
        }
        t.close();
    }
    t.endPoint();
    std::set<std::uint32_t> kept;
    for (const Span &s : t.kept())
        kept.insert(s.id);
    for (const Span &s : t.kept()) {
        if (s.parent != 0) {
            EXPECT_TRUE(kept.count(s.parent)) << "orphan span " << s.id;
        }
    }
    // Root + 4 sim.run spans always; ticks/steps only under the cap.
    EXPECT_LT(t.kept().size(), 1u + 4u + 24u);
    EXPECT_GE(t.kept().size(), 5u);
    // Folding still saw every span.
    EXPECT_EQ(t.totals(SpanName::Step).calls, 12u);
    EXPECT_EQ(t.stepDurationsUs().size(), 12u);
}

TEST(Tracer, MisuseThrows)
{
    Tracer t;
    EXPECT_THROW(t.close(), std::logic_error);
    t.beginPoint(0, "p");
    EXPECT_THROW(t.beginPoint(1, "q"), std::logic_error);
    t.open(SpanName::SimRun);
    EXPECT_THROW(t.endPoint(), std::logic_error);
}

TEST(Tracer, WrittenTraceLoadsThroughJsonParser)
{
    Tracer t;
    t.beginPoint(2, "nbc/\"uniform\"");
    t.open(SpanName::SimRun);
    t.open(SpanName::Step);
    t.close();
    t.close();
    t.endPoint();
    std::ostringstream os;
    t.writeChromeTrace(os, "{\"seed\": 7}");
    std::string text = os.str();

    wormsim::JsonValue doc;
    ASSERT_TRUE(wormsim::JsonParser(text).parse(doc)) << text;
    const wormsim::JsonValue *events = doc.field("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, wormsim::JsonValue::Array);
    ASSERT_EQ(events->items.size(), 1u + t.kept().size());
    EXPECT_EQ(events->items[0].field("args")->field("name")->text,
              "nbc/\"uniform\"");
    std::set<double> ids;
    for (std::size_t i = 1; i < events->items.size(); ++i) {
        const wormsim::JsonValue &e = events->items[i];
        EXPECT_EQ(e.field("ph")->text, "X");
        EXPECT_EQ(e.field("pid")->number, 2.0);
        ids.insert(e.field("args")->field("id")->number);
    }
    for (std::size_t i = 1; i < events->items.size(); ++i) {
        double parent = events->items[i].field("args")->field("parent")->number;
        EXPECT_TRUE(parent == 0.0 || ids.count(parent));
    }
    EXPECT_EQ(doc.field("otherData")->field("seed")->number, 7.0);
}

TEST(Checks, DigestSeesEveryStatistic)
{
    wormsim::SimulationResult r;
    r.samples.resize(2);
    std::uint64_t base = resultDigest(r);
    wormsim::SimulationResult a = r;
    a.samples[1].meanHops = 1e-300;
    EXPECT_NE(resultDigest(a), base);
    wormsim::SimulationResult b = r;
    b.deadlock.victimPending = 1;
    EXPECT_NE(resultDigest(b), base);
    // Host- and engine-dependent fields are left out.
    wormsim::SimulationResult c = r;
    c.wallSeconds = 3.0;
    c.cyclesPerSecond = 9.0;
    c.stepMode = "skip";
    c.routeCache = "off";
    c.fabricSteps = 42;
    EXPECT_EQ(resultDigest(c), base);
    EXPECT_EQ(digestHex(0x1a2bULL), "0000000000001a2b");
}

TEST(Checks, FingerprintRefusesDebugAndSanitizerBuilds)
{
    Fingerprint f;
    f.buildType = "Release";
    f.assertionsOff = true;
    f.sanitizers = "none";
    EXPECT_EQ(timingRefusal(f), "");
    Fingerprint debug = f;
    debug.buildType = "Debug";
    debug.assertionsOff = false;
    EXPECT_NE(timingRefusal(debug), "");
    Fingerprint asan = f;
    asan.sanitizers = "address";
    EXPECT_NE(timingRefusal(asan), "");
    Fingerprint tsan = f;
    tsan.sanitizers = "thread";
    EXPECT_NE(timingRefusal(tsan), "");
    EXPECT_EQ(timingRefusal(hostFingerprint()), "");
}

TEST(HostProbe, InCallPassesAreTakenOutOfTheCallsTime)
{
    HostProbe probe;
    EXPECT_GT(probe.slowness(), 0.0);
    using Clock = std::chrono::steady_clock;
    double wall = 0.0;
    Timed t = probe.timeRescaled([&wall] {
        auto t0 = Clock::now();
        while (std::chrono::duration<double>(Clock::now() - t0).count() < 1.0)
            ;
        wall = std::chrono::duration<double>(Clock::now() - t0).count();
    });
    // Two passes fire during the second; their time is not the call's.
    EXPECT_LT(t.raw, wall);
    EXPECT_GT(t.raw, 0.5 * wall);
    EXPECT_GT(t.scaled, 0.0);
    // The previous SIGALRM disposition is back.
    struct sigaction now{};
    sigaction(SIGALRM, nullptr, &now);
    EXPECT_EQ(now.sa_handler, SIG_DFL);
    EXPECT_THROW(probe.timeRescaled([] { throw std::runtime_error("x"); }),
                 std::runtime_error);
    sigaction(SIGALRM, nullptr, &now);
    EXPECT_EQ(now.sa_handler, SIG_DFL);
}

class ReplicaVsRunner : public testing::TestWithParam<std::string>
{
  protected:
    static void SetUpTestSuite()
    {
        wormsim::setLoggingQuiet(true);
        std::filesystem::create_directories(kOut);
    }
};

TEST_P(ReplicaVsRunner, TinyConfigIsBitIdenticalAndConserves)
{
    Workload w = makeWorkload(GetParam(), 5, kOut);
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        SimulationConfig cfg = w.points[i];
        shrinkWindows(cfg);
        SCOPED_TRACE(pointLabel(cfg));
        std::uint64_t want =
            resultDigest(wormsim::SimulationRunner(cfg).run());

        ReplicaRunner plain(cfg);
        wormsim::SimulationResult r = plain.run();
        EXPECT_EQ(resultDigest(r), want);
        EXPECT_EQ(checkInvariants(cfg, r, plain.counts()),
                  std::vector<std::string>{});

        Tracer tracer;
        ReplicaRunner traced(cfg, &tracer, static_cast<std::uint32_t>(i));
        EXPECT_EQ(resultDigest(traced.run()), want);
        EXPECT_GT(tracer.totals(SpanName::Step).calls, 0u);
        EXPECT_EQ(tracer.totals(SpanName::Offer).calls,
                  traced.counts().generated);

        // The skip engine takes the replica's other tick path.
        cfg.stepMode = wormsim::StepMode::Skip;
        std::uint64_t wantSkip =
            resultDigest(wormsim::SimulationRunner(cfg).run());
        ReplicaRunner skip(cfg, &tracer, static_cast<std::uint32_t>(i));
        EXPECT_EQ(resultDigest(skip.run()), wantSkip);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ReplicaVsRunner,
                         testing::ValuesIn(workloadNames()));

TEST(Checks, ConservationViolationIsReported)
{
    wormsim::setLoggingQuiet(true);
    Workload w = makeWorkload("faults_recovery", 3, kOut);
    SimulationConfig cfg = w.points[0];
    shrinkWindows(cfg);
    ReplicaRunner replica(cfg);
    wormsim::SimulationResult r = replica.run();
    ReplicaCounts c = replica.counts();
    ASSERT_TRUE(checkInvariants(cfg, r, c).empty());
    ReplicaCounts lost = c;
    ++lost.generated;
    EXPECT_FALSE(checkInvariants(cfg, r, lost).empty());
    wormsim::SimulationResult stalls = r;
    stalls.stalls.collected = true;
    stalls.stalls.vcBusy += 1;
    EXPECT_FALSE(checkInvariants(cfg, stalls, c).empty());
    ReplicaCounts knot = c;
    knot.detector.detections = 1;
    SimulationConfig faultFree = cfg;
    faultFree.faultRate = 0.0;
    EXPECT_FALSE(checkInvariants(faultFree, r, knot).empty());
}
