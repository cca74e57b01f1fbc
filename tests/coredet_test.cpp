/**
 * @file
 * Tests for the CoreDet-style deterministic thread scheduler and the
 * instrumented non-deterministic PBBS programs that run on it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "apps/bfs.h"
#include "apps/dmr.h"
#include "apps/dt.h"
#include "apps/mis.h"
#include "coredet/coredet.h"
#include "coredet/nd_apps.h"
#include "graph/generators.h"

using namespace galois;
using coredet::DmpScheduler;
using coredet::RawScheduler;

TEST(DmpScheduler, RunsAllThreadsToCompletion)
{
    DmpScheduler sched(4, 100);
    std::atomic<int> done{0};
    sched.run([&](unsigned) {
        for (int i = 0; i < 10; ++i)
            sched.work(50);
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 4);
}

TEST(DmpScheduler, SerializedOpsAreDeterministicallyOrdered)
{
    // Every thread appends its tid k times through sync; the recorded
    // sequence must be identical on every run — the determinism property
    // CoreDet provides for racy-free threaded code.
    auto record = [&] {
        DmpScheduler sched(4, 1000);
        std::vector<unsigned> order;
        sched.run([&](unsigned tid) {
            for (int i = 0; i < 25; ++i) {
                sched.sync([&] { order.push_back(tid); });
                sched.work(7 + tid); // uneven private progress
            }
        });
        return order;
    };
    const auto first = record();
    EXPECT_EQ(first.size(), 100u);
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_EQ(record(), first) << "rep " << rep;
}

TEST(DmpScheduler, SyncReturnsValues)
{
    DmpScheduler sched(3, 64);
    std::atomic<int> counter{0};
    std::vector<int> seen(3, -1);
    sched.run([&](unsigned tid) {
        seen[tid] = sched.sync(
            [&] { return counter.fetch_add(1, std::memory_order_relaxed); });
    });
    // Exactly the values 0, 1, 2 handed out (serially, hence unique).
    std::vector<int> sorted = seen;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
}

TEST(DmpScheduler, UnevenFinishersDoNotDeadlock)
{
    // Thread 0 finishes immediately; thread 3 performs many quanta.
    DmpScheduler sched(4, 10);
    std::atomic<int> done{0};
    sched.run([&](unsigned tid) {
        for (unsigned i = 0; i < tid * 200; ++i)
            sched.work(7);
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 4);
}

TEST(DmpScheduler, CountsRoundsAndSyncs)
{
    DmpScheduler sched(2, 10);
    sched.run([&](unsigned) {
        sched.sync([] {});
        sched.work(100); // crosses quantum boundaries
    });
    const auto s = sched.stats();
    EXPECT_GE(s.syncOps, 2u);
    EXPECT_GT(s.rounds, 0u);
}

// ---------------------------------------------------------------------
// Instrumented nd-PBBS programs
// ---------------------------------------------------------------------

TEST(NdApps, BfsMatchesReferenceUnderBothSchedulers)
{
    auto edges = graph::randomKOut(800, 5, 91, true);
    apps::bfs::Graph g(800, edges);
    const auto expect = apps::bfs::serialBfs(g, 0);

    RawScheduler raw(4);
    EXPECT_EQ(coredet::ndBfs(raw, g, 0, 4), expect);

    DmpScheduler dmp(4, 2000);
    EXPECT_EQ(coredet::ndBfs(dmp, g, 0, 4), expect);
    EXPECT_GT(dmp.stats().syncOps, 800u); // sync-heavy, as the paper says
}

TEST(NdApps, MisIsValidUnderBothSchedulers)
{
    auto edges = graph::randomKOut(1000, 5, 92, true);
    apps::mis::Graph g(1000, edges);

    auto validate = [&](const std::vector<std::uint8_t>& status) {
        std::vector<apps::mis::Flag> flags;
        for (auto s : status)
            flags.push_back(static_cast<apps::mis::Flag>(s));
        return apps::mis::isMaximalIndependentSet(g, flags);
    };

    RawScheduler raw(4);
    EXPECT_TRUE(validate(coredet::ndMis(raw, g, 4)));
    DmpScheduler dmp(4, 2000);
    EXPECT_TRUE(validate(coredet::ndMis(dmp, g, 4)));
}

TEST(NdApps, RefineWorksUnderBothSchedulers)
{
    {
        apps::dmr::Problem prob;
        apps::dmr::makeProblem(120, 93, prob);
        RawScheduler raw(4);
        coredet::ndRefine(raw, prob, 4);
        EXPECT_TRUE(apps::dmr::validate(prob));
    }
    {
        apps::dmr::Problem prob;
        apps::dmr::makeProblem(120, 93, prob);
        DmpScheduler dmp(2, 5000);
        coredet::ndRefine(dmp, prob, 2);
        EXPECT_TRUE(apps::dmr::validate(prob));
    }
}

// RawScheduler runs sync() bodies concurrently, so ndRefine's shared
// work queue must bring its own lock. Unguarded, concurrent push_back
// corrupted the heap (or lost a task and hung) at a rate that swings
// with host load, from none of 400 runs to most runs; repeating the
// run raises the odds that a regression shows.
TEST(NdApps, RefineUnderRawSchedulerRepeatedly)
{
    for (unsigned run = 0; run < 40; ++run) {
        apps::dmr::Problem prob;
        apps::dmr::makeProblem(120, 93 + run, prob);
        RawScheduler raw(4);
        coredet::ndRefine(raw, prob, 4);
        ASSERT_TRUE(apps::dmr::validate(prob)) << "run " << run;
    }
}

TEST(NdApps, TriangulateWorksUnderBothSchedulers)
{
    {
        apps::dt::Problem prob;
        apps::dt::makeProblem(apps::dt::randomPoints(200, 94), 95, prob);
        RawScheduler raw(4);
        EXPECT_EQ(coredet::ndTriangulate(raw, prob, 4), 200u);
        EXPECT_TRUE(apps::dt::validate(prob));
    }
    {
        apps::dt::Problem prob;
        apps::dt::makeProblem(apps::dt::randomPoints(200, 94), 95, prob);
        DmpScheduler dmp(2, 5000);
        EXPECT_EQ(coredet::ndTriangulate(dmp, prob, 2), 200u);
        EXPECT_TRUE(apps::dt::validate(prob));
    }
}

TEST(DmpScheduler, SingleThreadTeamIsJustSerial)
{
    DmpScheduler sched(1, 100);
    int x = 0;
    sched.run([&](unsigned tid) {
        EXPECT_EQ(tid, 0u);
        for (int i = 0; i < 10; ++i) {
            sched.work(50);
            sched.sync([&] { ++x; });
        }
    });
    EXPECT_EQ(x, 10);
}

TEST(DmpScheduler, BackoffRoundsParticipateWithoutEffects)
{
    DmpScheduler sched(3, 50);
    std::atomic<int> ops{0};
    sched.run([&](unsigned tid) {
        if (tid == 0)
            sched.backoffRounds(5);
        for (int i = 0; i < 5; ++i)
            sched.sync([&] { ops.fetch_add(1); });
    });
    EXPECT_EQ(ops.load(), 15);
}

TEST(DmpScheduler, QuantumBoundariesCountAsRounds)
{
    DmpScheduler sched(2, 10);
    sched.run([&](unsigned) {
        for (int i = 0; i < 100; ++i)
            sched.work(1); // 100 insns = 10 quanta
    });
    EXPECT_GE(sched.stats().quantaEnds, 2u * 9);
}

TEST(RawScheduler, PassesThrough)
{
    RawScheduler sched(4);
    std::atomic<int> count{0};
    sched.run([&](unsigned) {
        sched.work(1000000); // free
        count.fetch_add(sched.sync([] { return 1; }));
        sched.backoffRounds(3);
    });
    EXPECT_EQ(count.load(), 4);
    EXPECT_EQ(sched.stats().syncOps, 0u);
}
