/**
 * @file
 * DomainNet contract tests and the cluster model's pinned output.
 *
 * The net's send contract (lookahead floor, valid domains) and its
 * canonical delivery order define the cluster model's event sequence,
 * so they are tested directly. The cluster model's output is pinned
 * by a golden run and by run-twice identity.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "exp/cluster_sim.hh"
#include "sim/domain_net.hh"

using namespace aqua::sim;
using namespace aqua::exp;

TEST(DomainNet, EmptyRunFiresNothing)
{
    EventQueue q;
    DomainNet net(q, 4, 1, 100);
    EXPECT_EQ(q.run(), 0u);
    EXPECT_EQ(net.crossMessages(), 0u);
}

TEST(DomainNet, CrossDomainSendDeliversAtTimestamp)
{
    EventQueue q;
    DomainNet net(q, 2, 1, 50);
    Tick delivered = 0;
    q.schedule(10, [&] {
        net.send(0, 1, 10 + 50, [&] { delivered = q.now(); });
    });
    q.run();
    EXPECT_EQ(delivered, 60u);
    EXPECT_EQ(net.crossMessages(), 1u);
}

TEST(DomainNet, DeliveriesPrecedeSameTickLocalEvents)
{
    // A delivery landing at tick T must fire before local band-0
    // events already scheduled at T.
    EventQueue q;
    DomainNet net(q, 2, 1, 50);
    std::vector<int> order;
    q.schedule(60, [&] { order.push_back(2); });
    q.schedule(10, [&] {
        net.send(0, 1, 60, [&] { order.push_back(1); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(DomainNet, SameTickDeliveriesOrderedBySourceDomain)
{
    // Domains 2 and 1 both send to domain 0 for the same tick; the
    // canonical order is by source domain, not send order.
    EventQueue q;
    DomainNet net(q, 3, 1, 50);
    std::vector<int> order;
    q.schedule(5, [&] {
        net.send(2, 0, 100, [&] { order.push_back(2); });
    });
    q.schedule(7, [&] {
        net.send(1, 0, 100, [&] { order.push_back(1); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(DomainNet, PingPongTimestamps)
{
    // A two-domain ping-pong: each side bounces the token back
    // 70 ticks later and records the clock at delivery.
    EventQueue q;
    DomainNet net(q, 2, 1, 70);
    std::vector<Tick> ticks;
    int left = 20;
    std::function<void(std::size_t)> bounce = [&](std::size_t at) {
        ticks.push_back(q.now());
        if (--left == 0)
            return;
        std::size_t to = at ^ 1;
        net.send(at, to, q.now() + 70, [&bounce, to] { bounce(to); });
    };
    q.schedule(3, [&] { bounce(0); });
    q.run();

    std::vector<Tick> want;
    for (Tick i = 0; i < 20; ++i)
        want.push_back(3 + 70 * i);
    EXPECT_EQ(ticks, want);
    EXPECT_EQ(net.crossMessages(), 19u);
}

TEST(DomainNet, DomainRandomIsStructural)
{
    // Stream identity depends only on (seed, domain, stream) — not on
    // how many domains exist.
    EventQueue q;
    DomainNet net(q, 2, 42, 10);
    Random a = net.domainRandom(1, 3);
    Random b = domainStream(42, 1, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(DomainNetDeathTest, SendBelowLookaheadPanics)
{
    EventQueue q;
    DomainNet net(q, 2, 1, 50);
    q.schedule(10, [&] { net.send(0, 1, 10 + 49, [] {}); });
    EXPECT_DEATH(q.run(), "violates lookahead");
}

TEST(DomainNetDeathTest, SendWithBadDomainPanics)
{
    EventQueue q;
    DomainNet net(q, 2, 1, 50);
    EXPECT_DEATH(net.send(2, 0, 100, [] {}), "bad domain");
    EXPECT_DEATH(net.send(0, 2, 100, [] {}), "bad domain");
}

TEST(DomainNetDeathTest, ZeroDomainsOrLookaheadPanics)
{
    EventQueue q;
    EXPECT_DEATH({ DomainNet net(q, 0, 1, 50); }, "one domain");
    EXPECT_DEATH({ DomainNet net(q, 2, 1, 0); }, "lookahead");
}

namespace {

/** Small cluster instance that still exercises every mechanism. */
ClusterSimConfig
smallCluster(std::uint64_t seed, bool captureTrace)
{
    ClusterSimConfig cfg;
    cfg.numDomains = 4;
    cfg.gpusPerDomain = 4;
    cfg.modelsPerDomain = 2;
    cfg.seed = seed;
    cfg.numRequests = 2000;
    cfg.arrivalRatePerDomain = 4000.0;
    cfg.prefixProb = 0.4;
    cfg.prefixPool = 16;
    cfg.placementEvents = 3;
    cfg.churnIntervalSec = 0.03;
    cfg.captureTrace = captureTrace;
    return cfg;
}

} // anonymous namespace

TEST(ClusterGolden, SmallClusterSeed1)
{
    // Per-domain digests and counts of a fixed run. A change here
    // means the model's event sequence changed: update the values
    // only for an intended change of the model.
    ClusterSimConfig cfg = smallCluster(1, false);
    ClusterRunResult r = runClusterSim(cfg);
    EXPECT_EQ(r.digests, (std::vector<std::uint64_t>{
                             4122771661435016590ULL,
                             5005948717635298513ULL,
                             7030329734199904244ULL,
                             10903468022577819310ULL}));
    EXPECT_EQ(r.eventsFired, 8260u);
    EXPECT_EQ(r.crossMessages, 4257u);

    auto *completed = r.stats.find("total_completed");
    ASSERT_NE(completed, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(completed->asInt()),
              cfg.numRequests);
}

TEST(ClusterEquivalence, RunTwiceSameSeedIsIdentical)
{
    ClusterSimConfig cfg = smallCluster(11, true);
    ClusterRunResult a = runClusterSim(cfg);
    ClusterRunResult b = runClusterSim(cfg);
    ASSERT_EQ(a.traces.size(), cfg.numDomains);
    std::string why;
    EXPECT_TRUE(equivalentRuns(a, b, &why)) << why;
}

TEST(ClusterEquivalence, DifferentSeedsDiverge)
{
    // The check must be able to tell runs apart, or "equivalent" is
    // vacuous.
    ClusterRunResult a = runClusterSim(smallCluster(20, false));
    ClusterRunResult b = runClusterSim(smallCluster(21, false));
    EXPECT_FALSE(equivalentRuns(a, b));
}

TEST(ClusterEquivalence, MismatchReportsDomain)
{
    ClusterRunResult a = runClusterSim(smallCluster(30, false));
    ClusterRunResult b = a;
    b.digests[2] ^= 1;
    std::string why;
    EXPECT_FALSE(equivalentRuns(a, b, &why));
    EXPECT_NE(why.find("domain 2"), std::string::npos) << why;
}
