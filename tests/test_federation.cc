/**
 * @file
 * Tests for cross-server prefix federation: the inter-server fabric
 * model (bandwidth ramp, degradation, NIC serialization, estimate
 * accuracy), the shared stream-vs-recompute crossover, the federation
 * directory (gossip, version ordering, tombstones, digest-first
 * anti-entropy repair and its differential check against the
 * full-table reference round, admission caps, fetch-ticket
 * validation, journal replay, frozen routes), the multi-server
 * testbed factory, the windowed fabric route of serve::TransferPlan,
 * and the engine level: the race of a home eviction against an
 * in-flight federation stream, a shed mid-stream, a home GPU failure
 * mid-fetch, and a parked-session resume taking precedence over a
 * fetch.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cluster/prefix_registry.hh"
#include "exp/experiments.hh"
#include "exp/testbed.hh"
#include "federation/directory.hh"
#include "federation/federation_rest.hh"
#include "hw/fabric.hh"
#include "model/stream_choice.hh"
#include "recovery/state_journal.hh"
#include "serve/scheduler.hh"
#include "serve/ssd_tier.hh"
#include "serve/transfer_plan.hh"
#include "serve/vllm_engine.hh"
#include "sim/simulation.hh"
#include "sim/ticks.hh"
#include "tests/replay_equals_live.hh"
#include "workload/generator.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::federation;

namespace {

constexpr std::uint64_t mb = 1ull << 20;

/**
 * Publish with boilerplate sizes (@p blocks blocks, 16 tok/block).
 * @return false only on a cluster-wide hash collision.
 */
bool
pub(cluster::PrefixRegistry &reg, hw::GpuId gpu, std::uint64_t key,
    std::uint64_t verify, Tick now = 0, std::uint32_t blocks = 4)
{
    cluster::PublishResult r =
        reg.publish(gpu, key, verify, blocks,
                    std::uint64_t(blocks) * 16, 4 * mb, key ^ verify,
                    now);
    return r.role != cluster::PublishRole::Collision;
}

/** Wire duration of a fabric-only transfer issued on an idle fabric. */
Tick
wireTime(hw::Fabric &fab, std::uint64_t bytes)
{
    hw::TransferTiming t = fab.transfer(0, 1, bytes);
    return t.complete - t.start;
}

/**
 * Two directories over two registries, peered both ways through
 * plain REST routers on a shared simulation.
 */
struct DirectoryPair
{
    Simulation sim{1};
    cluster::PrefixRegistry reg0, reg1;
    core::RestRouter router0, router1;
    std::unique_ptr<FederationDirectory> d0, d1;

    explicit DirectoryPair(DirectoryConfig base = {})
    {
        DirectoryConfig c0 = base;
        c0.serverId = 0;
        DirectoryConfig c1 = base;
        c1.serverId = 1;
        d0 = std::make_unique<FederationDirectory>(sim, reg0, c0);
        d1 = std::make_unique<FederationDirectory>(sim, reg1, c1);
        bindFederationRoutes(router0, *d0);
        bindFederationRoutes(router1, *d1);
        d0->addPeer(1, router1);
        d1->addPeer(0, router0);
    }

    /** Run past the gossip delay so pushed adverts land. */
    void
    settle()
    {
        sim.runUntil(sim.now() + d0->config().gossipDelay * 2);
    }
};

/** Per-route dispatch counts seen by a router's fault hook. */
struct RouteCounter
{
    std::map<std::string, std::size_t> calls;
    /** Routes rejected with 503 (an outage) while counted. */
    std::vector<std::string> rejected;

    core::FaultHook
    hook()
    {
        return [this](const std::string &route, const json::Value &) {
            ++calls[route];
            core::DispatchFault f;
            for (const std::string &r : rejected) {
                if (r == route)
                    f.fate = core::DispatchFault::Fate::Reject;
            }
            return f;
        };
    }
};

/** Digest of @p d's local table, summed from scratch. */
std::uint64_t
recomputeLocalDigest(const FederationDirectory &d)
{
    std::uint64_t sum = 0;
    json::Value state = d.exportState();
    for (const json::Value &a : state.find("adverts")->asArray()) {
        DirectoryEntry e = FederationDirectory::advertFromJson(a);
        sum += FederationDirectory::advertHash(e.key, e.version);
    }
    return sum;
}

/** Digest of @p d's view of @p origin, summed from scratch. */
std::uint64_t
recomputeRemoteDigest(const FederationDirectory &d,
                      std::uint32_t origin)
{
    std::uint64_t sum = 0;
    for (const auto &[key, origins] : d.remoteView()) {
        auto it = origins.find(origin);
        if (it != origins.end())
            sum += FederationDirectory::advertHash(key,
                                                   it->second.version);
    }
    return sum;
}

bool
sameEntry(const DirectoryEntry &a, const DirectoryEntry &b)
{
    return a.key == b.key && a.verify == b.verify &&
           a.blocks == b.blocks && a.tokens == b.tokens &&
           a.bytes == b.bytes && a.chainSig == b.chainSig &&
           a.server == b.server && a.version == b.version &&
           a.tombstone == b.tombstone;
}

/** Field-for-field equality of two remote views. */
::testing::AssertionResult
sameView(const FederationDirectory::RemoteView &a,
         const FederationDirectory::RemoteView &b)
{
    auto describe = [](const FederationDirectory::RemoteView &v) {
        std::string out;
        for (const auto &slots : v) {
            for (const auto &slot : slots.second)
                out += " " +
                       FederationDirectory::advertToJson(slot.second)
                           .dump();
        }
        return out;
    };
    bool equal = a.size() == b.size();
    for (auto ia = a.begin(), ib = b.begin();
         equal && ia != a.end(); ++ia, ++ib) {
        equal = ia->first == ib->first &&
                ia->second.size() == ib->second.size();
        for (auto ea = ia->second.begin(), eb = ib->second.begin();
             equal && ea != ia->second.end(); ++ea, ++eb)
            equal = ea->first == eb->first &&
                    sameEntry(ea->second, eb->second);
    }
    if (equal)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "views differ:\n  " << describe(a) << "\nvs\n  "
           << describe(b);
}

/**
 * Reference anti-entropy round: the full-table resend the digest
 * round replaced. Every local advert, tombstones included, goes to
 * every peer router in key order, every round.
 */
void
referenceRound(const FederationDirectory &origin,
               const std::vector<core::RestRouter *> &peers)
{
    if (origin.frozen())
        return;
    json::Value state = origin.exportState();
    for (const json::Value &advert : state.find("adverts")->asArray()) {
        for (core::RestRouter *peer : peers)
            peer->dispatch("POST /federation/advertise", advert);
    }
}

/** splitmix64 step, for the fleet's content-keyed fault draws. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Three directories over three registries, peered every way. Each
 * router's fault hook rejects a seeded subset of federation
 * messages, decided from the destination, the message content and
 * the simulated time only, so two fleets fed the same operations
 * reject the same pushes whichever round implementation sends them.
 */
struct Fleet
{
    static constexpr std::size_t n = 3;
    Simulation sim{1};
    std::array<cluster::PrefixRegistry, n> regs;
    std::array<core::RestRouter, n> routers;
    std::vector<std::unique_ptr<FederationDirectory>> dirs;
    std::uint64_t salt;
    bool faults = true;
    std::size_t advertiseCalls = 0;

    explicit Fleet(std::uint64_t faultSalt) : salt(faultSalt)
    {
        for (std::size_t i = 0; i < n; ++i) {
            DirectoryConfig c;
            c.serverId = static_cast<std::uint32_t>(i);
            dirs.push_back(
                std::make_unique<FederationDirectory>(sim, regs[i], c));
            bindFederationRoutes(routers[i], *dirs[i]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (i != j)
                    dirs[i]->addPeer(static_cast<std::uint32_t>(j),
                                     routers[j]);
            }
            routers[i].setFaultHook(
                [this, i](const std::string &route,
                          const json::Value &body) {
                    return fate(i, route, body);
                });
        }
    }

    core::DispatchFault
    fate(std::size_t dest, const std::string &route,
         const json::Value &body)
    {
        std::uint64_t draw = mix64(salt ^ mix64(dest ^ sim.now()));
        std::uint64_t percent = 0;
        if (route == "POST /federation/advertise") {
            ++advertiseCalls;
            draw = mix64(draw ^ mix64(std::uint64_t(
                                    body.getInt("key", 0)) ^
                                mix64(std::uint64_t(
                                    body.getInt("version", 0)))));
            percent = 25;
        } else if (route == "POST /federation/digest") {
            draw = mix64(draw ^ std::uint64_t(body.getInt("server", 0)));
            percent = 15;
        } else if (route == "POST /federation/fetch_begin") {
            draw = mix64(draw ^ std::uint64_t(body.getInt("key", 0)));
            percent = 50;
        }
        core::DispatchFault f;
        if (faults && draw % 100 < percent)
            f.fate = core::DispatchFault::Fate::Reject;
        return f;
    }

    std::vector<core::RestRouter *>
    peersOf(std::size_t i)
    {
        std::vector<core::RestRouter *> out;
        for (std::size_t j = 0; j < n; ++j) {
            if (j != i)
                out.push_back(&routers[j]);
        }
        return out;
    }
};

} // anonymous namespace

//
// Shared stream-vs-recompute crossover.
//

TEST(StreamChoice, CrossoverRespectsSafetyFactor)
{
    // Clear win: 1ms stream vs 10ms prefill.
    EXPECT_TRUE(model::streamBeatsRecompute(1 * nsPerMs, 0,
                                            10 * nsPerMs, 1.2));
    // Clear loss.
    EXPECT_FALSE(model::streamBeatsRecompute(10 * nsPerMs, 0,
                                             1 * nsPerMs, 1.2));
    // Overhead counts against the stream.
    EXPECT_FALSE(model::streamBeatsRecompute(1 * nsPerMs, 9 * nsPerMs,
                                             10 * nsPerMs, 1.2));
    // The safety factor biases ties toward recompute: a stream at
    // 90% of the prefill time loses under a 1.2x margin...
    EXPECT_FALSE(model::streamBeatsRecompute(9 * nsPerMs, 0,
                                             10 * nsPerMs, 1.2));
    // ...and wins with no margin.
    EXPECT_TRUE(model::streamBeatsRecompute(9 * nsPerMs, 0,
                                            10 * nsPerMs, 1.0));
}

//
// Inter-server fabric.
//

TEST(Fabric, BandwidthRampFavorsLargeTransfers)
{
    Simulation sim(1);
    hw::Fabric fab(sim, 2);
    // Effective bytes/tick must improve with size: the ramp makes
    // small transfers proportionally slower.
    Tick small = wireTime(fab, 1 * mb);
    Tick large = wireTime(fab, 64 * mb);
    double bwSmall = double(1 * mb) / double(small);
    double bwLarge = double(64 * mb) / double(large);
    EXPECT_GT(bwLarge, bwSmall * 2.0);
}

TEST(Fabric, DegradationSlowsTheWire)
{
    Simulation sim(1);
    hw::Fabric fab(sim, 2);
    Tick healthy = wireTime(fab, 32 * mb);
    fab.setDegradation(0.25);
    EXPECT_DOUBLE_EQ(fab.degradation(), 0.25);
    Tick degraded = wireTime(fab, 32 * mb);
    EXPECT_GT(degraded, healthy * 2);
    fab.setDegradation(1.0);
    EXPECT_EQ(wireTime(fab, 32 * mb), healthy);
}

TEST(Fabric, NicPortsSerializeConcurrentFlows)
{
    Simulation sim(1);
    hw::Fabric fab(sim, 4);
    // Two flows out of the same source NIC serialize even though the
    // destinations differ.
    hw::TransferTiming a = fab.transfer(0, 1, 32 * mb);
    hw::TransferTiming b = fab.transfer(0, 2, 32 * mb);
    EXPECT_GE(b.start, a.complete);
    EXPECT_GT(fab.stats().queueTicks, 0u);
    EXPECT_EQ(fab.stats().transfers, 2u);
}

TEST(Fabric, StreamEstimateMatchesIdleStream)
{
    // On an idle fabric the estimate has no queueing term: the longest
    // path through the (window, hop) grid of PCIe-out, wire and
    // PCIe-in, which is exactly when the last window lands, whether
    // the payload fits one window or spans several.
    for (std::uint64_t bytes : {16 * mb, 33 * mb, 151 * mb}) {
        auto cluster = exp::Testbed::makeMultiServerCluster(2, 2);
        hw::Fabric &fab = cluster->fabric();
        Simulation &sim = cluster->sim();
        serve::TransferPlan plan(sim);
        serve::TransferPlan::Route route =
            serve::TransferPlan::fabricRoute(fab, 0, 0, 1, 0);
        Tick est = plan.estimate(route, bytes) + fab.queueBacklog(0, 1);
        Tick done = 0;
        plan.start(route, bytes, 0,
                   [&done](const serve::TransferPlan::Done &d) {
                       done = d.complete;
                   });
        sim.runUntil(sim.now() + secToTicks(10.0));
        ASSERT_GT(done, 0u);
        EXPECT_NEAR(double(done), double(est), double(est) * 0.01);
        EXPECT_EQ(done, est) << bytes / mb << " MiB";
    }
}

TEST(Fabric, SingleWindowStreamLandsAtTheThreeHopTick)
{
    // A payload of one window crosses the three hops exactly as a
    // store-and-forward chain of them does: home GPU → DRAM, the wire,
    // DRAM → consumer GPU, each hop starting when the previous lands.
    std::uint64_t bytes = serve::TransferPlan::windowBytes;
    auto chained = [bytes] {
        auto cluster = exp::Testbed::makeMultiServerCluster(2, 2);
        hw::Fabric &fab = cluster->fabric();
        hw::TransferTiming out = fab.serverTopology(0).copy(
            0, hw::hostDramId, bytes, {}, 0);
        hw::TransferTiming wire =
            fab.transfer(0, 1, bytes, {}, out.complete);
        return fab.serverTopology(1)
            .copy(hw::hostDramId, 0, bytes, {}, wire.complete)
            .complete;
    };
    auto cluster = exp::Testbed::makeMultiServerCluster(2, 2);
    Simulation &sim = cluster->sim();
    serve::TransferPlan plan(sim);
    serve::TransferPlan::Done done;
    plan.start(serve::TransferPlan::fabricRoute(cluster->fabric(), 0, 0, 1,
                                                0),
               bytes, 0,
               [&done](const serve::TransferPlan::Done &d) { done = d; });
    sim.runUntil(sim.now() + secToTicks(10.0));
    EXPECT_FALSE(done.cancelled);
    EXPECT_EQ(done.bytes, bytes);
    EXPECT_EQ(done.complete, chained());
    // Nothing overlaps within one window.
    EXPECT_EQ(done.overlapEfficiency, 0.0);
    EXPECT_EQ(plan.stats().windowsIssued, 1u);
    EXPECT_EQ(cluster->fabric().stats().transfers, 1u);
}

//
// Federation directory.
//

TEST(Directory, GossipDeliversAdvertsToPeers)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    EXPECT_EQ(p.d0->localAdvertCount(), 1u);
    EXPECT_EQ(p.d1->remoteAdvertCount(), 0u); // not yet delivered
    p.settle();
    EXPECT_EQ(p.d1->remoteAdvertCount(), 1u);

    FederationLookup hit =
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 4}});
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(hit.entry.server, 0u);
    EXPECT_EQ(hit.entry.blocks, 4u);
    EXPECT_EQ(hit.entry.chainSig, 0xa1 ^ 0xb1);

    // A verify mismatch never matches.
    EXPECT_FALSE(
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xff, 4}}).found);
    EXPECT_GT(p.d1->stats().misses, 0u);
}

TEST(Directory, StaleVersionsAreIgnored)
{
    DirectoryPair p;
    DirectoryEntry v2;
    v2.key = 0xa1;
    v2.verify = 0xb1;
    v2.blocks = 8;
    v2.server = 0;
    v2.version = 2;
    p.d1->applyAdvert(v2);
    EXPECT_EQ(p.d1->stats().advertsApplied, 1u);

    DirectoryEntry v1 = v2;
    v1.blocks = 4;
    v1.version = 1;
    p.d1->applyAdvert(v1); // older: ignored
    EXPECT_EQ(p.d1->stats().advertsStale, 1u);
    FederationLookup hit =
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 8}});
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(hit.entry.blocks, 8u);

    // Own-server adverts are never applied (gossip echo).
    DirectoryEntry own = v2;
    own.server = 1;
    own.version = 9;
    p.d1->applyAdvert(own);
    EXPECT_EQ(p.d1->stats().advertsApplied, 1u);
}

TEST(Directory, EvictionTombstonesThePeerView)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    p.settle();
    ASSERT_EQ(p.d1->remoteAdvertCount(), 1u);

    // The home's only copy goes away: invalidation tombstones the
    // advert and gossip withdraws it from every peer.
    p.reg0.evictNotify(0, 0xa1, 0xb1, p.sim.now());
    EXPECT_EQ(p.d0->stats().tombstones, 1u);
    p.settle();
    EXPECT_EQ(p.d1->remoteAdvertCount(), 0u);
    EXPECT_FALSE(
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 4}}).found);

    // Re-publishing resurrects it with a higher version.
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1, p.sim.now()));
    p.settle();
    EXPECT_EQ(p.d1->remoteAdvertCount(), 1u);
}

TEST(Directory, AntiEntropyRepairsAMissedAdvert)
{
    // d0 publishes with no peers connected: the push goes nowhere.
    Simulation sim(1);
    cluster::PrefixRegistry reg0, reg1;
    core::RestRouter router0, router1;
    DirectoryConfig c0, c1;
    c0.serverId = 0;
    c1.serverId = 1;
    FederationDirectory d0(sim, reg0, c0);
    FederationDirectory d1(sim, reg1, c1);
    bindFederationRoutes(router0, d0);
    bindFederationRoutes(router1, d1);
    ASSERT_TRUE(pub(reg0, 0, 0xa1, 0xb1));
    sim.runUntil(sim.now() + c0.gossipDelay * 2);

    // Late peering: the periodic full-table resend repairs the view.
    d0.addPeer(1, router1);
    d1.addPeer(0, router0);
    EXPECT_EQ(d1.remoteAdvertCount(), 0u);
    d0.antiEntropyRound();
    EXPECT_EQ(d1.remoteAdvertCount(), 1u);
    EXPECT_EQ(d0.stats().antiEntropyRounds, 1u);

    // A frozen directory skips its rounds (crashed coordinators do
    // not gossip).
    d0.setFrozen(true);
    d0.antiEntropyRound();
    EXPECT_EQ(d0.stats().antiEntropyRounds, 2u);
    d0.setFrozen(false);
}

TEST(Directory, AdmissionCapRefusesExcessConsumers)
{
    DirectoryConfig base;
    base.maxRemoteConsumers = 2;
    DirectoryPair p(base);
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));

    FetchGrant g1 = p.d0->fetchBegin(0xa1, 0xb1, 1);
    FetchGrant g2 = p.d0->fetchBegin(0xa1, 0xb1, 1);
    ASSERT_TRUE(g1.ok);
    ASSERT_TRUE(g2.ok);
    EXPECT_NE(g1.ticket, g2.ticket);
    EXPECT_EQ(p.d0->activeFetches(), 2u);

    FetchGrant g3 = p.d0->fetchBegin(0xa1, 0xb1, 1);
    EXPECT_FALSE(g3.ok);
    EXPECT_EQ(g3.reason, "cap");
    EXPECT_EQ(p.d0->stats().fetchCapRejects, 1u);

    // Closing a ticket frees the slot.
    EXPECT_TRUE(p.d0->fetchEnd(g1.ticket));
    EXPECT_TRUE(p.d0->fetchBegin(0xa1, 0xb1, 1).ok);

    // Unknown chains are refused as stale.
    FetchGrant unknown = p.d0->fetchBegin(0xdead, 0xbeef, 1);
    EXPECT_FALSE(unknown.ok);
    EXPECT_EQ(unknown.reason, "stale");
}

TEST(Directory, MidStreamEvictionInvalidatesTheTicket)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    FetchGrant g = p.d0->fetchBegin(0xa1, 0xb1, 1);
    ASSERT_TRUE(g.ok);

    // The home evicts its only copy while the stream is in flight:
    // the version check at completion must declare the payload
    // worthless.
    p.reg0.evictNotify(0, 0xa1, 0xb1, p.sim.now());
    EXPECT_FALSE(p.d0->fetchEnd(g.ticket));
    EXPECT_EQ(p.d0->stats().fetchInvalidated, 1u);
    EXPECT_EQ(p.d0->activeFetches(), 0u);

    // An unknown ticket (granted before a crash) is also invalid.
    EXPECT_FALSE(p.d0->fetchEnd(9999));
}

TEST(Directory, ReplicaPromotionKeepsTheTicketValid)
{
    DirectoryPair p;
    cluster::RegistryAgent agent;
    agent.setPinned = [](std::uint64_t, bool) { return true; };
    agent.promote = [](std::uint64_t) { return true; };
    p.reg0.setAgent(0, agent);
    p.reg0.setAgent(1, agent);
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    ASSERT_TRUE(pub(p.reg0, 1, 0xa1, 0xb1)); // replica on gpu 1

    FetchGrant g = p.d0->fetchBegin(0xa1, 0xb1, 1);
    ASSERT_TRUE(g.ok);
    // The home copy goes away but a replica takes over: the content
    // is byte-identical, so the advert version does not change and
    // the in-flight stream stays trustworthy.
    EXPECT_EQ(p.reg0.evictNotify(0, 0xa1, 0xb1, p.sim.now()),
              cluster::EvictAction::Promoted);
    EXPECT_TRUE(p.d0->fetchEnd(g.ticket));
    EXPECT_EQ(p.d0->stats().fetchValidated, 1u);
}

TEST(Directory, JournalReplayRestoresLocalAdverts)
{
    DirectoryPair p;
    FederationDirectory::Journal journal;
    p.d0->attachJournal(&journal);
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    ASSERT_TRUE(pub(p.reg0, 0, 0xc2, 0xd2));
    p.reg0.evictNotify(0, 0xc2, 0xd2, p.sim.now());
    ASSERT_EQ(journal.pending().size(), 3u);
    EXPECT_TRUE(replayEqualsLive(*p.d0, journal));

    json::Value snapshot = p.d0->exportState();
    p.d0->reset();
    EXPECT_EQ(p.d0->localAdvertCount(), 0u);

    // Tail-only replay (no snapshot) rebuilds the table and the
    // version source.
    recovery::replay(*p.d0, journal);
    EXPECT_EQ(p.d0->localAdvertCount(), 2u);
    json::Value replayed = p.d0->exportState();
    EXPECT_EQ(replayed.dump(), snapshot.dump());

    // A post-replay publish must version *past* the replayed history,
    // or peers would ignore it as stale.
    ASSERT_TRUE(pub(p.reg0, 0, 0xe3, 0xf3, p.sim.now()));
    p.settle();
    FederationLookup hit =
        p.d1->lookup({cluster::CandidateKey{0xe3, 0xf3, 4}});
    ASSERT_TRUE(hit.found);
    EXPECT_GT(hit.entry.version, 3u);
    EXPECT_TRUE(replayEqualsLive(*p.d0, journal));
}

TEST(Directory, FrozenRoutesAreRetryable)
{
    DirectoryPair p;
    p.d0->setFrozen(true);
    json::Value advert;
    advert["key"] = 1;
    advert["server"] = 1;
    advert["version"] = 1;
    core::RestResponse r =
        p.router0.dispatch("POST /federation/advertise", advert);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.retryable());

    json::Value begin;
    begin["key"] = 1;
    begin["verify"] = 2;
    begin["consumer_server"] = 1;
    r = p.router0.dispatch("POST /federation/fetch_begin", begin);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.retryable());

    p.d0->setFrozen(false);
    r = p.router0.dispatch("POST /federation/fetch_begin",
                           std::move(begin));
    EXPECT_TRUE(r.ok()); // answered (refused as stale, but answered)
    EXPECT_FALSE(r.body.getBool("ok", true));
}

//
// Digest-first anti-entropy.
//

TEST(AntiEntropy, MatchedDigestSendsNoAdvertise)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    ASSERT_TRUE(pub(p.reg0, 0, 0xc2, 0xd2));
    p.reg0.evictNotify(0, 0xc2, 0xd2, p.sim.now());
    p.settle();
    ASSERT_EQ(p.d1->remoteDigest(0), p.d0->localDigest());

    RouteCounter to1;
    p.router1.setFaultHook(to1.hook());
    p.d0->antiEntropyRound();
    EXPECT_EQ(to1.calls["POST /federation/digest"], 1u);
    EXPECT_EQ(to1.calls["POST /federation/advertise"], 0u);

    // A directory with no local adverts sends nothing at all.
    RouteCounter to0;
    p.router0.setFaultHook(to0.hook());
    p.d1->antiEntropyRound();
    EXPECT_TRUE(to0.calls.empty());
    EXPECT_EQ(p.d0->stats().antiEntropyRounds, 1u);
    EXPECT_EQ(p.d1->stats().antiEntropyRounds, 1u);
}

TEST(AntiEntropy, MissedPushIsRepairedInOneRound)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    p.settle();
    // The second advert's push is lost to an outage.
    RouteCounter to1;
    to1.rejected = {"POST /federation/advertise"};
    p.router1.setFaultHook(to1.hook());
    ASSERT_TRUE(pub(p.reg0, 0, 0xc2, 0xd2, p.sim.now()));
    p.settle();
    EXPECT_EQ(p.d0->stats().advertsDropped, 1u);
    EXPECT_EQ(p.d1->remoteAdvertCount(), 1u);
    EXPECT_NE(p.d1->remoteDigest(0), p.d0->localDigest());

    // Outage over: the digest mismatches and the full table goes out.
    p.router1.setFaultHook(nullptr);
    RouteCounter after;
    p.router1.setFaultHook(after.hook());
    p.d0->antiEntropyRound();
    EXPECT_EQ(after.calls["POST /federation/digest"], 1u);
    EXPECT_EQ(after.calls["POST /federation/advertise"], 2u);
    EXPECT_EQ(p.d1->remoteAdvertCount(), 2u);
    EXPECT_EQ(p.d1->remoteDigest(0), p.d0->localDigest());
    EXPECT_TRUE(
        p.d1->lookup({cluster::CandidateKey{0xc2, 0xd2, 4}}).found);
}

TEST(AntiEntropy, ResetOrRestoredPeerIsRefilledInOneRound)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    ASSERT_TRUE(pub(p.reg0, 0, 0xc2, 0xd2));
    ASSERT_TRUE(pub(p.reg0, 0, 0xe3, 0xf3));
    p.reg0.evictNotify(0, 0xe3, 0xf3, p.sim.now());
    p.settle();
    const FederationDirectory::RemoteView before = p.d1->remoteView();
    ASSERT_EQ(before.size(), 3u);

    // A crash recovery drops the soft remote view.
    p.d1->reset();
    EXPECT_TRUE(p.d1->remoteView().empty());
    EXPECT_EQ(p.d1->remoteDigest(0), 0u);
    p.d0->antiEntropyRound();
    EXPECT_TRUE(sameView(p.d1->remoteView(), before));

    // restoreState() brings back local adverts only: the remote view
    // is refilled by the peer, again in one round.
    ASSERT_TRUE(pub(p.reg1, 0, 0x17, 0x18));
    json::Value snapshot = p.d1->exportState();
    p.d1->restoreState(snapshot);
    EXPECT_TRUE(p.d1->remoteView().empty());
    EXPECT_EQ(p.d1->localAdvertCount(), 1u);
    p.d0->antiEntropyRound();
    EXPECT_TRUE(sameView(p.d1->remoteView(), before));
}

TEST(AntiEntropy, IncrementalDigestsMatchRecomputation)
{
    DirectoryPair p;
    FederationDirectory::Journal journal;
    p.d0->attachJournal(&journal);
    auto check = [&p] {
        EXPECT_EQ(p.d0->localDigest(), recomputeLocalDigest(*p.d0));
        EXPECT_EQ(p.d1->localDigest(), recomputeLocalDigest(*p.d1));
        EXPECT_EQ(p.d1->remoteDigest(0), recomputeRemoteDigest(*p.d1, 0));
        EXPECT_EQ(p.d0->remoteDigest(1), recomputeRemoteDigest(*p.d0, 1));
    };
    EXPECT_EQ(p.d0->localDigest(), 0u);
    check();

    // Publish, tombstone and re-publish, gossiped.
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    ASSERT_TRUE(pub(p.reg0, 0, 0xc2, 0xd2));
    ASSERT_TRUE(pub(p.reg1, 0, 0x17, 0x18));
    check();
    p.settle();
    check();
    EXPECT_NE(p.d0->localDigest(), 0u);
    EXPECT_EQ(p.d1->remoteDigest(0), p.d0->localDigest());
    p.reg0.evictNotify(0, 0xc2, 0xd2, p.sim.now());
    check();
    p.settle();
    ASSERT_TRUE(pub(p.reg0, 0, 0xc2, 0xd2, p.sim.now()));
    p.settle();
    check();
    EXPECT_EQ(p.d1->remoteDigest(0), p.d0->localDigest());
    const std::uint64_t live = p.d0->localDigest();

    // Journal replay after a reset rebuilds the same digest.
    p.d0->reset();
    EXPECT_EQ(p.d0->localDigest(), 0u);
    check();
    recovery::replay(*p.d0, journal);
    check();
    EXPECT_EQ(p.d0->localDigest(), live);
    EXPECT_TRUE(replayEqualsLive(*p.d0, journal));

    // So does restoreState().
    json::Value snapshot = p.d0->exportState();
    p.d0->restoreState(snapshot);
    check();
    EXPECT_EQ(p.d0->localDigest(), live);

    // The digest covers (key, version): any version change moves it.
    EXPECT_NE(FederationDirectory::advertHash(0xa1, 1),
              FederationDirectory::advertHash(0xa1, 2));
    EXPECT_NE(FederationDirectory::advertHash(0xa1, 1),
              FederationDirectory::advertHash(0xa2, 1));
}

TEST(AntiEntropy, FrozenPeerStillGetsTheFullPushFallback)
{
    DirectoryPair p;
    p.d1->setFrozen(true);
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    ASSERT_TRUE(pub(p.reg0, 0, 0xc2, 0xd2));
    p.settle();
    EXPECT_EQ(p.d0->stats().advertsDropped, 2u); // gossip lost

    // The frozen peer's 503 on the digest is not a match: the origin
    // falls back to the full push, which the peer also refuses, and
    // the drops count exactly as a full-table resend's would.
    RouteCounter to1;
    p.router1.setFaultHook(to1.hook());
    p.d0->antiEntropyRound();
    EXPECT_EQ(to1.calls["POST /federation/digest"], 1u);
    EXPECT_EQ(to1.calls["POST /federation/advertise"], 2u);
    EXPECT_EQ(p.d0->stats().advertsDropped, 4u);
    EXPECT_EQ(p.d1->remoteAdvertCount(), 0u);

    // Recovery unfreezes the peer; the next round repairs it.
    p.d1->setFrozen(false);
    p.d0->antiEntropyRound();
    EXPECT_EQ(p.d1->remoteAdvertCount(), 2u);
    EXPECT_EQ(p.d1->remoteDigest(0), p.d0->localDigest());
}

TEST(AntiEntropy, UnreachableRefusalIsRepairedAfterTheOutage)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    p.settle();
    FederationLookup hit =
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 4}});
    ASSERT_TRUE(hit.found);

    // The home's coordinator is out: the fetch is refused as
    // unreachable and the consumer stops offering the dead end.
    RouteCounter to0;
    to0.rejected = {"POST /federation/fetch_begin"};
    p.router0.setFaultHook(to0.hook());
    FetchGrant g = p.d1->requestFetch(hit.entry);
    EXPECT_FALSE(g.ok);
    EXPECT_EQ(g.reason, "unreachable");
    EXPECT_FALSE(
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 4}}).found);
    EXPECT_EQ(p.d1->remoteDigest(0), recomputeRemoteDigest(*p.d1, 0));

    // The outage ends; the home still holds the chain, and one round
    // makes it visible again.
    p.router0.setFaultHook(nullptr);
    p.d0->antiEntropyRound();
    FederationLookup again =
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 4}});
    ASSERT_TRUE(again.found);
    EXPECT_TRUE(sameEntry(again.entry, hit.entry));
    EXPECT_TRUE(p.d1->requestFetch(again.entry).ok);
}

TEST(AntiEntropy, StaleRefusalTombstonesTheView)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    p.settle();
    FederationLookup hit =
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 4}});
    ASSERT_TRUE(hit.found);

    // The home evicts, but its tombstone has not landed yet.
    p.reg0.evictNotify(0, 0xa1, 0xb1, p.sim.now());
    FetchGrant g = p.d1->requestFetch(hit.entry);
    EXPECT_EQ(g.reason, "stale");
    EXPECT_FALSE(
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 4}}).found);
    EXPECT_EQ(p.d1->remoteView().at(0xa1).at(0).version,
              hit.entry.version);
    p.settle();
    EXPECT_GT(p.d1->remoteView().at(0xa1).at(0).version,
              hit.entry.version);
    EXPECT_EQ(p.d1->remoteDigest(0), p.d0->localDigest());
}

TEST(AntiEntropy, DigestRoundMatchesTheFullTableReference)
{
    // Random publish / evict / re-publish / fetch sequences over two
    // identical three-server fleets: one repairs with the digest
    // round, the other with the reference full-table round. Pushes,
    // digests and fetches are rejected by the same content-keyed
    // draws in both, and after every round each remote view must be
    // identical field for field.
    std::size_t digestAdvertises = 0, referenceAdvertises = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        Fleet digest(seed), reference(seed);
        std::array<Fleet *, 2> fleets{&digest, &reference};
        std::mt19937_64 rng(seed);
        const Tick half = digest.dirs[0]->config().gossipDelay / 2;
        auto compare = [&] {
            for (std::size_t i = 0; i < Fleet::n; ++i) {
                ASSERT_TRUE(sameView(digest.dirs[i]->remoteView(),
                                     reference.dirs[i]->remoteView()))
                    << "server " << i;
                const FederationDirectory &d = *digest.dirs[i];
                EXPECT_EQ(d.localDigest(), recomputeLocalDigest(d));
                for (std::uint32_t o = 0; o < Fleet::n; ++o)
                    EXPECT_EQ(d.remoteDigest(o),
                              recomputeRemoteDigest(d, o));
            }
        };
        auto round = [&] {
            for (std::size_t i = 0; i < Fleet::n; ++i) {
                digest.dirs[i]->antiEntropyRound();
                referenceRound(*reference.dirs[i],
                               reference.peersOf(i));
            }
        };
        for (int step = 0; step < 300; ++step) {
            std::uint64_t op = rng() % 10;
            std::size_t s = rng() % Fleet::n;
            std::uint64_t key = 0x100 + rng() % 6;
            std::uint64_t verify = key * 7;
            for (Fleet *f : fleets) {
                if (op < 5) {
                    ASSERT_TRUE(pub(f->regs[s], 0, key, verify,
                                    f->sim.now()));
                } else if (op < 8) {
                    f->regs[s].evictNotify(0, key, verify,
                                           f->sim.now());
                } else {
                    FederationLookup hit = f->dirs[s]->lookup(
                        {cluster::CandidateKey{key, verify, 4}});
                    if (!hit.found)
                        continue;
                    FetchGrant g = f->dirs[s]->requestFetch(hit.entry);
                    if (g.ok)
                        f->dirs[s]->finishFetch(g.homeServer, g.ticket);
                }
            }
            Tick dt = (rng() % 4) * half;
            for (Fleet *f : fleets)
                f->sim.runUntil(f->sim.now() + dt);
            if (step % 5 == 4) {
                round();
                compare();
            }
        }

        // Faults off: after the last gossip lands, one round brings
        // every view to its origin's local table.
        for (Fleet *f : fleets) {
            f->faults = false;
            f->sim.runUntil(f->sim.now() + 4 * half);
        }
        round();
        compare();
        for (std::size_t i = 0; i < Fleet::n; ++i) {
            for (std::uint32_t o = 0; o < Fleet::n; ++o) {
                if (o != i) {
                    EXPECT_EQ(digest.dirs[i]->remoteDigest(o),
                              digest.dirs[o]->localDigest());
                }
            }
        }
        digestAdvertises += digest.advertiseCalls;
        referenceAdvertises += reference.advertiseCalls;
    }
    // The digest round must actually have skipped pushes.
    EXPECT_LT(digestAdvertises * 2, referenceAdvertises);
}

//
// Multi-server testbed factory.
//

TEST(MultiServer, FactoryBuildsSharedClockClusterWithFederation)
{
    auto cluster = exp::Testbed::makeMultiServerCluster(3, 2, 7);
    EXPECT_EQ(cluster->size(), 3u);
    EXPECT_EQ(cluster->fabric().numServers(), 3u);
    // One shared clock across every server.
    EXPECT_EQ(&cluster->server(0).sim(), &cluster->sim());
    EXPECT_EQ(&cluster->server(2).sim(), &cluster->sim());

    cluster->makeFederation();
    cluster->makeFederation(); // idempotent
    EXPECT_EQ(cluster->directory(0).serverId(), 0u);
    EXPECT_EQ(cluster->directory(2).serverId(), 2u);

    // The wiring is live: a publish on server 1's registry reaches
    // the other two directories after the gossip delay.
    ASSERT_TRUE(
        pub(cluster->server(1).makePrefixRegistry(), 0, 0xa1, 0xb1));
    cluster->sim().runUntil(cluster->sim().now() + nsPerMs);
    EXPECT_EQ(cluster->directory(0).remoteAdvertCount(), 1u);
    EXPECT_EQ(cluster->directory(2).remoteAdvertCount(), 1u);
    EXPECT_EQ(cluster->directory(1).remoteAdvertCount(), 0u);
    EXPECT_EQ(cluster->directory(1).localAdvertCount(), 1u);
}

//
// Engine-level federation.
//

TEST(FederationEngine, TwoServerEndToEndStreamsThePreamble)
{
    exp::FederationRunConfig cfg;
    cfg.servers = 2;
    cfg.numRequests = 8;
    cfg.ratePerSec = 2.0;
    cfg.maxSimSeconds = 2000.0;
    exp::FederationRunResult on = exp::runFederation(cfg);
    EXPECT_EQ(on.unfinished, 0u);
    EXPECT_GT(on.prefix.fedStreamsCompleted, 0u);
    EXPECT_GT(on.prefix.hitTokensRemoteServer, 0u);
    EXPECT_EQ(on.prefix.fedStreamsInvalidated, 0u);
    EXPECT_EQ(on.prefix.sigMismatches, 0u);
    EXPECT_EQ(on.prefix.clusterSigMismatches, 0u);
    EXPECT_GT(on.fabric.bytesMoved, 0u);

    // Federation may only change where prefill KV comes from, never
    // what gets generated.
    exp::FederationRunConfig offCfg = cfg;
    offCfg.federation = false;
    exp::FederationRunResult off = exp::runFederation(offCfg);
    EXPECT_EQ(off.unfinished, 0u);
    EXPECT_EQ(off.outputDigest, on.outputDigest);
    EXPECT_EQ(off.prefix.hitTokensRemoteServer, 0u);
    EXPECT_EQ(off.fabric.bytesMoved, 0u);
}

namespace {

/**
 * Two servers with one federation consumer engine each, on gpu 0, and
 * a two-request shared-preamble trace: request a homes the 768-token
 * preamble on server 0, request b opens with it on server 1.
 */
struct FederationPair
{
    exp::MultiServerCluster cluster{2, 2, 11};
    std::vector<cluster::PrefixRegistry *> regs;
    /** Storage tier of server 1's engine (see attachTier()). */
    std::unique_ptr<serve::SsdTier> tier1;
    std::vector<std::unique_ptr<serve::VllmEngine>> engines;
    workload::Request a;
    workload::Request b;

    explicit FederationPair(serve::VllmEngineConfig ec = {},
                            DirectoryConfig dir = {})
    {
        for (std::size_t i = 0; i < 2; ++i)
            regs.push_back(&cluster.server(i).makePrefixRegistry());
        cluster.makeFederation(dir);
        ec.prefixCache = true;
        ec.clusterPrefix = true;
        ec.federation = true;
        model::ModelSpec spec = model::presetByName("Codellama-34B");
        for (std::size_t i = 0; i < 2; ++i) {
            exp::Testbed &tb = cluster.server(i);
            serve::DramBackend &backend = tb.makeDramBackend(0);
            engines.push_back(std::make_unique<serve::VllmEngine>(
                tb.server(), 0, spec,
                std::make_unique<serve::CfsPolicy>(), backend, ec));
            core::AquaLib &lib = tb.makeAquaLib(0);
            engines.back()->attachClusterPrefix(regs[i], &lib);
            engines.back()->attachFederation(
                &cluster.fabric(), static_cast<std::uint32_t>(i), &lib);
        }
        workload::TraceBuilder traces(cluster.sim().makeRandom());
        std::vector<workload::Request> trace =
            traces.sharedPrefix(1.0, 2, 768, 1);
        EXPECT_EQ(trace.size(), 2u);
        a = trace[0];
        b = trace[1];
    }

    /** Attach an SSD park/resume tier to server 1's engine. */
    serve::SsdTier &
    attachTier()
    {
        tier1 = std::make_unique<serve::SsdTier>(
            cluster.server(1).server(), 0);
        engines[1]->attachSsdTier(tier1.get());
        return *tier1;
    }

    /** Submit @p r to server @p i's engine at @p at. */
    void
    submitAt(std::size_t i, workload::Request r, Tick at)
    {
        r.arrival = at;
        cluster.sim().queue().schedule(at, [this, i, r] {
            engines[i]->submit(r);
        });
    }

    /** Run until @p n requests have left the engines, or 2000 s. */
    void
    runUntilFinished(std::size_t n)
    {
        Tick deadline = secToTicks(2000.0);
        while (cluster.sim().now() < deadline &&
               (engines[0]->finished().size() +
                engines[1]->finished().size()) < n) {
            cluster.sim().runUntil(cluster.sim().now() + secToTicks(5.0));
        }
    }

    /** Server 0's live adverts (the chains a peer could fetch). */
    std::vector<DirectoryEntry>
    homedAdverts()
    {
        std::vector<DirectoryEntry> out;
        json::Value state = cluster.directory(0).exportState();
        const json::Value *adverts = state.find("adverts");
        if (!adverts)
            return out;
        for (const json::Value &v : adverts->asArray()) {
            DirectoryEntry e = FederationDirectory::advertFromJson(v);
            if (!e.tombstone)
                out.push_back(e);
        }
        return out;
    }
};

} // anonymous namespace

TEST(FederationEngine, HomeEvictionMidStreamFallsBackToRecompute)
{
    FederationPair p;
    // Request A prefills and publishes the preamble on server 0.
    p.submitAt(0, p.a, 0);

    // Request B opens with the same preamble on server 1, long after
    // A finished and the advert gossiped. Its federation stream
    // starts at submit.
    Tick bAt = secToTicks(60.0);
    p.submitAt(1, p.b, bAt);

    // 200us later — with megabytes still on the wire — the home
    // evicts its only copy. The consumer must detect the version
    // bump at stream completion and recompute instead of trusting
    // ghost bytes, without hanging the request.
    p.cluster.sim().queue().schedule(bAt + 200 * nsPerUs, [&] {
        std::vector<DirectoryEntry> adverts = p.homedAdverts();
        ASSERT_FALSE(adverts.empty());
        for (const DirectoryEntry &e : adverts)
            p.regs[0]->evictNotify(0, e.key, e.verify,
                                   p.cluster.sim().now());
    });

    p.runUntilFinished(2);
    ASSERT_EQ(p.engines[0]->finished().size(), 1u);
    ASSERT_EQ(p.engines[1]->finished().size(), 1u);
    const serve::PrefixCacheEngineStats &es =
        p.engines[1]->prefixEngineStats();
    EXPECT_EQ(es.fedStreamDecisions, 1u); // the stream was attempted
    EXPECT_EQ(es.fedStreamsInvalidated, 1u);
    EXPECT_EQ(es.fedStreamsCompleted, 0u);
    EXPECT_EQ(es.hitTokensRemoteServer, 0u); // recomputed locally
    EXPECT_EQ(p.cluster.directory(0).stats().fetchInvalidated, 1u);
    EXPECT_EQ(p.cluster.directory(0).activeFetches(), 0u);
    EXPECT_EQ(es.sigMismatches, 0u);
    EXPECT_EQ(es.clusterSigMismatches, 0u);
}

TEST(FederationEngine, ShedMidStreamClosesTheTicketAndFreesTheSlot)
{
    // Admission control sheds b at its first scheduling pass (its
    // deadline is already unmeetable), while its federation stream
    // is still on the fabric. The home admits one consumer at a time.
    serve::VllmEngineConfig ec;
    ec.overload.admission = overload::AdmissionConfig{};
    DirectoryConfig dir;
    dir.maxRemoteConsumers = 1;
    FederationPair p(ec, dir);
    p.submitAt(0, p.a, 0);
    Tick bAt = secToTicks(60.0);
    workload::Request b = p.b;
    b.deadline = bAt + 1;
    p.submitAt(1, b, bAt);

    p.cluster.sim().runUntil(bAt + 100 * nsPerUs);
    ASSERT_EQ(p.engines[1]->overloadControls().shedCount(), 1u);
    ASSERT_EQ(p.cluster.directory(0).activeFetches(), 1u);
    std::vector<DirectoryEntry> adverts = p.homedAdverts();
    ASSERT_EQ(adverts.size(), 1u);
    // The slot is still taken: the shed request's first window is on
    // its way.
    EXPECT_FALSE(p.cluster.directory(0)
                     .fetchBegin(adverts[0].key, adverts[0].verify, 1)
                     .ok);

    // The 768-token preamble is 144 MiB, five windows. The shed
    // cancelled the stream, so it winds down when its first window
    // leaves the home GPU, long before the payload could have landed,
    // and its end closes the ticket there.
    std::uint64_t bytes = adverts[0].bytes;
    ASSERT_GT(bytes, 4 * serve::TransferPlan::windowBytes);
    serve::TransferPlan idle(p.cluster.sim());
    Tick payloadEnd =
        bAt + idle.estimate(serve::TransferPlan::fabricRoute(
                                p.cluster.fabric(), 0, 0, 1, 0),
                            bytes);
    Tick boundary =
        bAt + p.cluster.fabric().serverTopology(0).hostTransferDuration(
                  serve::TransferPlan::windowBytes);
    ASSERT_LT(boundary, payloadEnd);
    p.cluster.sim().runUntil(boundary);
    EXPECT_EQ(p.cluster.directory(0).activeFetches(), 0u);
    FetchGrant next = p.cluster.directory(0).fetchBegin(
        adverts[0].key, adverts[0].verify, 1);
    EXPECT_TRUE(next.ok);
    p.cluster.directory(0).fetchEnd(next.ticket);

    p.cluster.sim().runUntil(bAt + secToTicks(5.0));
    // The stream's end closed the ticket: the home admits the next
    // fetch.
    EXPECT_EQ(p.cluster.directory(0).activeFetches(), 0u);
    EXPECT_TRUE(p.cluster.directory(0)
                    .fetchBegin(adverts[0].key, adverts[0].verify, 1)
                    .ok);
    const serve::PrefixCacheEngineStats &es =
        p.engines[1]->prefixEngineStats();
    EXPECT_EQ(es.fedStreamDecisions, 1u);
    EXPECT_EQ(es.fedStreamsCompleted, 0u);
    EXPECT_EQ(es.fedStreamsInvalidated, 0u);
    EXPECT_EQ(es.hitTokensRemoteServer, 0u);
    ASSERT_EQ(p.engines[1]->finished().size(), 1u);
    EXPECT_TRUE(p.engines[1]->finished()[0].shed);
}

TEST(FederationEngine, HomeGpuFailureMidFetchFallsBackToRecompute)
{
    // The home GPU fails while b's fetch is on its first window. The
    // stream must wind down before its next window touches the dark
    // GPU (no transfer panic), close the ticket, and leave b to
    // re-prefill.
    FederationPair p;
    p.submitAt(0, p.a, 0);
    Tick bAt = secToTicks(60.0);
    p.submitAt(1, p.b, bAt);
    p.cluster.sim().queue().schedule(bAt + 200 * nsPerUs, [&] {
        ASSERT_EQ(p.cluster.directory(0).activeFetches(), 1u);
        p.cluster.server(0).server().topology().markGpuFailed(0, true);
    });

    p.runUntilFinished(2);
    ASSERT_EQ(p.engines[1]->finished().size(), 1u);
    EXPECT_FALSE(p.engines[1]->finished()[0].shed);
    EXPECT_EQ(p.cluster.directory(0).activeFetches(), 0u);
    const serve::PrefixCacheEngineStats &es =
        p.engines[1]->prefixEngineStats();
    EXPECT_EQ(es.fedStreamDecisions, 1u);
    EXPECT_EQ(es.fedStreamsInvalidated, 1u);
    EXPECT_EQ(es.fedStreamsCompleted, 0u);
    EXPECT_EQ(es.hitTokensRemoteServer, 0u);
}

TEST(FederationEngine, ParkedSessionResumesInsteadOfFetching)
{
    // b is a returning turn whose opening preamble server 0 homes and
    // advertises. With its session parked on server 1's SSD, the
    // resume stream starts and no federation fetch does; without the
    // parked copy, the same turn fetches.
    auto run = [](bool parked) {
        FederationPair p;
        serve::SsdTier &agent = p.attachTier();
        p.submitAt(0, p.a, 0);
        Tick bAt = secToTicks(60.0);
        workload::Request b = p.b;
        b.userId = 7;
        b.turn = 1;
        b.coldResume = true;
        if (parked) {
            std::uint32_t tokens = b.promptTokens / 2;
            std::uint64_t bytes =
                p.engines[1]->kvCache().kvBytes(tokens);
            EXPECT_TRUE(agent.park(7, bytes, tokens,
                                   model::KvPrecision::Fp16, 60.0, 0));
        }
        p.submitAt(1, b, bAt);
        p.runUntilFinished(2);
        EXPECT_EQ(p.engines[1]->finished().size(), 1u);
        EXPECT_EQ(p.engines[1]->streamResumeCount(), parked ? 1u : 0u);
        return p.engines[1]->prefixEngineStats();
    };

    serve::PrefixCacheEngineStats resumed = run(true);
    EXPECT_EQ(resumed.fedHits + resumed.fedMisses, 0u);
    EXPECT_EQ(resumed.fedStreamDecisions, 0u);
    EXPECT_EQ(resumed.hitTokensRemoteServer, 0u);

    serve::PrefixCacheEngineStats fetched = run(false);
    EXPECT_EQ(fetched.fedStreamDecisions, 1u);
    EXPECT_EQ(fetched.fedStreamsCompleted, 1u);
    EXPECT_GT(fetched.hitTokensRemoteServer, 0u);
}
