/**
 * @file
 * Tests for the cluster prefix registry: publish roles, longest-first
 * lookup with verify fall-through, lease pin lifecycle against fake
 * agents, collision fallback, home failure and eviction promotion,
 * the REST surface (including the pin/reclaim race), and the
 * engine-level remote borrow/copy admission paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cluster/prefix_registry.hh"
#include "cluster/registry_rest.hh"
#include "exp/testbed.hh"
#include "hw/gpu.hh"
#include "model/model_spec.hh"
#include "serve/scheduler.hh"
#include "serve/vllm_engine.hh"
#include "sim/simulation.hh"
#include "workload/request.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::cluster;

namespace {

/** Publish with boilerplate sizes: 4 blocks, 64 tokens, 1 MiB. */
PublishResult
pub(PrefixRegistry &reg, hw::GpuId gpu, std::uint64_t key,
    std::uint64_t verify, Tick now = 0, std::uint32_t blocks = 4)
{
    return reg.publish(gpu, key, verify, blocks,
                       std::uint64_t(blocks) * 16, 1 << 20,
                       key ^ verify, now);
}

/** Recording fake agent: logs (key, pinned) and promote calls. */
struct FakeAgent
{
    std::vector<std::pair<std::uint64_t, bool>> pinCalls;
    std::vector<std::uint64_t> promoteCalls;
    bool pinOk = true;
    bool promoteOk = true;

    RegistryAgent
    agent()
    {
        RegistryAgent a;
        a.setPinned = [this](std::uint64_t key, bool pinned) {
            pinCalls.emplace_back(key, pinned);
            return pinOk;
        };
        a.promote = [this](std::uint64_t key) {
            promoteCalls.push_back(key);
            return promoteOk;
        };
        return a;
    }
};

/** Shared-preamble request on the fixed test prefix stream. */
workload::Request
sharedReq(std::uint64_t id, Tick arrival, std::uint32_t prompt,
          std::uint32_t out, std::uint32_t prefixTokens)
{
    workload::Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptTokens = prompt;
    r.maxNewTokens = out;
    r.prefixStream = workload::contentStreamId(0x7a7a);
    r.prefixTokens = prefixTokens;
    return r;
}

} // anonymous namespace

TEST(ClusterRegistry, FirstPublisherHomesLaterOnesReplicate)
{
    PrefixRegistry reg;
    PublishResult first = pub(reg, 0, 0xa1, 0xb1);
    EXPECT_EQ(first.role, PublishRole::Home);
    EXPECT_EQ(first.home, 0u);
    EXPECT_EQ(reg.homeOf(0xa1), 0u);

    PublishResult second = pub(reg, 1, 0xa1, 0xb1);
    EXPECT_EQ(second.role, PublishRole::Replica);
    EXPECT_EQ(second.home, 0u);
    // Re-publish by the home stays Home; a repeat replica publish
    // does not double-count.
    EXPECT_EQ(pub(reg, 0, 0xa1, 0xb1).role, PublishRole::Home);
    EXPECT_EQ(pub(reg, 1, 0xa1, 0xb1).role, PublishRole::Replica);

    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.chainRefs(0xa1), 2u);
    EXPECT_EQ(reg.stats().replicaPublishes, 1u);
    EXPECT_EQ(reg.stats().collisions, 0u);
}

TEST(ClusterRegistry, VerifyMismatchIsAClusterWideCollision)
{
    PrefixRegistry reg;
    pub(reg, 0, 0xa1, 0xb1);
    PublishResult clash = pub(reg, 1, 0xa1, 0xdead);
    EXPECT_EQ(clash.role, PublishRole::Collision);
    EXPECT_EQ(reg.stats().collisions, 1u);
    // The original chain is untouched; the collider stays local.
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.homeOf(0xa1), 0u);
    EXPECT_EQ(reg.chainRefs(0xa1), 1u);
}

TEST(ClusterRegistry, KeyMaskForcesCollisionAndLookupMiss)
{
    PrefixRegistry reg;
    reg.setKeyMask(0); // every primary key collapses to 0
    EXPECT_EQ(pub(reg, 0, 0x111, 0xaaa).role, PublishRole::Home);
    EXPECT_EQ(pub(reg, 1, 0x222, 0xbbb).role, PublishRole::Collision);

    // The collider's candidate falls through on verify and misses.
    LookupResult miss = reg.lookup(1, {{0x222, 0xbbb, 4}}, 0);
    EXPECT_FALSE(miss.found);
    EXPECT_EQ(reg.stats().collisions, 2u);
    EXPECT_EQ(reg.stats().misses, 1u);
}

TEST(ClusterRegistry, LookupPrefersLongestAndFallsThroughOnVerify)
{
    PrefixRegistry reg;
    pub(reg, 0, 0x100, 0x7, 0, 8); // 8-block chain
    pub(reg, 0, 0x050, 0x3, 0, 4); // 4-block chain

    // Longest-first candidate list, as the engines send it.
    LookupResult longest =
        reg.lookup(1, {{0x100, 0x7, 8}, {0x050, 0x3, 4}}, 0);
    ASSERT_TRUE(longest.found);
    EXPECT_EQ(longest.key, 0x100u);
    EXPECT_EQ(longest.blocks, 8u);
    EXPECT_EQ(longest.home, 0u);
    EXPECT_EQ(longest.chainSig, 0x100u ^ 0x7u);

    // A verify mismatch on the long boundary must not shadow the
    // registered shorter chain.
    LookupResult shorter =
        reg.lookup(1, {{0x100, 0xbad, 8}, {0x050, 0x3, 4}}, 0);
    ASSERT_TRUE(shorter.found);
    EXPECT_EQ(shorter.key, 0x050u);
    EXPECT_EQ(shorter.blocks, 4u);
    EXPECT_EQ(reg.stats().hits, 2u);
}

TEST(ClusterRegistry, PinLifecycleCallsHomeAgentAtEdgesOnly)
{
    PrefixRegistry reg;
    FakeAgent home;
    reg.setAgent(0, home.agent());
    pub(reg, 0, 0xa1, 0xb1);

    PinResult p1 = reg.pin(1, 0xa1, 0xb1, 0);
    PinResult p2 = reg.pin(2, 0xa1, 0xb1, 0);
    ASSERT_TRUE(p1.ok);
    ASSERT_TRUE(p2.ok);
    EXPECT_NE(p1.pin, p2.pin);
    EXPECT_EQ(p1.home, 0u);
    EXPECT_EQ(reg.activePins(), 2u);
    EXPECT_EQ(reg.pinsHeldBy(1), 1u);
    // The home engine pins its blocks once, on the 0 -> 1 edge.
    ASSERT_EQ(home.pinCalls.size(), 1u);
    EXPECT_EQ(home.pinCalls[0],
              (std::pair<std::uint64_t, bool>{0xa1, true}));

    reg.unpin(p1.pin, 1);
    EXPECT_EQ(home.pinCalls.size(), 1u); // still one lease out
    reg.unpin(p2.pin, 2);
    ASSERT_EQ(home.pinCalls.size(), 2u);
    EXPECT_EQ(home.pinCalls[1],
              (std::pair<std::uint64_t, bool>{0xa1, false}));
    EXPECT_EQ(reg.activePins(), 0u);

    // Stale ids are ignored.
    reg.unpin(p1.pin, 3);
    reg.unpin(12345, 3);
    EXPECT_EQ(reg.stats().pins, 2u);
    EXPECT_EQ(reg.stats().unpins, 2u);
}

TEST(ClusterRegistry, PinRefusalSelfHealsTheStaleChain)
{
    // The home agent declining a pin means the chain is no longer
    // resident there: the registry must drop the stale entry so a
    // later publisher can re-home it.
    PrefixRegistry reg;
    FakeAgent home;
    home.pinOk = false;
    reg.setAgent(0, home.agent());
    pub(reg, 0, 0xa1, 0xb1);

    PinResult p = reg.pin(1, 0xa1, 0xb1, 0);
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(reg.stats().pinRejects, 1u);
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.stats().invalidations, 1u);

    PublishResult rehome = pub(reg, 1, 0xa1, 0xb1);
    EXPECT_EQ(rehome.role, PublishRole::Home);
    EXPECT_EQ(reg.homeOf(0xa1), 1u);
}

TEST(ClusterRegistry, EvictNotifyPromotesReplicaThenInvalidates)
{
    PrefixRegistry reg;
    FakeAgent replica;
    reg.setAgent(1, replica.agent());
    pub(reg, 0, 0xa1, 0xb1);
    pub(reg, 1, 0xa1, 0xb1);

    // A replica dropping its copy only prunes it.
    EXPECT_EQ(pub(reg, 2, 0xa1, 0xb1).role, PublishRole::Replica);
    EXPECT_EQ(reg.evictNotify(2, 0xa1, 0xb1, 0),
              EvictAction::Ignored);
    EXPECT_EQ(reg.homeOf(0xa1), 0u);

    // The home dropping its copy promotes the surviving replica.
    EXPECT_EQ(reg.evictNotify(0, 0xa1, 0xb1, 1),
              EvictAction::Promoted);
    EXPECT_EQ(reg.homeOf(0xa1), 1u);
    ASSERT_EQ(replica.promoteCalls.size(), 1u);
    EXPECT_EQ(replica.promoteCalls[0], 0xa1u);
    EXPECT_EQ(reg.stats().promotions, 1u);

    // No replica left: the chain invalidates out of the registry.
    EXPECT_EQ(reg.evictNotify(1, 0xa1, 0xb1, 2),
              EvictAction::Invalidated);
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.stats().invalidations, 1u);

    // Unknown chains are ignored.
    EXPECT_EQ(reg.evictNotify(0, 0xffff, 0, 3), EvictAction::Ignored);
}

TEST(ClusterRegistry, GpuFailureBreaksItsPinsAndRehomesItsChains)
{
    PrefixRegistry reg;
    std::set<hw::GpuId> dead;
    reg.setAliveFn(
        [&dead](hw::GpuId gpu) { return dead.count(gpu) == 0; });
    FakeAgent agent1, agent2;
    reg.setAgent(1, agent1.agent());
    reg.setAgent(2, agent2.agent());

    pub(reg, 0, 0xa1, 0xb1); // homed on the GPU that will die...
    pub(reg, 1, 0xa1, 0xb1); // ...with a live replica on GPU 1
    pub(reg, 2, 0xc2, 0xd2); // homed on a survivor
    ASSERT_TRUE(reg.pin(0, 0xc2, 0xd2, 0).ok); // dying GPU's lease
    ASSERT_TRUE(reg.pin(3, 0xc2, 0xd2, 0).ok); // survivor's lease

    dead.insert(0);
    reg.onGpuFailed(0, 10);

    // GPU 0's lease on the survivor chain evaporated; GPU 3 still
    // holds one, so the home's blocks stay pinned.
    EXPECT_EQ(reg.stats().brokenPins, 1u);
    EXPECT_EQ(reg.activePins(), 1u);
    EXPECT_EQ(reg.pinsHeldBy(0), 0u);
    EXPECT_EQ(reg.pinsHeldBy(3), 1u);
    ASSERT_EQ(agent2.pinCalls.size(), 1u); // pin edge only, no unpin
    EXPECT_TRUE(agent2.pinCalls[0].second);

    // The chain homed on the dead GPU promoted its replica.
    EXPECT_EQ(reg.homeOf(0xa1), 1u);
    ASSERT_EQ(agent1.promoteCalls.size(), 1u);
    EXPECT_EQ(agent1.promoteCalls[0], 0xa1u);
    EXPECT_EQ(reg.stats().promotions, 1u);
}

TEST(ClusterRegistry, FailedPromotionFallsBackToInvalidation)
{
    PrefixRegistry reg;
    FakeAgent replica;
    replica.promoteOk = false; // replica no longer holds the blocks
    reg.setAgent(1, replica.agent());
    pub(reg, 0, 0xa1, 0xb1);
    pub(reg, 1, 0xa1, 0xb1);

    EXPECT_EQ(reg.evictNotify(0, 0xa1, 0xb1, 0),
              EvictAction::Invalidated);
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(replica.promoteCalls.size(), 1u);
    EXPECT_EQ(reg.stats().invalidations, 1u);
    EXPECT_EQ(reg.stats().promotions, 0u);
}

TEST(ClusterRegistryRest, RoundTripOverCoordinatorRouter)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefixRegistry &reg = tb.makePrefixRegistry();
    FakeAgent home;
    reg.setAgent(0, home.agent());
    const core::RestRouter &router = tb.rest().router();

    json::Object publish;
    publish["gpu"] = 0;
    publish["key"] = static_cast<std::int64_t>(0xa1);
    publish["verify"] = static_cast<std::int64_t>(0xb1);
    publish["blocks"] = 4;
    publish["tokens"] = 64;
    publish["bytes"] = 1 << 20;
    publish["chain_sig"] = static_cast<std::int64_t>(0x5109);
    core::RestResponse pr =
        router.dispatch("POST /prefix/publish",
                        json::Value(std::move(publish)));
    EXPECT_TRUE(pr.ok());
    EXPECT_EQ(pr.body.getString("role", ""), "home");
    EXPECT_EQ(pr.body.getInt("home", -1), 0);

    json::Object cand;
    cand["key"] = static_cast<std::int64_t>(0xa1);
    cand["verify"] = static_cast<std::int64_t>(0xb1);
    cand["blocks"] = 4;
    json::Array cands;
    cands.push_back(json::Value(std::move(cand)));
    json::Object lookup;
    lookup["gpu"] = 1;
    lookup["candidates"] = std::move(cands);
    core::RestResponse lr = router.dispatch(
        "POST /prefix/lookup", json::Value(std::move(lookup)));
    EXPECT_TRUE(lr.ok());
    EXPECT_TRUE(lr.body.getBool("found", false));
    EXPECT_EQ(lr.body.getInt("chain_sig", 0), 0x5109);

    json::Object pin;
    pin["gpu"] = 1;
    pin["key"] = static_cast<std::int64_t>(0xa1);
    pin["verify"] = static_cast<std::int64_t>(0xb1);
    core::RestResponse pinR =
        router.dispatch("POST /prefix/pin", json::Value(pin));
    ASSERT_TRUE(pinR.ok());
    std::int64_t lease = pinR.body.getInt("pin", 0);
    EXPECT_GT(lease, 0);
    EXPECT_EQ(reg.activePins(), 1u);

    json::Object unpin;
    unpin["pin"] = lease;
    EXPECT_TRUE(router.dispatch("POST /prefix/unpin",
                                json::Value(std::move(unpin)))
                    .ok());
    EXPECT_EQ(reg.activePins(), 0u);

    json::Object evict;
    evict["gpu"] = 0;
    evict["key"] = static_cast<std::int64_t>(0xa1);
    evict["verify"] = static_cast<std::int64_t>(0xb1);
    core::RestResponse er =
        router.dispatch("POST /prefix/evict_notify",
                        json::Value(std::move(evict)));
    EXPECT_TRUE(er.ok());
    EXPECT_EQ(er.body.getString("action", ""), "invalidated");
    EXPECT_EQ(reg.size(), 0u);
}

TEST(ClusterRegistryRest, PinLosingRaceWithReclaimGets409)
{
    // The race the wire protocol must tolerate: a consumer looks up a
    // chain, but before its pin lands the home engine's reclaim path
    // evicts the blocks and evict-notifies the registry.
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefixRegistry &reg = tb.makePrefixRegistry();
    const core::RestRouter &router = tb.rest().router();
    pub(reg, 0, 0xa1, 0xb1);

    LookupResult seen = reg.lookup(1, {{0xa1, 0xb1, 4}}, 0);
    ASSERT_TRUE(seen.found);

    // Reclaim wins the race.
    EXPECT_EQ(reg.evictNotify(0, 0xa1, 0xb1, 1),
              EvictAction::Invalidated);

    json::Object pin;
    pin["gpu"] = 1;
    pin["key"] = static_cast<std::int64_t>(0xa1);
    pin["verify"] = static_cast<std::int64_t>(0xb1);
    core::RestResponse r =
        router.dispatch("POST /prefix/pin", json::Value(std::move(pin)));
    EXPECT_EQ(r.status, core::RestStatus::Conflict);
    EXPECT_EQ(r.body.getString("error", ""), "chain not pinnable");
    EXPECT_EQ(reg.stats().pinRejects, 1u);
    EXPECT_EQ(reg.activePins(), 0u);
}

//
// Engine-level integration.
//

TEST(ClusterRegistryEngine, ConsumerStreamsRemoteHomeCopy)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefixRegistry &reg = tb.makePrefixRegistry();
    serve::VllmEngineConfig cfg;
    cfg.prefixCache = true;
    cfg.clusterPrefix = true;

    auto &backend0 = tb.makeDramBackend(0);
    serve::VllmEngine e0(tb.server(), 0, model::codellama34b(),
                         std::make_unique<serve::FcfsPolicy>(),
                         backend0, cfg);
    e0.attachClusterPrefix(&reg, &tb.makeAquaLib(0));
    auto &backend1 = tb.makeDramBackend(1);
    serve::VllmEngine e1(tb.server(), 1, model::codellama34b(),
                         std::make_unique<serve::FcfsPolicy>(),
                         backend1, cfg);
    e1.attachClusterPrefix(&reg, &tb.makeAquaLib(1));

    // Engine 0 prefills and publishes the 768-token preamble.
    e0.submit(sharedReq(0, 0, 800, 8, 768));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(e0.finished().size(), 1u);
    EXPECT_GE(reg.size(), 1u);

    // Engine 1 has no local copy: the preamble (48 blocks, over the
    // borrow cap) streams from engine 0 over NVLink instead of being
    // re-prefilled.
    e1.submit(sharedReq(1, secToTicks(30.0), 800, 8, 768));
    tb.sim().runUntil(secToTicks(60.0));
    ASSERT_EQ(e1.finished().size(), 1u);
    const serve::PrefixCacheEngineStats &s = e1.prefixEngineStats();
    EXPECT_GE(s.registryHits, 1u);
    EXPECT_EQ(s.copyAdmissions, 1u);
    EXPECT_EQ(s.borrowAdmissions, 0u);
    EXPECT_GT(s.remoteCopyBytes, 0u);
    EXPECT_GE(s.cachedTokens, 700u);
    EXPECT_GE(s.hitTokensRemote, 700u);
    EXPECT_EQ(s.clusterSigMismatches, 0u);
    EXPECT_EQ(s.sigMismatches, 0u);
    // Every read lease drained with the transfer.
    EXPECT_EQ(reg.activePins(), 0u);
}

TEST(ClusterRegistryEngine, ShortChainIsBorrowedInPlace)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefixRegistry &reg = tb.makePrefixRegistry();
    serve::VllmEngineConfig cfg;
    cfg.prefixCache = true;
    cfg.clusterPrefix = true;
    cfg.clusterBorrowMaxBlocks = 64; // whole preamble fits the cap

    auto &backend0 = tb.makeDramBackend(0);
    serve::VllmEngine e0(tb.server(), 0, model::codellama34b(),
                         std::make_unique<serve::FcfsPolicy>(),
                         backend0, cfg);
    e0.attachClusterPrefix(&reg, &tb.makeAquaLib(0));
    auto &backend1 = tb.makeDramBackend(1);
    serve::VllmEngine e1(tb.server(), 1, model::codellama34b(),
                         std::make_unique<serve::FcfsPolicy>(),
                         backend1, cfg);
    e1.attachClusterPrefix(&reg, &tb.makeAquaLib(1));

    e0.submit(sharedReq(0, 0, 800, 8, 768));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(e0.finished().size(), 1u);

    e1.submit(sharedReq(1, secToTicks(30.0), 800, 32, 768));
    tb.sim().runUntil(secToTicks(90.0));
    ASSERT_EQ(e1.finished().size(), 1u);
    const serve::PrefixCacheEngineStats &s = e1.prefixEngineStats();
    EXPECT_EQ(s.borrowAdmissions, 1u);
    EXPECT_EQ(s.copyAdmissions, 0u);
    // Each decode step of the borrowed lead reads the home copy.
    EXPECT_GT(s.remoteDecodeReadBytes, 0u);
    EXPECT_EQ(s.clusterSigMismatches, 0u);
    EXPECT_EQ(s.remoteBrokenChains, 0u);
    // The lease is held for the sequence lifetime, then released.
    EXPECT_EQ(reg.activePins(), 0u);
}

TEST(ClusterRegistryEngine, EngineTeardownLeavesNoRegistryState)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefixRegistry &reg = tb.makePrefixRegistry();
    serve::VllmEngineConfig cfg;
    cfg.prefixCache = true;
    cfg.clusterPrefix = true;

    auto &backend = tb.makeDramBackend(0);
    auto e0 = std::make_unique<serve::VllmEngine>(
        tb.server(), 0, model::codellama34b(),
        std::make_unique<serve::FcfsPolicy>(), backend, cfg);
    e0->attachClusterPrefix(&reg, &tb.makeAquaLib(0));
    e0->submit(sharedReq(0, 0, 800, 8, 768));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(e0->finished().size(), 1u);
    ASSERT_GE(reg.size(), 1u);

    // Restart: the dying engine unwinds every chain it advertised, so
    // a stale home cannot linger and leak publish refcounts.
    e0.reset();
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.activePins(), 0u);

    auto e0b = std::make_unique<serve::VllmEngine>(
        tb.server(), 0, model::codellama34b(),
        std::make_unique<serve::FcfsPolicy>(), backend, cfg);
    e0b->attachClusterPrefix(&reg, &tb.makeAquaLib(0));
    e0b->submit(sharedReq(1, secToTicks(31.0), 800, 8, 768));
    tb.sim().runUntil(secToTicks(60.0));
    ASSERT_EQ(e0b->finished().size(), 1u);
    EXPECT_GE(reg.size(), 1u);
    e0b.reset();
    EXPECT_EQ(reg.size(), 0u);
}

namespace {

/** One cluster-prefix engine on GPU 0 with a @p poolBlocks-block
 *  KV pool, and the registry's invalidations in call order. */
struct HomeEngineFixture
{
    exp::Testbed tb{2, hw::TopologyKind::DirectP2P};
    PrefixRegistry &reg = tb.makePrefixRegistry();
    std::vector<std::uint64_t> invalidated;
    std::unique_ptr<serve::VllmEngine> engine;

    explicit HomeEngineFixture(std::size_t poolBlocks)
    {
        serve::VllmEngineConfig cfg;
        cfg.prefixCache = true;
        cfg.clusterPrefix = true;
        cfg.kvPoolBytesOverride =
            poolBlocks * serve::VllmEngine::blockTokens *
            model::codellama34b().kvBytesPerToken();
        ChainObserver obs;
        obs.invalidated = [this](std::uint64_t key) {
            invalidated.push_back(key);
        };
        reg.setChainObserver(std::move(obs));
        engine = std::make_unique<serve::VllmEngine>(
            tb.server(), 0, model::codellama34b(),
            std::make_unique<serve::FcfsPolicy>(), tb.makeDramBackend(0),
            cfg);
        engine->attachClusterPrefix(&reg, &tb.makeAquaLib(0));
    }
};

/** Request on a private token stream (shares nothing). */
workload::Request
privateReq(std::uint64_t id, Tick arrival, std::uint32_t prompt)
{
    workload::Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptTokens = prompt;
    r.maxNewTokens = 8;
    return r;
}

} // anonymous namespace

TEST(ClusterRegistryEngine, EvictedSharedBlockDropsEveryHomeChainInKeyOrder)
{
    HomeEngineFixture f(64);
    // A conversation turn homes two chains at finish: the 48-block
    // preamble and the 50-block full context, sharing blocks 0-47.
    workload::Request turn = sharedReq(0, 0, 800, 8, 768);
    turn.contentStream = workload::contentStreamId(0xc0);
    f.engine->submit(turn);
    f.tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(f.engine->finished().size(), 1u);
    ASSERT_EQ(f.reg.size(), 2u);
    serve::TokenChain chain(serve::tokenFnFor(turn), 16);
    std::uint64_t preamble = chain.keysAt(48).key;
    std::uint64_t context = chain.keysAt(50).key;

    // An unrelated prompt needs more than the free blocks. Equal LRU
    // stamps evict the lowest block id first: block 0, in both chains.
    f.engine->submit(privateReq(1, secToTicks(30.0), 900));
    f.tb.sim().runUntil(secToTicks(60.0));
    ASSERT_EQ(f.engine->finished().size(), 2u);
    ASSERT_GT(f.engine->kvCache().prefixStats().evictions, 0u);
    EXPECT_EQ(f.invalidated, (std::vector<std::uint64_t>{
                                 std::min(preamble, context),
                                 std::max(preamble, context)}));
    EXPECT_EQ(f.reg.size(), 0u);
}

TEST(ClusterRegistryEngine, RehomedChainIgnoresEvictionOfItsOldBlocks)
{
    HomeEngineFixture f(128);
    // Two same-preamble requests admitted together each prefill their
    // own copy. The first to finish homes the preamble chain on its
    // blocks and indexes them; the second re-homes the chain onto its
    // own blocks (the index keeps the first copy's).
    workload::Request first = sharedReq(0, 0, 800, 8, 768);
    f.engine->submit(first);
    f.engine->submit(sharedReq(1, 0, 800, 8, 768));
    f.tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(f.engine->finished().size(), 2u);
    ASSERT_EQ(f.reg.size(), 1u);
    serve::TokenChain chain(serve::tokenFnFor(first), 16);
    ASSERT_EQ(f.engine->kvCache().probePrefixBlocks(chain, 768), 48u);

    // Pressure evicts the first copy's blocks, which the chain no
    // longer names: it stays homed here.
    f.engine->submit(privateReq(2, secToTicks(30.0), 1500));
    f.tb.sim().runUntil(secToTicks(90.0));
    ASSERT_EQ(f.engine->finished().size(), 3u);
    ASSERT_LT(f.engine->kvCache().probePrefixBlocks(chain, 768), 48u);
    EXPECT_TRUE(f.invalidated.empty());
    EXPECT_EQ(f.reg.size(), 1u);
}
