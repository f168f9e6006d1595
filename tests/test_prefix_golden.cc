/**
 * @file
 * Golden runs of the serving engine's prefix-cache admission path:
 * what prefix a sequence gets when it is admitted, where those blocks
 * come from and how a failed admission gives them back. Each test
 * drives one or two engines through a branch no bench output reaches
 * and pins their exact counters and a digest of the finished requests'
 * metrics, so a refactor of the path must reproduce them byte for
 * byte:
 *
 *  - a partial cached tail forked copy-on-write at admission, and the
 *    fork falling back to the full blocks when the pool is exhausted;
 *  - block allocation failing after a prefix grant, a registry pin
 *    and an adapter pin were taken, which must all be released;
 *  - a registry copy replacing a local partial tail, a borrow
 *    replacing a local partial match, and a full pool after the pin;
 *  - the registry misses: a chain whose content signature disagrees
 *    with the request, a home the registry still thinks alive, and a
 *    pin the home refuses;
 *  - a replica promoted to home after the home GPU fails;
 *  - the federation's recompute verdict (traced) and a fetch the home
 *    refuses;
 *  - payload corruption on borrow and copy reads, repaired by a
 *    retransmission.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/prefix_registry.hh"
#include "exp/testbed.hh"
#include "federation/directory.hh"
#include "model/lora.hh"
#include "serve/scheduler.hh"
#include "serve/vllm_engine.hh"
#include "trace/trace.hh"
#include "workload/request.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

namespace {

/** FNV-1a over every finished request's metrics, completion order. */
std::uint64_t
metricsDigest(const VllmEngine &e)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    for (const workload::RequestMetrics &m : e.finished()) {
        mix(m.id);
        mix(m.arrival);
        mix(m.firstToken);
        mix(m.finish);
        mix(m.tokensGenerated);
        mix(m.deadline);
        mix(m.admitted);
        mix(m.shed);
    }
    return h;
}

/** Every prefix-path counter the engine exposes, on one line. */
std::string
snapshot(const VllmEngine &e)
{
    const PrefixCacheEngineStats &p = e.prefixEngineStats();
    const IntegrityEngineStats &in = e.integrityStats();
    const PrefixIndexStats &ix = e.kvCache().prefixStats();
    std::ostringstream os;
    os << "finished=" << e.finished().size()
       << " cached=" << p.cachedTokens << " forks=" << p.cowForks
       << " hits=" << ix.hits << " misses=" << ix.misses
       << " evictions=" << ix.evictions
       << " regHits=" << p.registryHits
       << " regMisses=" << p.registryMisses
       << " copyBytes=" << p.remoteCopyBytes
       << " leadReads=" << p.remoteDecodeReadBytes
       << " borrows=" << p.borrowAdmissions
       << " copies=" << p.copyAdmissions
       << " sigMiss=" << p.clusterSigMismatches
       << " broken=" << p.remoteBrokenChains
       << " local=" << p.hitTokensLocal
       << " remote=" << p.hitTokensRemote
       << " dram=" << p.hitTokensDram
       << " server=" << p.hitTokensRemoteServer
       << " fedHits=" << p.fedHits << " fedMisses=" << p.fedMisses
       << " fedStream=" << p.fedStreamDecisions
       << " fedRecompute=" << p.fedRecomputeDecisions
       << " fedRefused=" << p.fedFetchRefusals
       << " fedDone=" << p.fedStreamsCompleted
       << " fedInvalid=" << p.fedStreamsInvalidated
       << " fedBytes=" << p.fedStreamBytes
       << " blockSigMiss=" << p.sigMismatches
       << " detected=" << in.detected
       << " repaired=" << in.repairedRetransmit
       << " live=" << e.kvCache().liveKvBytes()
       << " digest=" << std::hex << metricsDigest(e);
    return os.str();
}

/** The registry's lifecycle counters and outstanding leases. */
std::string
registrySnapshot(const cluster::PrefixRegistry &reg)
{
    const cluster::PrefixRegistryStats &s = reg.stats();
    std::ostringstream os;
    os << "chains=" << reg.size() << " lookups=" << s.lookups
       << " hits=" << s.hits << " misses=" << s.misses
       << " pins=" << s.pins << " unpins=" << s.unpins
       << " pinRejects=" << s.pinRejects
       << " promotions=" << s.promotions
       << " invalidations=" << s.invalidations
       << " activePins=" << reg.activePins();
    return os.str();
}

workload::Request
request(std::uint64_t id, Tick arrival, std::uint32_t prompt,
        std::uint32_t out)
{
    workload::Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptTokens = prompt;
    r.maxNewTokens = out;
    return r;
}

/** A request whose whole context is conversation stream @p tag. */
workload::Request
turn(std::uint64_t id, Tick arrival, std::uint32_t prompt,
     std::uint32_t out, std::uint64_t tag)
{
    workload::Request r = request(id, arrival, prompt, out);
    r.contentStream = workload::contentStreamId(tag);
    return r;
}

/** A request opening with @p prefixTokens of shared preamble @p tag. */
workload::Request
preamble(std::uint64_t id, Tick arrival, std::uint32_t prompt,
         std::uint32_t out, std::uint32_t prefixTokens,
         std::uint64_t tag = 0x9a11)
{
    workload::Request r = request(id, arrival, prompt, out);
    r.prefixStream = workload::contentStreamId(tag);
    r.prefixTokens = prefixTokens;
    return r;
}

const model::ModelSpec &
servedModel()
{
    static const model::ModelSpec spec = model::codellama34b();
    return spec;
}

/** Pool bytes holding exactly @p blocks KV blocks. */
std::uint64_t
poolOf(std::size_t blocks)
{
    return blocks * VllmEngine::blockTokens *
           servedModel().kvBytesPerToken();
}

/**
 * Two cluster-prefix engines on one server sharing the prefix
 * registry: a home on GPU 0 and a consumer on GPU 1, each FCFS with no
 * admission slack.
 */
struct RegistryPair
{
    exp::Testbed tb{2, hw::TopologyKind::DirectP2P};
    cluster::PrefixRegistry &reg = tb.makePrefixRegistry();
    trace::TraceLog log;
    std::unique_ptr<VllmEngine> home;
    std::unique_ptr<VllmEngine> consumer;

    /** @p consumerCfg overrides the consumer's config (prefix fields
     *  are forced on); @p adapters enables LoRA on the consumer. */
    explicit RegistryPair(VllmEngineConfig consumerCfg = {},
                          std::vector<model::LoraAdapter> adapters = {})
    {
        VllmEngineConfig cfg;
        cfg.prefixCache = true;
        cfg.clusterPrefix = true;
        cfg.slackTokens = 0;
        home = std::make_unique<VllmEngine>(
            tb.server(), 0, servedModel(),
            std::make_unique<FcfsPolicy>(), tb.makeDramBackend(0), cfg);
        home->attachClusterPrefix(&reg, &tb.makeAquaLib(0));
        consumerCfg.prefixCache = true;
        consumerCfg.clusterPrefix = true;
        consumerCfg.slackTokens = 0;
        consumer = std::make_unique<VllmEngine>(
            tb.server(), 1, servedModel(),
            std::make_unique<FcfsPolicy>(), tb.makeDramBackend(1),
            consumerCfg, std::move(adapters));
        consumer->attachClusterPrefix(&reg, &tb.makeAquaLib(1));
        consumer->setTraceLog(&log);
    }

    /** Submit @p r to @p e at its arrival time. */
    void
    submit(VllmEngine &e, workload::Request r)
    {
        tb.sim().queue().schedule(r.arrival, [&e, r] { e.submit(r); });
    }

    /** Run to @p sec seconds of simulated time. */
    void run(double sec) { tb.sim().runUntil(secToTicks(sec)); }

    /** Registry keys of @p r's chain at @p blocks full blocks. */
    static ChainKeys
    keysOf(const workload::Request &r, std::size_t blocks)
    {
        TokenChain chain(tokenFnFor(r), VllmEngine::blockTokens);
        return chain.keysAt(blocks);
    }

    /** Register a chain for @p r's first @p blocks blocks homed on
     *  GPU 0 directly with the registry, signed @p chainSig (the
     *  home engine never computed it). */
    void
    forgeHomeChain(const workload::Request &r, std::size_t blocks,
                   std::uint64_t chainSig)
    {
        ChainKeys ck = keysOf(r, blocks);
        std::uint64_t tokens = blocks * VllmEngine::blockTokens;
        reg.publish(0, ck.key, ck.verify,
                    static_cast<std::uint32_t>(blocks), tokens,
                    home->kvCache().kvBytes(tokens), chainSig,
                    tb.sim().now());
    }

    /** @p r's own content signature over its first @p blocks blocks. */
    static std::uint64_t
    sigOf(const workload::Request &r, std::size_t blocks)
    {
        TokenChain chain(tokenFnFor(r), VllmEngine::blockTokens);
        return chain.sig(0, blocks * VllmEngine::blockTokens);
    }
};

} // anonymous namespace


//
// Local admission (one engine, no registry).
//

TEST(PrefixGolden, PartialTailForksCopyOnWrite)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    VllmEngineConfig cfg;
    cfg.prefixCache = true;
    VllmEngine engine(tb.server(), 0, servedModel(),
                      std::make_unique<FcfsPolicy>(),
                      tb.makeDramBackend(0), cfg);
    // The first turn leaves 108 tokens cached: six full blocks and a
    // 12-token tail. The second re-sends exactly that context plus one
    // token, so its admission matches the tail and must fork it before
    // prefill appends to it.
    engine.submit(turn(1, 0, 100, 8, 0x71));
    tb.sim().runUntil(secToTicks(20.0));
    engine.submit(turn(2, secToTicks(20.0), 109, 8, 0x71));
    tb.sim().runUntil(secToTicks(40.0));

    const PrefixCacheEngineStats &p = engine.prefixEngineStats();
    EXPECT_EQ(p.cowForks, 1u);
    EXPECT_EQ(p.cachedTokens, 108u);
    EXPECT_EQ(snapshot(engine),
              "finished=2 cached=108 forks=1 hits=6 misses=6 evictions=0 "
              "regHits=0 regMisses=0 copyBytes=0 leadReads=0 borrows=0 "
              "copies=0 sigMiss=0 broken=0 local=108 remote=0 dram=0 "
              "server=0 fedHits=0 fedMisses=0 fedStream=0 fedRecompute=0 "
              "fedRefused=0 fedDone=0 fedInvalid=0 fedBytes=0 "
              "blockSigMiss=0 detected=0 repaired=0 live=0 "
              "digest=c2b8aa2cb2178c79");
}

TEST(PrefixGolden, ForkFallsBackToFullBlocksWhenThePoolIsFull)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    VllmEngineConfig cfg;
    cfg.prefixCache = true;
    cfg.slackTokens = 0;
    // Seven blocks for the first turn and eleven for a long private
    // request that holds them through the second turn's admission.
    cfg.kvPoolBytesOverride = poolOf(18);
    VllmEngine engine(tb.server(), 0, servedModel(),
                      std::make_unique<FcfsPolicy>(),
                      tb.makeDramBackend(0), cfg);
    // When the first turn finishes its seven blocks are the pool's
    // only room, all of them cached. The second turn matches six full
    // blocks and the tail; with nothing left to fork into, it drops
    // the tail and takes one fresh block, which evicts that tail.
    engine.onComplete([&engine](const workload::RequestMetrics &m) {
        if (m.id == 1)
            engine.submit(turn(2, m.finish, 109, 8, 0x72));
    });
    engine.submit(turn(1, 0, 100, 8, 0x72));
    engine.submit(request(3, 0, 161, 40));
    tb.sim().runUntil(secToTicks(60.0));

    const PrefixCacheEngineStats &p = engine.prefixEngineStats();
    EXPECT_EQ(p.cowForks, 0u);
    EXPECT_EQ(p.cachedTokens, 96u);
    EXPECT_EQ(snapshot(engine),
              "finished=3 cached=96 forks=0 hits=6 misses=26 evictions=18 "
              "regHits=0 regMisses=0 copyBytes=0 leadReads=0 borrows=0 "
              "copies=0 sigMiss=0 broken=0 local=96 remote=0 dram=0 "
              "server=0 fedHits=0 fedMisses=0 fedStream=0 fedRecompute=0 "
              "fedRefused=0 fedDone=0 fedInvalid=0 fedBytes=0 "
              "blockSigMiss=0 detected=0 repaired=0 live=0 "
              "digest=1fa3f5f33e47ced9");
}

//
// Registry admission (home on GPU 0, consumer on GPU 1).
//

TEST(PrefixGolden, AllocationFailureReleasesGrantLeadAndAdapter)
{
    VllmEngineConfig cfg;
    // Forty blocks for a cached conversation context and one free.
    cfg.kvPoolBytesOverride = poolOf(41);
    LoraCacheConfig lora;
    lora.capacityBytes = std::uint64_t(1) << 30;
    cfg.lora = lora;
    RegistryPair p(cfg, model::synthesizeAdapters("a", 320ull << 20, 1));
    // The home homes a four-block preamble; the consumer caches a
    // 640-token conversation context.
    p.submit(*p.home, preamble(1, 0, 80, 1, 64, 0xb0));
    p.submit(*p.consumer, turn(2, 0, 640, 1, 0x73));
    p.run(30.0);
    // Three arrivals in one scheduling pass. The scheduler counts the
    // cached context both as reusable and as free room. X takes it and
    // the free block. Y borrows the preamble (a registry pin) and
    // pins its adapter, then finds no block for the rest. Z matches
    // the context and pins its adapter, then finds no block either.
    Tick at = secToTicks(30.0);
    workload::Request y = preamble(4, at, 160, 4, 64, 0xb0);
    y.adapter = 0;
    workload::Request z = turn(5, at, 641, 4, 0x73);
    z.adapter = 0;
    p.submit(*p.consumer, turn(3, at, 641, 4, 0x73));
    p.submit(*p.consumer, y);
    p.submit(*p.consumer, z);
    p.run(30.001);
    // Nothing they took is still held: only X's blocks are live, no
    // lease is outstanding, and each adapter pin was dropped (the
    // adapter loaded once, re-acquired on Z's attempt).
    EXPECT_EQ(p.consumer->kvCache().liveKvBytes(),
              p.consumer->kvCache().blockBytes() * 41);
    EXPECT_EQ(p.reg.activePins(), 0u);
    EXPECT_EQ(p.consumer->loraCache()->misses(), 1u);
    EXPECT_EQ(p.consumer->loraCache()->hits(), 1u);
    p.run(120.0);
    EXPECT_EQ(snapshot(*p.consumer),
              "finished=4 cached=704 forks=0 hits=80 misses=137 "
              "evictions=42 regHits=2 regMisses=3 copyBytes=0 "
              "leadReads=37748736 borrows=2 copies=0 sigMiss=0 broken=0 "
              "local=640 remote=64 dram=0 server=0 fedHits=0 fedMisses=0 "
              "fedStream=0 fedRecompute=0 fedRefused=0 fedDone=0 "
              "fedInvalid=0 fedBytes=0 blockSigMiss=0 detected=0 "
              "repaired=0 live=0 digest=5c71fe39e6858c3a");
    EXPECT_EQ(registrySnapshot(p.reg),
              "chains=2 lookups=6 hits=2 misses=4 pins=2 unpins=2 "
              "pinRejects=0 promotions=0 invalidations=1 activePins=0");
    EXPECT_EQ(p.consumer->loraCache()->hits(), 4u);
}

TEST(PrefixGolden, FullPoolAfterThePinUnpins)
{
    VllmEngineConfig cfg;
    // Forty blocks for a cached conversation context and eleven free.
    cfg.kvPoolBytesOverride = poolOf(51);
    RegistryPair p(cfg);
    p.submit(*p.home, preamble(1, 0, 800, 1, 768));
    p.submit(*p.consumer, turn(2, 0, 640, 1, 0x74));
    p.run(30.0);
    // X takes the cached context and one free block. C misses locally
    // and finds the home's 48-block preamble: it pins it, but only ten
    // blocks are left for the 48-block copy, so it unpins and waits.
    Tick at = secToTicks(30.0);
    p.submit(*p.consumer, turn(3, at, 641, 4, 0x74));
    p.submit(*p.consumer, preamble(4, at, 800, 4, 768));
    p.run(30.001);
    EXPECT_EQ(p.reg.activePins(), 0u);
    EXPECT_EQ(registrySnapshot(p.reg),
              "chains=2 lookups=3 hits=1 misses=2 pins=1 unpins=1 "
              "pinRejects=0 promotions=0 invalidations=0 activePins=0");
    EXPECT_EQ(snapshot(*p.consumer),
              "finished=1 cached=640 forks=0 hits=40 misses=88 "
              "evictions=0 regHits=0 regMisses=2 copyBytes=0 leadReads=0 "
              "borrows=0 copies=0 sigMiss=0 broken=0 local=640 remote=0 "
              "dram=0 server=0 fedHits=0 fedMisses=0 fedStream=0 "
              "fedRecompute=0 fedRefused=0 fedDone=0 fedInvalid=0 "
              "fedBytes=0 blockSigMiss=0 detected=0 repaired=0 "
              "live=128974848 digest=37b523122cae9fca");
    p.run(120.0);
    EXPECT_EQ(snapshot(*p.consumer),
              "finished=3 cached=1408 forks=0 hits=40 misses=137 "
              "evictions=42 regHits=1 regMisses=2 copyBytes=150994944 "
              "leadReads=0 borrows=0 copies=1 sigMiss=0 broken=0 "
              "local=640 remote=768 dram=0 server=0 fedHits=0 fedMisses=0 "
              "fedStream=0 fedRecompute=0 fedRefused=0 fedDone=0 "
              "fedInvalid=0 fedBytes=0 blockSigMiss=0 detected=0 "
              "repaired=0 live=0 digest=2426e9a1aaecd4bf");
    EXPECT_EQ(registrySnapshot(p.reg),
              "chains=1 lookups=4 hits=2 misses=2 pins=2 unpins=2 "
              "pinRejects=0 promotions=0 invalidations=1 activePins=0");
}

TEST(PrefixGolden, RegistryCopyExtendsALocalMatch)
{
    RegistryPair p;
    // The home prefills the 768-token preamble. The consumer earlier
    // served a request whose whole prompt was the preamble's first 40
    // tokens, leaving two full blocks cached.
    p.submit(*p.home, preamble(1, 0, 800, 1, 768));
    p.submit(*p.consumer, preamble(2, 0, 40, 1, 768));
    p.run(30.0);
    // The next consumer request matches those two blocks locally and
    // streams the registry chain's other 46 in.
    p.submit(*p.consumer, preamble(3, secToTicks(30.0), 800, 8, 768));
    p.run(60.0);
    EXPECT_EQ(snapshot(*p.consumer),
              "finished=2 cached=768 forks=0 hits=2 misses=49 evictions=0 "
              "regHits=1 regMisses=0 copyBytes=144703488 leadReads=0 "
              "borrows=0 copies=1 sigMiss=0 broken=0 local=32 remote=736 "
              "dram=0 server=0 fedHits=0 fedMisses=0 fedStream=0 "
              "fedRecompute=0 fedRefused=0 fedDone=0 fedInvalid=0 "
              "fedBytes=0 blockSigMiss=0 detected=0 repaired=0 live=0 "
              "digest=1e88e4d9af1edafc");
    EXPECT_EQ(registrySnapshot(p.reg),
              "chains=2 lookups=2 hits=1 misses=1 pins=1 unpins=1 "
              "pinRejects=0 promotions=0 invalidations=0 activePins=0");
}

TEST(PrefixGolden, RegistryMisses)
{
    RegistryPair p;
    // Three chains the registry names on GPU 0, none of them usable:
    // one signed with content that is not this request's, one the
    // home engine never computed (it refuses the pin), and one on a
    // GPU that has failed while the registry's liveness view lags.
    workload::Request forged = preamble(1, secToTicks(1.0), 100, 4, 64,
                                        0xc1);
    workload::Request stale = preamble(2, secToTicks(2.0), 100, 4, 64,
                                       0xc2);
    workload::Request dead = preamble(3, secToTicks(3.0), 100, 4, 64,
                                      0xc3);
    p.forgeHomeChain(forged, 4, RegistryPair::sigOf(forged, 4) ^ 1);
    p.forgeHomeChain(stale, 4, RegistryPair::sigOf(stale, 4));
    p.forgeHomeChain(dead, 4, RegistryPair::sigOf(dead, 4));
    p.reg.setAliveFn({});
    p.submit(*p.consumer, forged);
    p.submit(*p.consumer, stale);
    p.tb.sim().queue().schedule(secToTicks(2.5), [&p] {
        p.tb.server().topology().markGpuFailed(0, true);
    });
    p.submit(*p.consumer, dead);
    p.run(30.0);
    const PrefixCacheEngineStats &s = p.consumer->prefixEngineStats();
    EXPECT_EQ(s.registryMisses, 3u);
    EXPECT_EQ(s.clusterSigMismatches, 1u);
    EXPECT_EQ(s.registryHits, 0u);
    EXPECT_EQ(snapshot(*p.consumer),
              "finished=3 cached=0 forks=0 hits=0 misses=18 evictions=0 "
              "regHits=0 regMisses=3 copyBytes=0 leadReads=0 borrows=0 "
              "copies=0 sigMiss=1 broken=0 local=0 remote=0 dram=0 "
              "server=0 fedHits=0 fedMisses=0 fedStream=0 fedRecompute=0 "
              "fedRefused=0 fedDone=0 fedInvalid=0 fedBytes=0 "
              "blockSigMiss=0 detected=0 repaired=0 live=0 "
              "digest=885cd23f7bb1c91d");
    EXPECT_EQ(registrySnapshot(p.reg),
              "chains=3 lookups=3 hits=3 misses=0 pins=0 unpins=0 "
              "pinRejects=1 promotions=0 invalidations=1 activePins=0");
}

TEST(PrefixGolden, ReplicaPromotedAfterTheHomeFails)
{
    RegistryPair p;
    workload::Request first = preamble(1, 0, 800, 1, 768);
    p.submit(*p.home, first);
    // The consumer streams the preamble in, then publishes it as a
    // replica of the home's chain while it decodes.
    p.submit(*p.consumer, preamble(2, secToTicks(30.0), 800, 200, 768));
    // The home GPU fails mid-decode: the registry re-homes the chain
    // to the replica, which indexes it locally.
    p.tb.sim().queue().schedule(secToTicks(33.0), [&p] {
        p.tb.server().topology().markGpuFailed(0, true);
        p.reg.onGpuFailed(0, p.tb.sim().now());
    });
    // A later consumer request reuses the adopted chain locally.
    p.submit(*p.consumer, preamble(3, secToTicks(40.0), 800, 8, 768));
    // The registry also lists the consumer as a replica of a second
    // chain it never held (its copy's release notice was lost): asked
    // to adopt that one, it declines, and the chain is invalidated.
    workload::Request other = preamble(4, 0, 800, 1, 768, 0xd1);
    p.submit(*p.home, other);
    p.tb.sim().queue().schedule(secToTicks(20.0), [&p, other] {
        ChainKeys ck = RegistryPair::keysOf(other, 48);
        p.reg.publish(1, ck.key, ck.verify, 48, 768,
                      p.consumer->kvCache().kvBytes(768),
                      RegistryPair::sigOf(other, 48), p.tb.sim().now());
    });
    p.run(90.0);
    EXPECT_EQ(p.reg.stats().promotions, 1u);
    EXPECT_EQ(p.reg.homeOf(RegistryPair::keysOf(first, 48).key), 1u);
    EXPECT_EQ(snapshot(*p.consumer),
              "finished=2 cached=1536 forks=0 hits=48 misses=50 "
              "evictions=0 regHits=1 regMisses=0 copyBytes=150994944 "
              "leadReads=0 borrows=0 copies=1 sigMiss=0 broken=0 local=0 "
              "remote=1536 dram=0 server=0 fedHits=0 fedMisses=0 "
              "fedStream=0 fedRecompute=0 fedRefused=0 fedDone=0 "
              "fedInvalid=0 fedBytes=0 blockSigMiss=0 detected=0 "
              "repaired=0 live=0 digest=52c04801a49083cd");
    EXPECT_EQ(registrySnapshot(p.reg),
              "chains=1 lookups=3 hits=1 misses=2 pins=1 unpins=1 "
              "pinRejects=0 promotions=1 invalidations=1 activePins=0");
}

TEST(PrefixGolden, ReplicaChainsFollowTheirOwners)
{
    RegistryPair p;
    // Two 128-token preambles homed on GPU 0 (past the borrow cap, so
    // the consumer copies each and republishes it as a replica).
    p.submit(*p.home, preamble(1, 0, 200, 1, 128, 0xe1));
    p.submit(*p.home, preamble(2, 0, 200, 1, 128, 0xe2));
    p.run(30.0);
    Tick at = secToTicks(30.0);
    p.submit(*p.consumer, preamble(3, at, 200, 8, 128, 0xe1));
    p.submit(*p.consumer, preamble(4, at, 200, 400, 128, 0xe2));
    // The short request's release drops only its own replica; the
    // engine torn down mid-decode withdraws the other.
    p.run(40.0);
    ASSERT_EQ(p.consumer->finished().size(), 1u);
    EXPECT_EQ(snapshot(*p.consumer),
              "finished=1 cached=256 forks=0 hits=0 misses=24 evictions=0 "
              "regHits=2 regMisses=0 copyBytes=50331648 leadReads=0 "
              "borrows=0 copies=2 sigMiss=0 broken=0 local=0 remote=256 "
              "dram=0 server=0 fedHits=0 fedMisses=0 fedStream=0 "
              "fedRecompute=0 fedRefused=0 fedDone=0 fedInvalid=0 "
              "fedBytes=0 blockSigMiss=0 detected=0 repaired=0 "
              "live=88080384 digest=70b462e4957aab20");
    EXPECT_EQ(registrySnapshot(p.reg),
              "chains=2 lookups=4 hits=2 misses=2 pins=2 unpins=2 "
              "pinRejects=0 promotions=0 invalidations=0 activePins=0");
    p.consumer.reset();
    EXPECT_EQ(registrySnapshot(p.reg),
              "chains=2 lookups=4 hits=2 misses=2 pins=2 unpins=2 "
              "pinRejects=0 promotions=0 invalidations=0 activePins=0");
}

TEST(PrefixGolden, CollidingChainsStayLocal)
{
    RegistryPair p;
    // Every primary key collides in the registry: the home's chain
    // registers first, and the consumer's differs in its verification
    // hash, so it stays engine-local at both of its publishes.
    p.reg.setKeyMask(0);
    p.submit(*p.home, preamble(1, 0, 200, 1, 128, 0xf1));
    p.submit(*p.consumer, preamble(2, secToTicks(10.0), 200, 8, 128,
                                   0xf2));
    p.run(30.0);
    // One at the consumer's first publish, one at its lookup.
    EXPECT_EQ(p.reg.stats().collisions, 2u);
    EXPECT_EQ(snapshot(*p.consumer),
              "finished=1 cached=0 forks=0 hits=0 misses=12 evictions=0 "
              "regHits=0 regMisses=1 copyBytes=0 leadReads=0 borrows=0 "
              "copies=0 sigMiss=0 broken=0 local=0 remote=0 dram=0 "
              "server=0 fedHits=0 fedMisses=0 fedStream=0 fedRecompute=0 "
              "fedRefused=0 fedDone=0 fedInvalid=0 fedBytes=0 "
              "blockSigMiss=0 detected=0 repaired=0 live=0 "
              "digest=35c75efb624237e6");
    EXPECT_EQ(registrySnapshot(p.reg),
              "chains=1 lookups=2 hits=0 misses=2 pins=0 unpins=0 "
              "pinRejects=0 promotions=0 invalidations=0 activePins=0");
}

TEST(PrefixGolden, CorruptBorrowAndCopyReadsAreRetransmitted)
{
    RegistryPair p;
    p.submit(*p.home, preamble(1, 0, 800, 1, 768));
    p.submit(*p.home, preamble(2, 0, 80, 1, 64, 0xb1));
    p.run(30.0);
    // Every payload read verified while the window is open is
    // corrupt: the borrow's probe read and the copy's stream both
    // retransmit from the intact home copy.
    Tick at = secToTicks(30.0);
    p.tb.sim().queue().schedule(at, [&p] {
        p.tb.server().topology().setPayloadCorruption(1.0);
    });
    p.submit(*p.consumer, preamble(3, at, 800, 8, 768));
    p.submit(*p.consumer, preamble(4, at, 80, 8, 64, 0xb1));
    p.tb.sim().queue().schedule(at + nsPerMs, [&p] {
        p.tb.server().topology().setPayloadCorruption(0.0);
    });
    p.run(60.0);
    EXPECT_EQ(p.consumer->integrityStats().detected, 2u);
    EXPECT_EQ(p.consumer->integrityStats().repairedRetransmit, 2u);
    EXPECT_EQ(p.log.countCategory("corruption_repaired"), 2u);
    EXPECT_EQ(snapshot(*p.consumer),
              "finished=2 cached=832 forks=0 hits=0 misses=53 evictions=0 "
              "regHits=2 regMisses=0 copyBytes=150994944 "
              "leadReads=88080384 borrows=1 copies=1 sigMiss=0 broken=0 "
              "local=0 remote=832 dram=0 server=0 fedHits=0 fedMisses=0 "
              "fedStream=0 fedRecompute=0 fedRefused=0 fedDone=0 "
              "fedInvalid=0 fedBytes=0 blockSigMiss=0 detected=2 "
              "repaired=2 live=0 digest=287bc65e8bf7fd14");
    EXPECT_EQ(registrySnapshot(p.reg),
              "chains=2 lookups=4 hits=2 misses=2 pins=2 unpins=2 "
              "pinRejects=0 promotions=0 invalidations=0 activePins=0");
}

//
// Cross-server federation (one engine per server, on GPU 0).
//

namespace {

/** Two servers with one federation engine each and a trace log on
 *  server 1's. */
struct FederationPair
{
    exp::MultiServerCluster cluster{2, 2, 11};
    trace::TraceLog log;
    std::vector<std::unique_ptr<VllmEngine>> engines;

    FederationPair(VllmEngineConfig ec, federation::DirectoryConfig dir)
    {
        std::vector<cluster::PrefixRegistry *> regs;
        for (std::size_t i = 0; i < 2; ++i)
            regs.push_back(&cluster.server(i).makePrefixRegistry());
        cluster.makeFederation(dir);
        ec.prefixCache = true;
        ec.clusterPrefix = true;
        ec.federation = true;
        for (std::size_t i = 0; i < 2; ++i) {
            exp::Testbed &tb = cluster.server(i);
            engines.push_back(std::make_unique<VllmEngine>(
                tb.server(), 0, servedModel(),
                std::make_unique<FcfsPolicy>(), tb.makeDramBackend(0),
                ec));
            core::AquaLib &lib = tb.makeAquaLib(0);
            engines.back()->attachClusterPrefix(regs[i], &lib);
            engines.back()->attachFederation(
                &cluster.fabric(), static_cast<std::uint32_t>(i), &lib);
        }
        engines[1]->setTraceLog(&log);
    }

    void
    submit(std::size_t i, workload::Request r)
    {
        cluster.sim().queue().schedule(r.arrival, [this, i, r] {
            engines[i]->submit(r);
        });
    }

    void run(double sec) { cluster.sim().runUntil(secToTicks(sec)); }
};

} // anonymous namespace

TEST(PrefixGolden, FederationRecomputeVerdictIsTraced)
{
    // A safety factor no stream can beat: the cost model sends the
    // fetch back to a local prefill.
    VllmEngineConfig ec;
    ec.federationSafetyFactor = 1e6;
    FederationPair f(ec, {});
    f.submit(0, preamble(1, 0, 800, 1, 768));
    f.submit(1, preamble(2, secToTicks(30.0), 800, 8, 768));
    f.run(60.0);
    EXPECT_EQ(f.engines[1]->prefixEngineStats().fedRecomputeDecisions,
              1u);
    EXPECT_EQ(f.log.countCategory("fed_recompute"), 1u);
    EXPECT_EQ(snapshot(*f.engines[1]),
              "finished=1 cached=0 forks=0 hits=0 misses=49 evictions=0 "
              "regHits=0 regMisses=1 copyBytes=0 leadReads=0 borrows=0 "
              "copies=0 sigMiss=0 broken=0 local=0 remote=0 dram=0 "
              "server=0 fedHits=1 fedMisses=0 fedStream=0 fedRecompute=1 "
              "fedRefused=0 fedDone=0 fedInvalid=0 fedBytes=0 "
              "blockSigMiss=0 detected=0 repaired=0 live=0 "
              "digest=e2cc931247a6dc96");
}

TEST(PrefixGolden, FederationFetchTheHomeRefuses)
{
    // The home admits one remote consumer at a time; the second of two
    // simultaneous fetches is refused and prefills locally.
    federation::DirectoryConfig dir;
    dir.maxRemoteConsumers = 1;
    FederationPair f({}, dir);
    f.submit(0, preamble(1, 0, 800, 1, 768));
    f.submit(1, preamble(2, secToTicks(30.0), 800, 8, 768));
    f.submit(1, preamble(3, secToTicks(30.0), 800, 8, 768));
    // Two arrivals that never fetch: one whose content signature
    // disagrees with the chain server 0 advertises for its preamble,
    // and one with no shareable prefix at all.
    workload::Request forged = preamble(4, secToTicks(40.0), 800, 8, 768,
                                        0xa7);
    f.cluster.sim().queue().schedule(secToTicks(35.0), [&f, forged] {
        TokenChain chain(tokenFnFor(forged), VllmEngine::blockTokens);
        ChainKeys ck = chain.keysAt(48);
        f.cluster.server(0).makePrefixRegistry().publish(
            0, ck.key, ck.verify, 48, 768,
            f.engines[0]->kvCache().kvBytes(768), chain.sig(0, 768) ^ 1,
            f.cluster.sim().now());
    });
    f.submit(1, forged);
    f.submit(1, request(5, secToTicks(40.0), 100, 8));
    f.run(60.0);
    const PrefixCacheEngineStats &s = f.engines[1]->prefixEngineStats();
    EXPECT_EQ(s.fedFetchRefusals, 1u);
    EXPECT_EQ(s.clusterSigMismatches, 1u);
    EXPECT_EQ(snapshot(*f.engines[1]),
              "finished=4 cached=768 forks=0 hits=0 misses=104 "
              "evictions=0 regHits=0 regMisses=2 copyBytes=0 leadReads=0 "
              "borrows=0 copies=0 sigMiss=1 broken=0 local=0 remote=0 "
              "dram=0 server=768 fedHits=3 fedMisses=0 fedStream=2 "
              "fedRecompute=0 fedRefused=1 fedDone=1 fedInvalid=0 "
              "fedBytes=150994944 blockSigMiss=0 detected=0 repaired=0 "
              "live=0 digest=421fa5845592a348");
}
