/**
 * @file
 * Tests for copy-on-write prefix caching: the hash index, CoW forks,
 * refcount hygiene, collision fallback, cache eviction vs donation,
 * and the engine-level shared offload round trip.
 */

#include <gtest/gtest.h>

#include <memory>

#include "exp/testbed.hh"
#include "hw/gpu.hh"
#include "hw/gpu_spec.hh"
#include "model/model_spec.hh"
#include "serve/kv_cache.hh"
#include "serve/prefix_index.hh"
#include "serve/vllm_engine.hh"
#include "sim/simulation.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

namespace {

struct Fixture
{
    Simulation sim;
    hw::Gpu gpu{sim, 0, hw::a100_80g()};
};

/** Deterministic token stream in 16-token blocks: content id =
 *  salt ^ position. */
TokenChain
stream(std::uint64_t salt)
{
    return {[salt](std::uint64_t pos) { return salt ^ (pos + 1); }, 16};
}

workload::Request
sharedReq(std::uint64_t id, Tick arrival, std::uint32_t prompt,
          std::uint32_t out, std::uint32_t prefixTokens)
{
    workload::Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptTokens = prompt;
    r.maxNewTokens = out;
    r.prefixStream = workload::contentStreamId(0x5157);
    r.prefixTokens = prefixTokens;
    return r;
}

} // anonymous namespace

TEST(PrefixCache, AcquireMatchesPublishedChain)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    TokenChain tok = stream(0xabc);

    auto owner = kv.allocateBlocks(3);
    ASSERT_TRUE(owner);
    kv.publishPrefix(tok, 40, *owner, 10);
    kv.freeBlocks(*owner); // cache-only now
    EXPECT_EQ(kv.evictableBlocks(), 3u);

    KvCache::PrefixAcquire acq = kv.acquirePrefix(tok, 40, 20);
    ASSERT_EQ(acq.blocks.size(), 3u);
    EXPECT_EQ(acq.tokens, 40u);
    EXPECT_EQ(acq.partialTokens, 8u);
    EXPECT_EQ(acq.blocks, *owner);
    // Borrower + index on every matched block; none evictable.
    for (mem::BlockId id : acq.blocks)
        EXPECT_EQ(kv.blockRefCount(id), 2u);
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    kv.freeBlocks(acq.blocks);
    EXPECT_EQ(kv.evictableBlocks(), 3u);
}

TEST(PrefixCache, ForkThenAppendDiverges)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    TokenChain tokA = stream(0xaaaa);
    // Identical to A for the first 40 tokens, distinct afterwards.
    TokenChain tokB(
        [](std::uint64_t pos) {
            return (pos < 40 ? 0xaaaa : 0xb0b) ^ (pos + 1);
        },
        16);

    auto owner = kv.allocateBlocks(3);
    ASSERT_TRUE(owner);
    kv.publishPrefix(tokA, 40, *owner, 10);
    kv.freeBlocks(*owner);

    KvCache::PrefixAcquire acq = kv.acquirePrefix(tokB, 40, 20);
    ASSERT_EQ(acq.blocks.size(), 3u);
    mem::BlockId tail = acq.blocks[2];
    std::uint64_t tailSig = kv.blockSig(tail);

    // CoW: B must not append into the shared partial tail.
    auto fork = kv.forkBlock(tail);
    ASSERT_TRUE(fork);
    EXPECT_NE(*fork, tail);
    EXPECT_EQ(kv.blockRefCount(*fork), 1u);
    EXPECT_EQ(kv.blockRefCount(tail), 1u); // index only again
    EXPECT_EQ(kv.blockSig(*fork), tailSig);

    // B fills its tail with its own tokens and publishes.
    std::vector<mem::BlockId> bBlocks = {acq.blocks[0], acq.blocks[1],
                                         *fork};
    kv.publishPrefix(tokB, 48, bBlocks, 30);
    // The fork now holds B's block 2; A's partial is untouched.
    EXPECT_NE(kv.blockSig(*fork), tailSig);
    EXPECT_EQ(kv.blockSig(tail), tailSig);

    // A's chain still serves A; the 40-token partial survives.
    KvCache::PrefixAcquire again = kv.acquirePrefix(tokA, 40, 40);
    ASSERT_EQ(again.blocks.size(), 3u);
    EXPECT_EQ(again.blocks[2], tail);
    kv.freeBlocks(again.blocks);
    kv.freeBlocks(bBlocks);
}

TEST(PrefixCache, NoRefcountLeakAfterChurn)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    std::size_t total = kv.totalBlocks();

    for (int round = 0; round < 20; ++round) {
        TokenChain tok = stream(0x1000 + static_cast<std::uint64_t>(
                                          round % 5));
        auto owner = kv.allocateBlocks(4);
        ASSERT_TRUE(owner);
        kv.publishPrefix(tok, 60, *owner, round * 10);
        KvCache::PrefixAcquire acq =
            kv.acquirePrefix(tok, 60, round * 10 + 5);
        if (acq.partialTokens != 0) {
            auto forked = kv.forkBlock(acq.blocks.back());
            ASSERT_TRUE(forked);
            acq.blocks.back() = *forked;
        }
        kv.freeBlocks(acq.blocks);
        kv.freeBlocks(*owner);
    }

    // Everything still allocated is index-held cache, nothing else.
    EXPECT_EQ(kv.freeBlocks() + kv.evictableBlocks(), total);
    EXPECT_EQ(kv.liveKvBytes(), 0u);
    kv.dropCache();
    EXPECT_EQ(kv.freeBlocks(), total);
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    EXPECT_EQ(kv.usedBytes(), 0u);
}

TEST(PrefixCache, CollisionFallsBackToMiss)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    // Collapse every primary key into one bucket: any two distinct
    // chains now collide on the primary hash.
    kv.prefixIndex().setPrimaryMask(0);

    TokenChain tokA = stream(0xaaa);
    TokenChain tokB = stream(0xbbb);
    auto owner = kv.allocateBlocks(1);
    ASSERT_TRUE(owner);
    kv.publishPrefix(tokA, 16, *owner, 10);
    kv.freeBlocks(*owner);

    // B's primary key hits A's entry; the verification hash must
    // reject it — a miss, never a false share.
    KvCache::PrefixAcquire acq = kv.acquirePrefix(tokB, 16, 20);
    EXPECT_TRUE(acq.blocks.empty());
    EXPECT_GE(kv.prefixStats().collisions, 1u);

    // The true owner still matches through the same bucket.
    KvCache::PrefixAcquire own = kv.acquirePrefix(tokA, 16, 30);
    ASSERT_EQ(own.blocks.size(), 1u);
    EXPECT_EQ(own.blocks[0], (*owner)[0]);
    kv.freeBlocks(own.blocks);
}

TEST(PrefixCache, AllocationEvictsCachedLru)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    std::size_t total = kv.totalBlocks();

    auto owner = kv.allocateBlocks(4);
    ASSERT_TRUE(owner);
    kv.publishPrefix(stream(0xcafe), 64, *owner, 10);
    kv.freeBlocks(*owner);
    EXPECT_EQ(kv.evictableBlocks(), 4u);

    // Ask for every block: the cache must give way.
    auto allBlocks = kv.allocateBlocks(total);
    ASSERT_TRUE(allBlocks);
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    EXPECT_EQ(kv.freeBlocks(), 0u);
    kv.freeBlocks(*allBlocks);
}

TEST(PrefixCache, DonationEvictsCacheButNeverSharedBlocks)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 2 * gib, 16);

    // A cache-only chain (donatable) and a borrowed chain (pinned).
    auto cold = kv.allocateBlocks(4);
    ASSERT_TRUE(cold);
    kv.publishPrefix(stream(0xc01d), 64, *cold, 10);
    kv.freeBlocks(*cold);

    TokenChain hot = stream(0x407);
    auto hotOwner = kv.allocateBlocks(4);
    ASSERT_TRUE(hotOwner);
    kv.publishPrefix(hot, 64, *hotOwner, 20);
    kv.freeBlocks(*hotOwner);
    KvCache::PrefixAcquire borrowed = kv.acquirePrefix(hot, 64, 30);
    ASSERT_EQ(borrowed.blocks.size(), 4u);

    std::uint64_t released = kv.shrink(2 * gib);
    EXPECT_GT(released, 0u);
    // The cold cache was evicted to feed the donation...
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    // ...but the borrower's shared blocks survived, content intact.
    for (mem::BlockId id : borrowed.blocks)
        EXPECT_GE(kv.blockRefCount(id), 1u);
    KvCache::PrefixAcquire again = kv.acquirePrefix(hot, 64, 40);
    EXPECT_EQ(again.blocks, borrowed.blocks);
    kv.freeBlocks(again.blocks);
    kv.freeBlocks(borrowed.blocks);
    kv.grow(released);
}

//
// Engine-level sharing.
//

TEST(PrefixCacheEngine, SecondRequestPrefillsFromCache)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.prefixCache = true;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend, cfg);

    engine.submit(sharedReq(0, 0, 800, 8, 768));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(engine.finished().size(), 1u);
    EXPECT_EQ(engine.prefixEngineStats().cachedTokens, 0u);

    // Same 768-token preamble: its prefill comes from cache.
    engine.submit(sharedReq(1, secToTicks(30.0), 800, 8, 768));
    tb.sim().runUntil(secToTicks(60.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    EXPECT_GE(engine.prefixEngineStats().cachedTokens, 700u);
    EXPECT_GT(engine.kvCache().prefixStats().hits, 0u);
    EXPECT_EQ(engine.prefixEngineStats().sigMismatches, 0u);
}

TEST(PrefixCacheEngine, CacheNeverBlocksCompletion)
{
    // Memory-pressure regression: the cache must yield to admissions.
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.prefixCache = true;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend, cfg);
    for (int i = 0; i < 6; ++i)
        engine.submit(sharedReq(i, 0, 2000, 100, 1024));
    tb.sim().runUntil(secToTicks(600.0));
    EXPECT_EQ(engine.finished().size(), 6u);
    EXPECT_EQ(engine.prefixEngineStats().sigMismatches, 0u);
    EXPECT_EQ(engine.kvCache().liveKvBytes(), 0u);
}

TEST(PrefixCacheEngine, SharedOffloadRoundTripPreservesContent)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.prefixCache = true;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), backend, cfg);
    // CFS over an undersized pool context-switches these through the
    // backend; they all share a 1024-token preamble.
    for (int i = 0; i < 6; ++i)
        engine.submit(sharedReq(i, 0, 2000, 400, 1024));
    tb.sim().runUntil(secToTicks(900.0));
    ASSERT_EQ(engine.finished().size(), 6u);
    EXPECT_GT(engine.swapOutCount(), 0u);
    // Byte identity across every swap round trip.
    EXPECT_EQ(engine.prefixEngineStats().sigMismatches, 0u);
    // All KV returned; only the prefix cache may still hold blocks.
    EXPECT_EQ(engine.kvCache().liveKvBytes(), 0u);
}

TEST(PrefixCacheEngine, SharingReducesOffloadTraffic)
{
    auto run = [](bool sharing) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        auto &backend = tb.makeDramBackend(0);
        VllmEngineConfig cfg;
        cfg.prefixCache = sharing;
        cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
        VllmEngine engine(tb.server(), 0, model::codellama34b(),
                          std::make_unique<CfsPolicy>(), backend, cfg);
        for (int i = 0; i < 6; ++i)
            engine.submit(sharedReq(i, 0, 2000, 400, 1024));
        tb.sim().runUntil(secToTicks(900.0));
        EXPECT_EQ(engine.finished().size(), 6u);
        return engine.offloadWriteBytes();
    };
    // Shared-group dedup writes each common preamble once, so the
    // backend sees no more bytes than with sharing off. (Peak live KV
    // is NOT compared here: under memory pressure the admission
    // discount packs more concurrent sequences into the same pool,
    // which is the point of sharing, not a regression.)
    EXPECT_LE(run(true), run(false));
}

TEST(PrefixCacheEngine, ConcurrentSharingReducesPeakLiveKv)
{
    auto run = [](bool sharing) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        auto &backend = tb.makeDramBackend(0);
        VllmEngineConfig cfg;
        cfg.prefixCache = sharing;
        VllmEngine engine(tb.server(), 0, model::codellama34b(),
                          std::make_unique<FcfsPolicy>(), backend, cfg);
        // One request publishes the preamble; five more arrive after
        // its prefill and decode alongside it, borrowing the blocks.
        engine.submit(sharedReq(0, 0, 1200, 300, 1024));
        for (int i = 1; i < 6; ++i)
            engine.submit(sharedReq(i, secToTicks(8.0), 1200, 300,
                                    1024));
        tb.sim().runUntil(secToTicks(300.0));
        EXPECT_EQ(engine.finished().size(), 6u);
        return engine.kvCache().peakLiveKvBytes();
    };
    std::uint64_t peakOff = run(false);
    std::uint64_t peakOn = run(true);
    // Six copies of a 64-block preamble collapse into one.
    EXPECT_LT(peakOn, peakOff);
}

TEST(PrefixCacheEngine, OffByDefaultKeepsCountersZero)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.submit(sharedReq(0, 0, 800, 8, 768));
    engine.submit(sharedReq(1, secToTicks(5.0), 800, 8, 768));
    tb.sim().runUntil(secToTicks(60.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    EXPECT_EQ(engine.prefixEngineStats().cachedTokens, 0u);
    EXPECT_EQ(engine.kvCache().prefixStats().hits, 0u);
    EXPECT_EQ(engine.kvCache().evictableBlocks(), 0u);
}

TEST(PrefixCache, MaxCacheShareCapsCacheOnlyBlocks)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);

    // Publish an 8-block chain and release it: all 8 cache-only.
    TokenChain a = stream(0xaaa);
    auto blocksA = kv.allocateBlocks(8);
    ASSERT_TRUE(blocksA);
    kv.publishPrefix(a, 8 * 16, *blocksA, 10);
    kv.freeBlocks(*blocksA);
    ASSERT_EQ(kv.evictableBlocks(), 8u);

    // Cap the cache-only share at 4 blocks: lowering the share evicts
    // down to the cap immediately.
    double share = 4.5 / static_cast<double>(kv.totalBlocks());
    kv.setMaxCacheShare(share);
    ASSERT_EQ(kv.cacheBlockCap(), 4u);
    EXPECT_LE(kv.evictableBlocks(), 4u);

    // Publishing a fresh chain past the cap evicts the LRU chain
    // rather than growing retention: the cap holds afterwards, and the
    // newest chain is the one still resident.
    TokenChain b = stream(0xbbb);
    auto blocksB = kv.allocateBlocks(4);
    ASSERT_TRUE(blocksB);
    kv.publishPrefix(b, 4 * 16, *blocksB, 20);
    kv.freeBlocks(*blocksB);
    EXPECT_LE(kv.evictableBlocks(), 4u);
    KvCache::PrefixAcquire hitB = kv.acquirePrefix(b, 4 * 16, 30);
    EXPECT_EQ(hitB.blocks.size(), 4u);
    kv.freeBlocks(hitB.blocks);
    KvCache::PrefixAcquire missA = kv.acquirePrefix(a, 8 * 16, 40);
    EXPECT_TRUE(missA.blocks.empty());

    // Share 0 forbids any cache-only retention at all.
    kv.setMaxCacheShare(0.0);
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    auto blocksC = kv.allocateBlocks(2);
    ASSERT_TRUE(blocksC);
    kv.publishPrefix(stream(0xccc), 2 * 16, *blocksC, 50);
    kv.freeBlocks(*blocksC);
    EXPECT_EQ(kv.evictableBlocks(), 0u);

    // Out-of-range shares clamp instead of misbehaving.
    kv.setMaxCacheShare(7.0);
    EXPECT_DOUBLE_EQ(kv.maxCacheShare(), 1.0);
    EXPECT_EQ(kv.cacheBlockCap(), kv.totalBlocks());
}

TEST(PrefixCache, CostAwareEvictionKeepsDeepHotChains)
{
    // Chain A: deep (3 blocks) and hot, but last touched *before*
    // chain B. Chain B: shallow, cold, most recently published. LRU
    // sacrifices A first; cost-aware (depth x hits) keeps the chain
    // whose recompute bill is highest and evicts B instead.
    auto build = [](KvCache &kv, const TokenChain &a, const TokenChain &b) {
        auto blocksA = kv.allocateBlocks(3);
        ASSERT_TRUE(blocksA);
        kv.publishPrefix(a, 48, *blocksA, 10);
        kv.freeBlocks(*blocksA);
        for (Tick t : {15, 20}) { // two reuses bump every A entry
            KvCache::PrefixAcquire hit = kv.acquirePrefix(a, 48, t);
            ASSERT_EQ(hit.blocks.size(), 3u);
            kv.freeBlocks(hit.blocks);
        }
        auto blocksB = kv.allocateBlocks(1);
        ASSERT_TRUE(blocksB);
        kv.publishPrefix(b, 16, *blocksB, 30); // newest entry
        kv.freeBlocks(*blocksB);
        ASSERT_EQ(kv.evictableBlocks(), 4u);
    };
    TokenChain a = stream(0xd1);
    TokenChain b = stream(0xd2);

    Fixture lruF;
    KvCache lru(lruF.gpu, model::codellama34b(), 1 * gib, 16);
    build(lru, a, b);
    EXPECT_EQ(lru.evictCached(1), 1u);
    // Recency alone rotates out part of the expensive chain.
    EXPECT_LT(lru.probePrefixBlocks(a, 48), 3u);
    EXPECT_EQ(lru.probePrefixBlocks(b, 16), 1u);

    Fixture costF;
    KvCache cost(costF.gpu, model::codellama34b(), 1 * gib, 16);
    cost.setEvictionPolicy(EvictionPolicy::CostAware);
    build(cost, a, b);
    EXPECT_EQ(cost.evictCached(1), 1u);
    EXPECT_EQ(cost.probePrefixBlocks(a, 48), 3u);
    EXPECT_EQ(cost.probePrefixBlocks(b, 16), 0u);
}
