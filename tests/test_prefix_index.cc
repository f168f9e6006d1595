/**
 * @file
 * Tests for the prefix index's victim order: differential property
 * tests against the sort-based selection it replaced (short runs, and
 * a long one that grows the slot table past a thousand entries), the
 * key tie-break between a full and a stale partial entry on one block,
 * and re-ranking on lookup hits and policy changes; an allocation
 * guard on re-publishing a cached chain. Also TokenChain's memo
 * against the unmemoized hashing, and how often a publish and its
 * follow-up queries read each token.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <random>
#include <unordered_map>
#include <vector>

#include "hw/gpu.hh"
#include "hw/gpu_spec.hh"
#include "model/model_spec.hh"
#include "serve/kv_cache.hh"
#include "serve/prefix_index.hh"
#include "sim/simulation.hh"
#include "tests/alloc_counter.hh"

using namespace aqua;
using namespace aqua::serve;
using aqua::mem::BlockId;
using aqua::sim::gib;
using aqua::sim::Tick;

namespace {

/**
 * Reference index: the sort-based PrefixIndex the incremental victim
 * order replaced, with the key as the last tie-break. Same hashing and
 * entry bookkeeping in a node map; every eviction copies every entry's
 * rank and sorts them.
 */
class RefIndex
{
  public:
    explicit RefIndex(std::uint32_t blockTokens)
        : blockTokens(blockTokens)
    {
    }

    void setEvictionPolicy(EvictionPolicy policy) { eviction = policy; }
    void setPrimaryMask(std::uint64_t mask) { primaryMask = mask; }
    std::size_t entries() const { return map.size(); }
    const PrefixIndexStats &stats() const { return counters; }

    std::uint32_t
    refsHeld(BlockId id) const
    {
        return id < held.size() ? held[id] : 0;
    }

    /** Map key of the entry covering the last block of tokens
     *  [0, @p tokens): a full-block entry or a partial tail. */
    std::uint64_t
    entryKey(const TokenFn &tok, std::uint64_t tokens) const
    {
        std::uint64_t full = tokens / blockTokens;
        auto rem = static_cast<std::uint32_t>(tokens - full * blockTokens);
        Chain chain{kSeedKey, kSeedVerify};
        chain = extend(chain, tok, 0,
                       static_cast<std::uint32_t>(full) * blockTokens);
        if (rem == 0)
            return chain.key & primaryMask;
        return partialKey(chain, rem) & primaryMask;
    }

    PrefixIndex::Match
    lookup(const TokenFn &tok, std::uint64_t maxTokens, Tick now,
           bool touch)
    {
        PrefixIndex::Match m;
        Chain chain{kSeedKey, kSeedVerify};
        std::uint64_t fullWanted = maxTokens / blockTokens;
        std::uint64_t i = 0;
        for (; i < fullWanted; ++i) {
            Chain next = extend(chain, tok, i * blockTokens, blockTokens);
            auto it = map.find(next.key & primaryMask);
            if (it == map.end())
                break;
            Entry &e = it->second;
            if (e.tokens != blockTokens || e.verify != next.verify) {
                if (touch)
                    ++counters.collisions;
                break;
            }
            chain = next;
            m.blocks.push_back(e.block);
            m.tokens += blockTokens;
            if (touch) {
                e.lastUse = now;
                ++e.uses;
                ++counters.hits;
            }
        }
        if (touch)
            counters.misses += fullWanted - i;
        auto rem = static_cast<std::uint32_t>(maxTokens - i * blockTokens);
        if (i == fullWanted && rem > 0 && rem < blockTokens) {
            Chain pc = extend(chain, tok, i * blockTokens, rem);
            auto it = map.find(partialKey(chain, rem) & primaryMask);
            if (it != map.end()) {
                Entry &e = it->second;
                if (e.tokens == rem && e.verify == pc.verify) {
                    m.blocks.push_back(e.block);
                    m.tokens += rem;
                    m.partialTokens = rem;
                    if (touch) {
                        e.lastUse = now;
                        ++e.uses;
                        ++counters.partialHits;
                    }
                } else if (touch) {
                    ++counters.collisions;
                }
            }
        }
        return m;
    }

    std::vector<BlockId>
    insert(const TokenFn &tok, std::uint64_t tokens,
           const std::vector<BlockId> &blocks, Tick now)
    {
        std::vector<BlockId> newly;
        std::uint64_t full = tokens / blockTokens;
        std::uint32_t depth = 0;
        auto place = [&](std::uint64_t key, std::uint64_t verify,
                         BlockId block, std::uint32_t count) {
            ++depth;
            auto it = map.find(key);
            if (it == map.end()) {
                map.emplace(key,
                            Entry{block, verify, count, now, depth, 0});
                if (held.size() <= block)
                    held.resize(block + 1, 0);
                ++held[block];
                ++counters.insertions;
                newly.push_back(block);
                return;
            }
            if (it->second.verify == verify && it->second.tokens == count)
                it->second.lastUse = now;
            else
                ++counters.collisions;
        };
        Chain chain{kSeedKey, kSeedVerify};
        for (std::uint64_t i = 0; i < full; ++i) {
            chain = extend(chain, tok, i * blockTokens, blockTokens);
            place(chain.key & primaryMask, chain.verify, blocks[i],
                  blockTokens);
        }
        auto rem = static_cast<std::uint32_t>(tokens - full * blockTokens);
        if (rem > 0) {
            Chain pc = extend(chain, tok, full * blockTokens, rem);
            place(partialKey(chain, rem) & primaryMask, pc.verify,
                  blocks[full], rem);
        }
        return newly;
    }

    std::vector<BlockId>
    evictLru(std::size_t maxEntries,
             const std::function<bool(BlockId)> &evictable)
    {
        std::vector<BlockId> out;
        if (maxEntries == 0 || map.empty())
            return out;
        // Victim order = lexicographic order of (cost, last use,
        // block, key); cost is 0 for every entry under Lru.
        std::vector<std::array<std::uint64_t, 4>> ranks;
        ranks.reserve(map.size());
        for (const auto &[key, e] : map) {
            std::uint64_t cost = eviction == EvictionPolicy::CostAware
                                     ? e.depth * e.uses
                                     : 0;
            ranks.push_back({cost, e.lastUse, e.block, key});
        }
        std::sort(ranks.begin(), ranks.end());
        for (const auto &rank : ranks) {
            if (out.size() >= maxEntries)
                break;
            auto it = map.find(rank[3]);
            BlockId block = it->second.block;
            if (!evictable(block))
                continue;
            map.erase(it);
            --held[block];
            ++counters.evictions;
            out.push_back(block);
        }
        return out;
    }

    std::vector<BlockId>
    clear()
    {
        std::vector<BlockId> out;
        for (const auto &[key, e] : map)
            out.push_back(e.block);
        counters.evictions += map.size();
        map.clear();
        std::fill(held.begin(), held.end(), 0);
        return out;
    }

  private:
    struct Entry
    {
        BlockId block = 0;
        std::uint64_t verify = 0;
        std::uint32_t tokens = 0;
        Tick lastUse = 0;
        std::uint32_t depth = 1;
        std::uint64_t uses = 0;
    };

  public:
    // The unmemoized reference hashing (also checked against
    // TokenChain below).

    struct Chain
    {
        std::uint64_t key;
        std::uint64_t verify;
    };

    static std::uint64_t
    mix64(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    static Chain
    extend(Chain chain, const TokenFn &tok, std::uint64_t first,
           std::uint32_t count)
    {
        for (std::uint32_t i = 0; i < count; ++i) {
            std::uint64_t v = tok(first + i);
            chain.key = mix64(chain.key ^ (v * 0x9ddfea08eb382d69ull));
            chain.verify = mix64((chain.verify + v) * 0xc2b2ae3d27d4eb4full +
                                 0x165667b19e3779f9ull);
        }
        return chain;
    }

    static std::uint64_t
    partialKey(const Chain &chain, std::uint32_t tokens)
    {
        return mix64(chain.key ^
                     (std::uint64_t(tokens) * 0xb5297a4d3c2c1b3full));
    }

    static constexpr std::uint64_t kSeedKey = 0x243f6a8885a308d3ull;
    static constexpr std::uint64_t kSeedVerify = 0x452821e638d01377ull;

    /** FNV-1a over the content ids of tokens [first, first + count). */
    static std::uint64_t
    sig(const TokenFn &tok, std::uint64_t first, std::uint64_t count)
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t c = tok(first + i);
            for (int b = 0; b < 8; ++b) {
                h ^= (c >> (8 * b)) & 0xff;
                h *= 0x100000001b3ull;
            }
        }
        return h;
    }

  private:
    std::uint32_t blockTokens;
    EvictionPolicy eviction = EvictionPolicy::Lru;
    std::uint64_t primaryMask = ~std::uint64_t(0);
    std::unordered_map<std::uint64_t, Entry> map;
    std::vector<std::uint32_t> held;
    PrefixIndexStats counters;
};

/** Deterministic token stream: content id = salt ^ position. */
TokenFn
stream(std::uint64_t salt)
{
    return [salt](std::uint64_t pos) { return salt ^ (pos + 1); };
}

/** Stream sharing @p root's first @p forkAt tokens, then diverging. */
TokenFn
forkedStream(std::uint64_t root, std::uint64_t forkAt, std::uint64_t salt)
{
    return [=](std::uint64_t pos) {
        return (pos < forkAt ? root : salt) ^ (pos + 1);
    };
}

void
expectSameState(const PrefixIndex &idx, const RefIndex &ref,
                BlockId pool)
{
    ASSERT_EQ(idx.entries(), ref.entries());
    const PrefixIndexStats &a = idx.stats();
    const PrefixIndexStats &b = ref.stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.partialHits, b.partialHits);
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_EQ(a.insertions, b.insertions);
    EXPECT_EQ(a.evictions, b.evictions);
    for (BlockId id = 0; id < pool; ++id) {
        if (idx.refsHeld(id) != ref.refsHeld(id)) {
            ASSERT_EQ(idx.refsHeld(id), ref.refsHeld(id)) << "block " << id;
        }
    }
}

/** Size and op mix of one differential run. */
struct DiffShape
{
    std::uint32_t blockTokens = 4;
    /** Block ids are drawn from [0, pool). */
    BlockId pool = 40;
    int streams = 10;
    int steps = 400;
    /** Streams fork off their root in [0, forkSpan) tokens. */
    std::uint64_t forkSpan = 20;
    /** Publishes span up to maxBlocks blocks, lookups one more. */
    std::uint64_t maxBlocks = 6;
    /** Evictions ask for up to maxEvict - 1 entries. */
    std::size_t maxEvict = 6;
    /** Ops are drawn from [0, opRange): insert below opInsert, lookup
     *  below opLookup, evict below opEvict, clear below opClear,
     *  policy change above. */
    std::uint64_t opRange = 100;
    std::uint64_t opInsert = 35;
    std::uint64_t opLookup = 70;
    std::uint64_t opEvict = 90;
    std::uint64_t opClear = 92;
    /** One insert or lookup in this many runs at an older tick (0 =
     *  never). */
    std::uint64_t olderOneIn = 0;
    EvictionPolicy startPolicy = EvictionPolicy::Lru;
};

/** One seeded random run of both indexes, compared after every step;
 *  stops at the first divergence. Raises @p peak, when given, to the
 *  most entries held at once. */
void
runDifferential(std::uint64_t seed, std::uint64_t mask,
                const DiffShape &shape = {}, std::size_t *peak = nullptr)
{
    const std::uint32_t bt = shape.blockTokens;
    std::mt19937_64 rng(seed);
    std::vector<TokenFn> streams;
    std::vector<TokenChain> chains;
    for (int s = 0; s < shape.streams; ++s) {
        // Three chain roots; streams fork off them at mixed depths,
        // some mid-block, so chains share full and partial blocks.
        streams.push_back(forkedStream(0x1000 + rng() % 3,
                                       rng() % shape.forkSpan,
                                       0x2000 + std::uint64_t(s)));
        // One chain per stream for the whole run: its memo fills
        // piecemeal across the steps that query it.
        chains.emplace_back(streams.back(), bt);
    }

    PrefixIndex idx(bt);
    RefIndex ref(bt);
    idx.setPrimaryMask(mask);
    ref.setPrimaryMask(mask);
    idx.setEvictionPolicy(shape.startPolicy);
    ref.setEvictionPolicy(shape.startPolicy);
    // A pool of at most 64 blocks takes a 64-bit evictable mask; a
    // larger one a hashed 3-in-4 draw per block.
    auto allowedBit = [&shape](std::uint64_t allowed, BlockId b) {
        if (shape.pool <= 64)
            return ((allowed >> b) & 1) != 0;
        return ((allowed ^ (b * 0x9e3779b97f4a7c15ull)) >> 62) != 0;
    };
    Tick now = 0;

    for (int step = 0; step < shape.steps; ++step) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " mask "
                                          << mask << " step " << step);
        now += rng() % 2; // equal stamps are common: ties get exercised
        std::size_t pick = rng() % shape.streams;
        const TokenFn &tok = streams[pick];
        const TokenChain &chain = chains[pick];
        std::uint64_t op = rng() % shape.opRange;
        Tick at = now;
        if (shape.olderOneIn != 0 && rng() % shape.olderOneIn == 0)
            at -= std::min<Tick>(now, 1 + rng() % 4);
        if (op < shape.opInsert) {
            std::uint64_t tokens = 1 + rng() % (shape.maxBlocks * bt);
            std::vector<BlockId> blocks((tokens + bt - 1) / bt);
            for (BlockId &b : blocks)
                b = static_cast<BlockId>(rng() % shape.pool);
            ASSERT_EQ(idx.insert(chain, tokens, blocks, at),
                      ref.insert(tok, tokens, blocks, at));
        } else if (op < shape.opLookup) {
            std::uint64_t maxTokens = rng() % ((shape.maxBlocks + 1) * bt);
            bool touch = rng() % 2 == 0;
            PrefixIndex::Match a = idx.lookup(chain, maxTokens, at, touch);
            PrefixIndex::Match b = ref.lookup(tok, maxTokens, at, touch);
            ASSERT_EQ(a.blocks, b.blocks);
            ASSERT_EQ(a.tokens, b.tokens);
            ASSERT_EQ(a.partialTokens, b.partialTokens);
        } else if (op < shape.opEvict) {
            std::size_t maxEntries = rng() % shape.maxEvict;
            std::uint64_t allowed = rng();
            bool refAware = rng() % 2 == 0;
            // Either a fixed per-block mask, or KvCache's shape: a
            // block is evictable while no entry on it has been evicted
            // in this call (its other references are not yet dropped).
            auto predicate = [&](auto &side) {
                std::vector<std::uint32_t> before(shape.pool);
                for (BlockId id = 0; id < shape.pool; ++id)
                    before[id] = side.refsHeld(id);
                return [&side, &allowedBit, before, allowed,
                        refAware](BlockId b) {
                    if (!allowedBit(allowed, b))
                        return false;
                    return !refAware || side.refsHeld(b) == before[b];
                };
            };
            ASSERT_EQ(idx.evictLru(maxEntries, predicate(idx)),
                      ref.evictLru(maxEntries, predicate(ref)));
        } else if (op < shape.opClear) {
            std::vector<BlockId> a = idx.clear();
            std::vector<BlockId> b = ref.clear();
            std::sort(a.begin(), a.end());
            std::sort(b.begin(), b.end());
            ASSERT_EQ(a, b);
        } else {
            EvictionPolicy p = rng() % 2 ? EvictionPolicy::CostAware
                                         : EvictionPolicy::Lru;
            idx.setEvictionPolicy(p);
            ref.setEvictionPolicy(p);
        }
        expectSameState(idx, ref, shape.pool);
        if (::testing::Test::HasFailure())
            return;
        if (peak)
            *peak = std::max(*peak, idx.entries());
    }
}

struct Fixture
{
    sim::Simulation sim;
    hw::Gpu gpu{sim, 0, hw::a100_80g()};
};

} // anonymous namespace

TEST(PrefixIndexOrder, MatchesSortBasedReference)
{
    // Full keys, then narrow masks that force primary collisions and
    // partial/full aliasing under one key.
    for (std::uint64_t mask : {~std::uint64_t(0), std::uint64_t(0xff),
                               std::uint64_t(0x1f)}) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            runDifferential(seed, mask);
            if (HasFailure())
                return;
        }
    }
}

TEST(PrefixIndexOrder, LargeRunMatchesSortBasedReference)
{
    // Thousands of entries over a 4,096-block pool, so the slot table
    // doubles from 16 buckets many times and deletions shift probe
    // runs across its end. One op in 20 runs at an older tick; ticks
    // repeat across steps as in the short runs. Each mask starts once
    // per policy and switches policy now and then.
    DiffShape shape;
    shape.pool = 4096;
    shape.streams = 256;
    shape.steps = 20000;
    shape.forkSpan = 60;
    shape.maxBlocks = 24;
    shape.maxEvict = 24;
    shape.opRange = 1000;
    shape.opInsert = 450;
    shape.opLookup = 800;
    shape.opEvict = 980;
    shape.opClear = 981;
    shape.olderOneIn = 20;
    std::uint64_t seed = 0x1a7e;
    for (std::uint64_t mask : {~std::uint64_t(0), std::uint64_t(0xff),
                               std::uint64_t(0x1f)}) {
        for (EvictionPolicy policy :
             {EvictionPolicy::Lru, EvictionPolicy::CostAware}) {
            shape.startPolicy = policy;
            std::size_t peak = 0;
            runDifferential(++seed, mask, shape, &peak);
            if (HasFailure())
                return;
            // Past 1,024 entries the table has grown from 16 buckets
            // to at least 4,096.
            if (mask == ~std::uint64_t(0)) {
                EXPECT_GT(peak, 1024u);
            }
        }
    }
}

TEST(PrefixIndexOrder, TiedFullAndStalePartialEntriesEvictByKey)
{
    // Block 1 first holds a 4-token partial tail, then fills up and is
    // published again in the same tick: a full entry and a stale
    // partial entry on one block, tied on cost, last use and block id.
    TokenFn tok = stream(0x71e);
    TokenChain chain(tok, 16);
    RefIndex keys(16);
    std::uint64_t partialKey = keys.entryKey(tok, 20);
    std::uint64_t fullKey = keys.entryKey(tok, 32);
    ASSERT_LT(partialKey, fullKey); // the partial entry goes first

    for (EvictionPolicy policy :
         {EvictionPolicy::Lru, EvictionPolicy::CostAware}) {
        PrefixIndex idx(16);
        idx.setEvictionPolicy(policy);
        idx.insert(chain, 20, {0, 1}, 10);
        idx.insert(chain, 32, {0, 1}, 10);
        ASSERT_EQ(idx.entries(), 3u);
        ASSERT_EQ(idx.refsHeld(1), 2u);

        auto onlyBlock1 = [](BlockId b) { return b == 1; };
        EXPECT_EQ(idx.evictLru(1, onlyBlock1), std::vector<BlockId>{1});
        EXPECT_EQ(idx.lookup(chain, 20, 11, false).tokens, 16u);
        EXPECT_EQ(idx.lookup(chain, 32, 11, false).tokens, 32u);
        EXPECT_EQ(idx.evictLru(1, onlyBlock1), std::vector<BlockId>{1});
        EXPECT_EQ(idx.lookup(chain, 32, 11, false).tokens, 16u);
        EXPECT_EQ(idx.refsHeld(1), 0u);
    }

    // Through KvCache the block frees over two passes: after the first
    // entry goes, the block is not cache-only until evictCached drops
    // that entry's reference, so the sibling waits for the next pass.
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    auto owner = kv.allocateBlocks(2);
    ASSERT_TRUE(owner);
    BlockId b1 = (*owner)[1];
    kv.publishPrefix(chain, 20, *owner, 10);
    kv.publishPrefix(chain, 32, *owner, 10);
    kv.freeBlocks({b1}); // the owner keeps block 0 pinned in use
    ASSERT_EQ(kv.blockRefCount(b1), 2u);
    ASSERT_EQ(kv.evictableBlocks(), 1u);

    std::vector<BlockId> left;
    kv.setEvictionObserver([&](BlockId id) { left.push_back(id); });
    EXPECT_EQ(kv.evictCached(1), 1u);
    EXPECT_EQ(left, (std::vector<BlockId>{b1, b1}));
    EXPECT_EQ(kv.prefixStats().evictions, 2u);
    EXPECT_EQ(kv.blockRefCount(b1), 0u);
    EXPECT_EQ(kv.probePrefixBlocks(chain, 32), 1u);
}

TEST(PrefixIndexOrder, CostAwareHitMovesEntryBehindCheaperOnes)
{
    TokenChain a(stream(0xa1), 16);
    TokenChain b(stream(0xb2), 16);
    PrefixIndex idx(16);
    idx.setEvictionPolicy(EvictionPolicy::CostAware);
    idx.insert(a, 16, {0}, 1);
    idx.insert(b, 16, {1}, 2);
    // A hit makes A cost 1; re-publishing B only refreshes its stamp,
    // so B is now newer than A yet still costs 0.
    ASSERT_EQ(idx.lookup(a, 16, 3).tokens, 16u);
    idx.insert(b, 16, {1}, 4);

    auto any = [](BlockId) { return true; };
    EXPECT_EQ(idx.evictLru(1, any), std::vector<BlockId>{1});
    EXPECT_EQ(idx.evictLru(1, any), std::vector<BlockId>{0});
}

TEST(PrefixIndexOrder, PolicyChangeReranksExistingEntries)
{
    // Chain A: 3 blocks, hit twice, older than chain B (1 cold block).
    // Entries exist before the policy changes; the change re-ranks them.
    TokenChain a(stream(0xd1), 16);
    TokenChain b(stream(0xd2), 16);
    auto build = [&](KvCache &kv) {
        auto blocksA = kv.allocateBlocks(3);
        ASSERT_TRUE(blocksA);
        kv.publishPrefix(a, 48, *blocksA, 10);
        kv.freeBlocks(*blocksA);
        for (Tick t : {15, 20}) {
            KvCache::PrefixAcquire hit = kv.acquirePrefix(a, 48, t);
            ASSERT_EQ(hit.blocks.size(), 3u);
            kv.freeBlocks(hit.blocks);
        }
        auto blocksB = kv.allocateBlocks(1);
        ASSERT_TRUE(blocksB);
        kv.publishPrefix(b, 16, *blocksB, 30);
        kv.freeBlocks(*blocksB);
        ASSERT_EQ(kv.evictableBlocks(), 4u);
    };

    Fixture costF;
    KvCache cost(costF.gpu, model::codellama34b(), 1 * gib, 16);
    build(cost);
    cost.setEvictionPolicy(EvictionPolicy::CostAware);
    EXPECT_EQ(cost.evictCached(1), 1u);
    EXPECT_EQ(cost.probePrefixBlocks(a, 48), 3u);
    EXPECT_EQ(cost.probePrefixBlocks(b, 16), 0u);

    Fixture backF;
    KvCache back(backF.gpu, model::codellama34b(), 1 * gib, 16);
    back.setEvictionPolicy(EvictionPolicy::CostAware);
    build(back);
    back.setEvictionPolicy(EvictionPolicy::Lru);
    EXPECT_EQ(back.evictCached(1), 1u);
    EXPECT_LT(back.probePrefixBlocks(a, 48), 3u);
    EXPECT_EQ(back.probePrefixBlocks(b, 16), 1u);
}

TEST(PrefixIndexAlloc, RepublishingACachedChainAllocatesNothing)
{
    // Chat re-publishes each turn's whole history: once warm, the
    // refresh of an already cached chain re-ranks its entries in place.
    // Its blocks run high to low, so the refresh batch needs its sort,
    // and a second chain's refresh shares the tick, so the merge
    // interleaves the two.
    for (EvictionPolicy policy :
         {EvictionPolicy::Lru, EvictionPolicy::CostAware}) {
        SCOPED_TRACE(policy == EvictionPolicy::Lru ? "lru" : "cost");
        TokenChain a(stream(0xa1), 16);
        TokenChain b(stream(0xb2), 16);
        std::vector<BlockId> blocksA(63);
        std::vector<BlockId> blocksB(63);
        for (BlockId i = 0; i < 63; ++i) {
            blocksA[i] = 200 - 2 * i;
            blocksB[i] = 201 - 2 * i;
        }
        PrefixIndex idx(16);
        idx.setEvictionPolicy(policy);
        ASSERT_EQ(idx.insert(a, 1000, blocksA, 1).size(), 63u);
        ASSERT_EQ(idx.insert(b, 1000, blocksB, 1).size(), 63u);
        idx.insert(a, 1000, blocksA, 2); // sizes the refresh buffer
        idx.insert(b, 1000, blocksB, 3);

        std::size_t before = test::allocCount();
        std::vector<BlockId> newly = idx.insert(a, 1000, blocksA, 3);
        std::size_t allocs = test::allocCount() - before;
        EXPECT_TRUE(newly.empty());
        EXPECT_EQ(allocs, 0u);
        // Both chains now share tick 3: the lowest block goes first.
        auto any = [](BlockId) { return true; };
        EXPECT_EQ(idx.evictLru(1, any), std::vector<BlockId>{76});
    }
}

namespace {

/** @p length random content ids; reading past the end throws. */
TokenFn
randomStream(std::mt19937_64 &rng, std::uint64_t length)
{
    std::vector<std::uint64_t> content(length);
    for (std::uint64_t &c : content)
        c = rng();
    return [content = std::move(content)](std::uint64_t pos) {
        return content.at(pos);
    };
}

/** Every query of @p chain over its @p length tokens equals the
 *  unmemoized loops over @p tok. */
void
expectMatchesReference(const TokenChain &chain, const TokenFn &tok,
                       std::uint64_t length, std::mt19937_64 &rng)
{
    const std::uint32_t bt = chain.blockTokens();
    const std::uint64_t full = length / bt;
    RefIndex::Chain ref{RefIndex::kSeedKey, RefIndex::kSeedVerify};
    for (std::uint64_t b = 0; b <= full; ++b) {
        SCOPED_TRACE(::testing::Message() << "boundary " << b);
        if (b > 0)
            ref = RefIndex::extend(ref, tok, (b - 1) * bt, bt);
        ChainKeys keys = chain.keysAt(b);
        ASSERT_EQ(keys.key, ref.key);
        ASSERT_EQ(keys.verify, ref.verify);
        // Partial tails past the boundary, as far as the stream goes.
        std::uint64_t tail = std::min<std::uint64_t>(bt - 1, length - b * bt);
        for (std::uint32_t t = 0; t <= tail; ++t) {
            RefIndex::Chain want = RefIndex::extend(ref, tok, b * bt, t);
            ChainKeys got = chain.extend(b, t);
            ASSERT_EQ(got.key, want.key) << "tail " << t;
            ASSERT_EQ(got.verify, want.verify) << "tail " << t;
        }
        if (b < full) {
            ASSERT_EQ(chain.sig(b * bt, bt), RefIndex::sig(tok, b * bt, bt));
        }
    }
    for (std::uint64_t count = 0; count <= length; ++count)
        ASSERT_EQ(chain.sig(0, count), RefIndex::sig(tok, 0, count))
            << "prefix " << count;
    for (int i = 0; i < 32; ++i) {
        std::uint64_t first = rng() % length;
        std::uint64_t count = rng() % (length - first + 1);
        ASSERT_EQ(chain.sig(first, count), RefIndex::sig(tok, first, count))
            << "range " << first << "+" << count;
    }
}

} // anonymous namespace

TEST(TokenChain, MatchesUnmemoizedHashing)
{
    std::mt19937_64 rng(0x70c);
    for (std::uint32_t bt : {1u, 7u, 16u}) {
        // Whole blocks only, a partial tail, and a random length.
        for (std::uint64_t length :
             {std::uint64_t(bt) * 12, std::uint64_t(bt) * 12 + bt / 2,
              1 + rng() % (20 * std::uint64_t(bt))}) {
            SCOPED_TRACE(::testing::Message()
                         << "block " << bt << " length " << length);
            TokenFn tok = randomStream(rng, length);

            // Filled in one step by the deepest boundary.
            TokenChain once(tok, bt);
            once.keysAt(length / bt);
            EXPECT_EQ(once.memoBlocks(), length / bt);
            expectMatchesReference(once, tok, length, rng);

            // Filled by a whole-prefix signature first.
            TokenChain bySig(tok, bt);
            bySig.sig(0, length);
            expectMatchesReference(bySig, tok, length, rng);

            // Filled piecemeal: random boundaries, then block by block
            // (the reference walk), then again after a release.
            TokenChain piecemeal(tok, bt);
            for (int i = 0; i < 4; ++i)
                piecemeal.keysAt(rng() % (length / bt + 1));
            expectMatchesReference(piecemeal, tok, length, rng);
            piecemeal.release();
            EXPECT_EQ(piecemeal.memoBlocks(), 0u);
            expectMatchesReference(piecemeal, tok, length, rng);
            if (HasFailure())
                return;
        }
    }
}

TEST(TokenChain, PublishAndQueriesReadEachFullBlockTokenOnce)
{
    constexpr std::uint64_t kTokens = 1000; // 62 full blocks + 8
    std::vector<int> reads(kTokens, 0);
    TokenChain chain(
        [&reads](std::uint64_t pos) {
            ++reads.at(pos);
            return 0x5eed ^ (pos + 1);
        },
        16);
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    auto owner = kv.allocateBlocks(kv.blocksForTokens(kTokens));
    ASSERT_TRUE(owner);

    // Publish (per-block signatures and index entries), a lookup,
    // every boundary's keys and the whole-chain signature.
    kv.publishPrefix(chain, kTokens, *owner, 10);
    KvCache::PrefixAcquire acq = kv.acquirePrefix(chain, kTokens, 20);
    EXPECT_EQ(acq.tokens, kTokens);
    kv.freeBlocks(acq.blocks);
    for (std::size_t b = 1; b <= kTokens / 16; ++b)
        chain.keysAt(b);
    chain.sig(0, kTokens);

    // Full-block tokens were hashed once; only the partial tail is
    // re-read per query.
    for (std::uint64_t pos = 0; pos < kTokens / 16 * 16; ++pos)
        ASSERT_EQ(reads[pos], 1) << "token " << pos;
    EXPECT_EQ(chain.memoBlocks(), kTokens / 16);
    chain.release();
    EXPECT_EQ(chain.memoBlocks(), 0u);
}
