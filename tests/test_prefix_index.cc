/**
 * @file
 * Tests for the prefix index's victim order: a differential property
 * test against the sort-based selection it replaced, the key
 * tie-break between a full and a stale partial entry on one block,
 * and re-ranking on lookup hits and policy changes.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

using namespace aqua;
using namespace aqua::serve;
using aqua::mem::BlockId;
using aqua::sim::gib;
using aqua::sim::Tick;

namespace {

/**
 * Reference index: the sort-based PrefixIndex the incremental victim
 * order replaced, with the key as the last tie-break. Same hashing and
 * entry bookkeeping; every eviction copies all keys and sorts them.
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
        auto it = held.find(id);
        return it == held.end() ? 0 : it->second;
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
        std::vector<std::uint64_t> keys;
        keys.reserve(map.size());
        for (const auto &[key, e] : map)
            keys.push_back(key);
        std::sort(keys.begin(), keys.end(),
                  [this](std::uint64_t a, std::uint64_t b) {
                      const Entry &ea = map.find(a)->second;
                      const Entry &eb = map.find(b)->second;
                      if (eviction == EvictionPolicy::CostAware) {
                          std::uint64_t ca = ea.depth * ea.uses;
                          std::uint64_t cb = eb.depth * eb.uses;
                          if (ca != cb)
                              return ca < cb;
                      }
                      if (ea.lastUse != eb.lastUse)
                          return ea.lastUse < eb.lastUse;
                      if (ea.block != eb.block)
                          return ea.block < eb.block;
                      return a < b;
                  });
        for (std::uint64_t key : keys) {
            if (out.size() >= maxEntries)
                break;
            auto it = map.find(key);
            BlockId block = it->second.block;
            if (!evictable(block))
                continue;
            map.erase(it);
            auto h = held.find(block);
            if (h != held.end() && --h->second == 0)
                held.erase(h);
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
        held.clear();
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

    std::uint32_t blockTokens;
    EvictionPolicy eviction = EvictionPolicy::Lru;
    std::uint64_t primaryMask = ~std::uint64_t(0);
    std::unordered_map<std::uint64_t, Entry> map;
    std::unordered_map<BlockId, std::uint32_t> held;
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
    for (BlockId id = 0; id < pool; ++id)
        ASSERT_EQ(idx.refsHeld(id), ref.refsHeld(id)) << "block " << id;
}

/** One seeded random run of both indexes, compared after every step;
 *  stops at the first divergence. */
void
runDifferential(std::uint64_t seed, std::uint64_t mask)
{
    constexpr std::uint32_t kBlockTokens = 4;
    constexpr BlockId kPool = 40;
    constexpr int kStreams = 10;
    constexpr int kSteps = 400;

    std::mt19937_64 rng(seed);
    std::vector<TokenFn> streams;
    for (int s = 0; s < kStreams; ++s) {
        // Three chain roots; streams fork off them at mixed depths,
        // some mid-block, so chains share full and partial blocks.
        streams.push_back(forkedStream(0x1000 + rng() % 3, rng() % 20,
                                       0x2000 + std::uint64_t(s)));
    }

    PrefixIndex idx(kBlockTokens);
    RefIndex ref(kBlockTokens);
    idx.setPrimaryMask(mask);
    ref.setPrimaryMask(mask);
    Tick now = 0;

    for (int step = 0; step < kSteps; ++step) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " mask "
                                          << mask << " step " << step);
        now += rng() % 2; // equal stamps are common: ties get exercised
        const TokenFn &tok = streams[rng() % kStreams];
        std::uint64_t op = rng() % 100;
        if (op < 35) {
            std::uint64_t tokens = 1 + rng() % (6 * kBlockTokens);
            std::vector<BlockId> blocks(
                (tokens + kBlockTokens - 1) / kBlockTokens);
            for (BlockId &b : blocks)
                b = static_cast<BlockId>(rng() % kPool);
            ASSERT_EQ(idx.insert(tok, tokens, blocks, now),
                      ref.insert(tok, tokens, blocks, now));
        } else if (op < 70) {
            std::uint64_t maxTokens = rng() % (7 * kBlockTokens);
            bool touch = rng() % 2 == 0;
            PrefixIndex::Match a = idx.lookup(tok, maxTokens, now, touch);
            PrefixIndex::Match b = ref.lookup(tok, maxTokens, now, touch);
            ASSERT_EQ(a.blocks, b.blocks);
            ASSERT_EQ(a.tokens, b.tokens);
            ASSERT_EQ(a.partialTokens, b.partialTokens);
        } else if (op < 90) {
            std::size_t maxEntries = rng() % 6;
            std::uint64_t allowed = rng();
            bool refAware = rng() % 2 == 0;
            // Either a fixed per-block mask, or KvCache's shape: a
            // block is evictable while no entry on it has been evicted
            // in this call (its other references are not yet dropped).
            auto predicate = [&](auto &side) {
                std::vector<std::uint32_t> before(kPool);
                for (BlockId id = 0; id < kPool; ++id)
                    before[id] = side.refsHeld(id);
                return [&side, before, allowed, refAware](BlockId b) {
                    if (!((allowed >> b) & 1))
                        return false;
                    return !refAware || side.refsHeld(b) == before[b];
                };
            };
            ASSERT_EQ(idx.evictLru(maxEntries, predicate(idx)),
                      ref.evictLru(maxEntries, predicate(ref)));
        } else if (op < 92) {
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
        expectSameState(idx, ref, kPool);
        if (::testing::Test::HasFailure())
            return;
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

TEST(PrefixIndexOrder, TiedFullAndStalePartialEntriesEvictByKey)
{
    // Block 1 first holds a 4-token partial tail, then fills up and is
    // published again in the same tick: a full entry and a stale
    // partial entry on one block, tied on cost, last use and block id.
    TokenFn tok = stream(0x71e);
    RefIndex keys(16);
    std::uint64_t partialKey = keys.entryKey(tok, 20);
    std::uint64_t fullKey = keys.entryKey(tok, 32);
    ASSERT_LT(partialKey, fullKey); // the partial entry goes first

    for (EvictionPolicy policy :
         {EvictionPolicy::Lru, EvictionPolicy::CostAware}) {
        PrefixIndex idx(16);
        idx.setEvictionPolicy(policy);
        idx.insert(tok, 20, {0, 1}, 10);
        idx.insert(tok, 32, {0, 1}, 10);
        ASSERT_EQ(idx.entries(), 3u);
        ASSERT_EQ(idx.refsHeld(1), 2u);

        auto onlyBlock1 = [](BlockId b) { return b == 1; };
        EXPECT_EQ(idx.evictLru(1, onlyBlock1), std::vector<BlockId>{1});
        EXPECT_EQ(idx.lookup(tok, 20, 11, false).tokens, 16u);
        EXPECT_EQ(idx.lookup(tok, 32, 11, false).tokens, 32u);
        EXPECT_EQ(idx.evictLru(1, onlyBlock1), std::vector<BlockId>{1});
        EXPECT_EQ(idx.lookup(tok, 32, 11, false).tokens, 16u);
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
    kv.publishPrefix(tok, 20, *owner, 10);
    kv.publishPrefix(tok, 32, *owner, 10);
    kv.freeBlocks({b1}); // the owner keeps block 0 pinned in use
    ASSERT_EQ(kv.blockRefCount(b1), 2u);
    ASSERT_EQ(kv.evictableBlocks(), 1u);

    std::vector<BlockId> left;
    kv.setEvictionObserver([&](BlockId id) { left.push_back(id); });
    EXPECT_EQ(kv.evictCached(1), 1u);
    EXPECT_EQ(left, (std::vector<BlockId>{b1, b1}));
    EXPECT_EQ(kv.prefixStats().evictions, 2u);
    EXPECT_EQ(kv.blockRefCount(b1), 0u);
    EXPECT_EQ(kv.probePrefixBlocks(tok, 32), 1u);
}

TEST(PrefixIndexOrder, CostAwareHitMovesEntryBehindCheaperOnes)
{
    TokenFn a = stream(0xa1);
    TokenFn b = stream(0xb2);
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
    TokenFn a = stream(0xd1);
    TokenFn b = stream(0xd2);
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
