/**
 * @file
 * Hash-based prefix index for copy-on-write KV block sharing.
 *
 * vLLM-style automatic prefix caching: the KV blocks of a sequence are
 * keyed by a rolling hash over the token-content chain they hold, so a
 * new sequence whose prompt shares a prefix with cached state reuses
 * the resident blocks instead of recomputing (and re-writing) their KV.
 * Full blocks are keyed by the chain hash up to and including the
 * block; a partially filled tail block gets its own entry keyed by the
 * chain plus the partial content and length, and is shared
 * copy-on-write (a borrower forks the block before appending).
 *
 * Every entry carries a second, independently seeded verification hash;
 * a primary-key hit whose verification hash mismatches is treated as a
 * miss (hash-collision fallback), never as a false share.
 */

#ifndef AQUA_SERVE_PREFIX_INDEX_HH
#define AQUA_SERVE_PREFIX_INDEX_HH

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <vector>

#include "mem/block_allocator.hh"
#include "sim/ticks.hh"
#include "workload/request.hh"

namespace aqua::serve {

/** Content id of the token at a position of a sequence's stream. */
using TokenFn = std::function<std::uint64_t(std::uint64_t)>;

/** Token function for a request (simulated token contents). */
TokenFn tokenFnFor(const workload::Request &request);

/** Primary + verification hash of one chain boundary. */
struct ChainKeys
{
    std::uint64_t key = 0;
    std::uint64_t verify = 0;
};

/**
 * One sequence's token stream with a memo of its full-block hashes.
 *
 * Each full block's chain keys (primary and verification), the FNV-1a
 * content signature of the whole prefix up to it, and the signature of
 * the block alone are computed the first time any boundary at or past
 * it is asked for, then read from the memo: a sequence's tokens are
 * hashed once however often admission, publishing and the cluster
 * paths query it. Token contents are a pure function of position, so
 * the memo never goes stale; release() frees it and later queries
 * refill it. Partial tails are hashed token by token on every query.
 */
class TokenChain
{
  public:
    /** An empty chain; assign a real one before querying it. */
    TokenChain() = default;
    TokenChain(TokenFn tok, std::uint32_t blockTokens);

    std::uint32_t blockTokens() const { return perBlock; }

    /** Both chain hashes over the first @p fullBlocks blocks (the
     *  chain seeds when zero). */
    ChainKeys
    keysAt(std::size_t fullBlocks) const
    {
        if (fullBlocks == 0)
            return seedKeys();
        const Block &b = block(fullBlocks - 1);
        return {b.key, b.verify};
    }

    /** Both chain hashes over the first @p fullBlocks blocks extended
     *  by the next @p count tokens (not memoized). */
    ChainKeys extend(std::size_t fullBlocks, std::uint32_t count) const;

    /** FNV-1a over the content ids of tokens [first, first + count).
     *  Prefixes (first == 0) and single full blocks read the memo; a
     *  prefix's partial tail and any other range are hashed here. */
    std::uint64_t sig(std::uint64_t first, std::uint64_t count) const;

    /** Full blocks memoized so far. */
    std::size_t memoBlocks() const { return memo.size(); }

    /** Free the memo (a finished sequence keeps its chain object). */
    void release();

  private:
    struct Block
    {
        std::uint64_t key;
        std::uint64_t verify;
        /** FNV-1a state over tokens [0, end of this block). */
        std::uint64_t prefixSig;
        /** FNV-1a over this block's tokens alone. */
        std::uint64_t blockSig;
    };

    /** Memo entry of block @p i, filling the memo up to it. */
    const Block &
    block(std::size_t i) const
    {
        if (i >= memo.size())
            fill(i);
        return memo[i];
    }

    /** Extend the memo through block @p last. */
    void fill(std::size_t last) const;

    static ChainKeys seedKeys();

    TokenFn tok;
    std::uint32_t perBlock = 0;
    mutable std::vector<Block> memo;
};

/**
 * How the index picks eviction victims.
 */
enum class EvictionPolicy
{
    /** Strict least-recently-used (default). */
    Lru,
    /** Cheapest-to-lose first: score = chain depth x hit count, so a
     *  deep, frequently reused chain (an expensive recompute) outlives
     *  a shallow or cold one even when recently touched. */
    CostAware,
};

/** Counters kept by the index (block granularity). */
struct PrefixIndexStats
{
    /** Full blocks served from cache by lookups. */
    std::uint64_t hits = 0;
    /** Full blocks a lookup wanted but the index could not serve. */
    std::uint64_t misses = 0;
    /** Partial tail blocks served (copy-on-write shares). */
    std::uint64_t partialHits = 0;
    /** Primary-key hits rejected by the verification hash. */
    std::uint64_t collisions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * Maps token-chain hashes to resident KV blocks.
 *
 * The index stores block ids only; reference counting lives in the
 * owning KvCache, which takes one reference per entry it publishes and
 * drops it when the entry is evicted.
 */
class PrefixIndex
{
  public:
    explicit PrefixIndex(std::uint32_t blockTokens);

    // The victim order points into the entry map's nodes.
    PrefixIndex(const PrefixIndex &) = delete;
    PrefixIndex &operator=(const PrefixIndex &) = delete;

    /** Result of a lookup. */
    struct Match
    {
        /** Matched blocks, chain order (full blocks, then at most one
         *  partial tail). No references are taken. */
        std::vector<aqua::mem::BlockId> blocks;
        /** Tokens covered by the match. */
        std::uint64_t tokens = 0;
        /** Tokens in the trailing partial block (0 = all full). */
        std::uint32_t partialTokens = 0;
    };

    /**
     * Longest cached chain matching @p chain, capped at @p maxTokens.
     *
     * @param touch Update LRU stamps and hit/miss counters; pass false
     *              for read-only probes (admission accounting).
     */
    Match lookup(const TokenChain &chain, std::uint64_t maxTokens,
                 aqua::sim::Tick now, bool touch = true);

    /**
     * Register @p blocks as holding tokens [0, tokens) of @p chain's
     * stream. Existing entries are refreshed, not replaced.
     *
     * @return Blocks newly referenced by the index, one per new entry
     *         (the caller should take a reference on each).
     */
    std::vector<aqua::mem::BlockId>
    insert(const TokenChain &chain, std::uint64_t tokens,
           const std::vector<aqua::mem::BlockId> &blocks,
           aqua::sim::Tick now);

    /**
     * Evict up to @p maxEntries entries, first in victim order, whose
     * block satisfies @p evictable (typically: no borrower besides the
     * index). Victim order is cost (CostAware only), then last use,
     * then block id, then key; @p evictable is re-checked per entry,
     * after the evictions before it.
     *
     * @return The evicted entries' blocks (the caller drops one
     *         reference per returned element).
     */
    std::vector<aqua::mem::BlockId>
    evictLru(std::size_t maxEntries,
             const std::function<bool(aqua::mem::BlockId)> &evictable);

    /** Drop every entry. @return blocks to unref, one per entry. */
    std::vector<aqua::mem::BlockId> clear();

    /** References the index holds on @p id (entries pointing at it). */
    std::uint32_t refsHeld(aqua::mem::BlockId id) const;

    /** Select the eviction victim ordering (default Lru); re-ranks
     *  the existing entries. */
    void setEvictionPolicy(EvictionPolicy policy);
    EvictionPolicy evictionPolicy() const { return order.key_comp().policy; }

    std::size_t entries() const { return map.size(); }
    const PrefixIndexStats &stats() const { return counters; }

    /**
     * Test hook: mask applied to primary keys. A narrow mask forces
     * primary collisions so the verification-hash fallback can be
     * exercised deterministically.
     */
    void setPrimaryMask(std::uint64_t mask) { primaryMask = mask; }

  private:
    struct Entry
    {
        aqua::mem::BlockId block = 0;
        /** Independent verification hash (collision fallback). */
        std::uint64_t verify = 0;
        /** Tokens the entry covers in its block (== blockTokens for
         *  full blocks, fewer for a partial tail). */
        std::uint32_t tokens = 0;
        aqua::sim::Tick lastUse = 0;
        /** Blocks from the chain root to this entry (1-based): the
         *  recompute depth a loss would cost (CostAware scoring). */
        std::uint32_t depth = 1;
        /** Lookup hits served (CostAware scoring). */
        std::uint64_t uses = 0;
    };

    /** Panic unless @p chain is blocked like the index. */
    void checkBlockTokens(const TokenChain &chain) const;

    using Map = std::unordered_map<std::uint64_t, Entry>;
    using Node = Map::value_type;

    /** Victim order over map nodes, first victim first. */
    struct VictimOrder
    {
        EvictionPolicy policy;
        bool operator()(const Node *a, const Node *b) const;
    };

    /** Record a use of @p node at @p now, re-ranking it. */
    void touchEntry(Node &node, aqua::sim::Tick now, bool hit);

    std::uint32_t blockTokens;
    std::uint64_t primaryMask = ~std::uint64_t(0);
    Map map;
    /** Every map node, kept in victim order as entries change. Node
     *  pointers of an unordered_map survive rehashing. */
    std::set<const Node *, VictimOrder> order{
        VictimOrder{EvictionPolicy::Lru}};
    /** Entries per block (a block can back a full and a stale partial
     *  entry at once); one index reference is held per entry. */
    std::unordered_map<aqua::mem::BlockId, std::uint32_t> held;
    PrefixIndexStats counters;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_PREFIX_INDEX_HH
