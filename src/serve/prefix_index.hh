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
 *
 * Entries live in a slot vector behind an open-addressed key -> slot
 * table (linear probing, backward-shift deletion). Under Lru the
 * victim order is an intrusive list over the slots; under CostAware it
 * is an ordered set of slot ids. See docs/prefix_caching.md.
 */
class PrefixIndex
{
  public:
    explicit PrefixIndex(std::uint32_t blockTokens);

    // The CostAware victim order reads the slot vector by address.
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

    /** Drop every entry. @return blocks to unref, one per entry, in
     *  victim order. */
    std::vector<aqua::mem::BlockId> clear();

    /** References the index holds on @p id (entries pointing at it). */
    std::uint32_t
    refsHeld(aqua::mem::BlockId id) const
    {
        return id < held.size() ? held[id] : 0;
    }

    /** Select the eviction victim ordering (default Lru); re-ranks
     *  the existing entries. */
    void setEvictionPolicy(EvictionPolicy policy);

    std::size_t entries() const { return live; }
    const PrefixIndexStats &stats() const { return counters; }

    /**
     * Test hook: mask applied to primary keys. A narrow mask forces
     * primary collisions so the verification-hash fallback can be
     * exercised deterministically.
     */
    void setPrimaryMask(std::uint64_t mask) { primaryMask = mask; }

  private:
    /** No slot: an empty table bucket, or the end of a list. */
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);
    /** prev of an Lru entry unlinked until the call's merge; a second
     *  touch in one call (only on a verification-hash collision) must
     *  not unlink it again. */
    static constexpr std::uint32_t kDetached = kNone - 1;

    struct Entry
    {
        std::uint64_t key = 0;
        /** Independent verification hash (collision fallback). */
        std::uint64_t verify = 0;
        aqua::sim::Tick lastUse = 0;
        /** Lookup hits served (CostAware scoring). */
        std::uint64_t uses = 0;
        aqua::mem::BlockId block = 0;
        /** Tokens the entry covers in its block (== blockTokens for
         *  full blocks, fewer for a partial tail; 0 = free slot). */
        std::uint32_t tokens = 0;
        /** Blocks from the chain root to this entry (1-based): the
         *  recompute depth a loss would cost (CostAware scoring). */
        std::uint32_t depth = 1;
        /** Lru list links; a free slot chains the free list through
         *  next. */
        std::uint32_t prev = kNone;
        std::uint32_t next = kNone;
    };

    struct Bucket
    {
        std::uint64_t key = 0;
        std::uint32_t slot = kNone;
    };

    /** An Lru entry touched or created in the current call. */
    struct Touched
    {
        aqua::mem::BlockId block;
        std::uint32_t slot;
        std::uint64_t key;
    };

    /** The Lru victim order: (last use, block, key). */
    static bool usedBefore(const Entry &a, const Entry &b);

    /** CostAware victim order over slot ids, first victim first. */
    struct CostOrder
    {
        const std::vector<Entry> *slots;
        bool operator()(std::uint32_t a, std::uint32_t b) const;
    };

    /** Panic unless @p chain is blocked like the index. */
    void checkBlockTokens(const TokenChain &chain) const;

    std::size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: narrow test masks leave keys unmixed.
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        tableShift);
    }

    /** Bucket holding @p key, or the empty bucket ending its probe. */
    std::size_t probe(std::uint64_t key) const;

    /** Double the table and re-place every live entry. */
    void grow();

    /** New entry in a free slot, indexed at bucket @p b (from probe)
     *  and ranked (Lru: at the end of the call, see mergeTouched). */
    void addEntry(std::size_t b, const Entry &e);

    /** Remove slot @p s (already out of the victim order) from the
     *  table and the held counts, and free it. */
    void dropEntry(std::uint32_t s);

    /** Record a use of slot @p s at @p now, re-ranking it (Lru: at
     *  the end of the call, see mergeTouched). */
    void touchEntry(std::uint32_t s, aqua::sim::Tick now, bool hit);

    /** Lru: merge the entries touched at @p now into the list. */
    void mergeTouched(aqua::sim::Tick now);

    void unlink(std::uint32_t s);
    /** Link slot @p s before slot @p at (kNone: at the tail). */
    void linkBefore(std::uint32_t s, std::uint32_t at);

    std::uint32_t blockTokens;
    std::uint64_t primaryMask = ~std::uint64_t(0);
    EvictionPolicy policy = EvictionPolicy::Lru;

    std::vector<Entry> slots;
    std::uint32_t freeHead = kNone;
    std::size_t live = 0;
    /** Power-of-two key -> slot table, at most half full. */
    std::vector<Bucket> table;
    unsigned tableShift = 64;

    /** Lru victim order: oldest first, by (last use, block, key). */
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    /** Reused per-call buffer of Lru touches. */
    std::vector<Touched> touched;
    /** CostAware victim order (empty under Lru). */
    std::set<std::uint32_t, CostOrder> costOrder{CostOrder{&slots}};

    /** Entries per block id (a block can back a full and a stale
     *  partial entry at once); one index reference per entry. */
    std::vector<std::uint32_t> held;
    PrefixIndexStats counters;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_PREFIX_INDEX_HH
