/**
 * @file
 * Paged KV-cache pool, vLLM style, with copy-on-write prefix sharing.
 *
 * The engine reserves (most of) the HBM left after weights as a pool
 * of fixed-size blocks; sequences borrow blocks as their KV grows.
 * AQUA producers donate by shrinking this pool — the engine copies
 * scattered live blocks aside so a contiguous region can be handed to
 * AQUA-LIB, mirroring §B.1's defragmentation trick — and grow it back
 * after a reclaim.
 *
 * A PrefixIndex keyed by rolling hashes over token-block chains lets a
 * new sequence whose prompt prefix is already resident reuse those
 * blocks (reference counted, copy-on-write). Cached blocks whose only
 * holder is the index are "evictable": the pool reclaims them LRU-first
 * when allocation, donation (shrink) or forking runs out of free
 * blocks, so caching never blocks admission or an AQUA donation.
 */

#ifndef AQUA_SERVE_KV_CACHE_HH
#define AQUA_SERVE_KV_CACHE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hw/gpu.hh"
#include "mem/block_allocator.hh"
#include "model/model_spec.hh"
#include "serve/prefix_index.hh"

namespace aqua::serve {

/** Where a cached block's KV content was materialised from. */
enum class BlockOrigin : std::uint8_t
{
    /** Prefilled locally (default). */
    Local,
    /** Streamed from a peer GPU's home replica over NVLink. */
    RemotePeer,
    /** Restored from a DRAM/offload backend on swap-in. */
    Dram,
    /** Streamed from another server's home copy over the
     *  inter-server fabric (prefix federation). */
    RemoteServer,
};

/**
 * Block-granular KV-cache pool bound to a GPU's HBM.
 */
class KvCache
{
  public:
    /**
     * @param gpu Owning GPU; the pool region is carved from its HBM.
     * @param model The served model (defines KV bytes per token).
     * @param poolBytes Bytes reserved for the pool.
     * @param blockTokens Tokens per block (vLLM default 16).
     */
    KvCache(hw::Gpu &gpu, const model::ModelSpec &model,
            std::uint64_t poolBytes, std::uint32_t blockTokens = 16);

    KvCache(const KvCache &) = delete;
    KvCache &operator=(const KvCache &) = delete;
    ~KvCache();

    std::uint64_t blockBytes() const { return blocks.blockSize(); }
    std::uint32_t tokensPerBlock() const { return blockTokens; }

    /** Current pool reservation in bytes. */
    std::uint64_t poolBytes() const { return reservedBytes; }

    std::uint64_t freeBytes() const { return blocks.freeBytes(); }
    std::uint64_t usedBytes() const { return blocks.usedBytes(); }
    std::size_t freeBlocks() const { return blocks.freeBlocks(); }
    std::size_t totalBlocks() const { return blocks.totalBlocks(); }

    /** Blocks needed to hold a sequence of @p tokens tokens. */
    std::size_t
    blocksForTokens(std::uint64_t tokens) const
    {
        return (tokens + blockTokens - 1) / blockTokens;
    }

    /** KV bytes of a sequence of @p tokens tokens (exact, unpadded). */
    std::uint64_t
    kvBytes(std::uint64_t tokens) const
    {
        return tokens * tokenBytes;
    }

    /** Free plus cache-evictable blocks (admission headroom). Pinned
     *  blocks are excluded: a block pinned by a remote read lease
     *  cannot be reclaimed yet. */
    std::size_t
    availableBlocks() const
    {
        return blocks.freeBlocks() + numEvictable;
    }

    /**
     * Allocate @p count blocks, evicting LRU cached prefixes if the
     * free list alone cannot satisfy the request; nullopt when even
     * eviction cannot make room.
     */
    std::optional<std::vector<aqua::mem::BlockId>>
    allocateBlocks(std::size_t count);

    /** Allocate one block, under allocateBlocks()' eviction rule. */
    std::optional<aqua::mem::BlockId> allocateBlock();

    /** Drop one reference per block (pool reclaims at refcount 0). */
    void freeBlocks(const std::vector<aqua::mem::BlockId> &ids);

    /**
     * Donate pool memory: shrink the reservation by up to @p bytes
     * (rounded down to whole free blocks) and release the HBM. Cached
     * prefix blocks are evicted as needed; blocks shared with live
     * borrowers are never donated.
     *
     * @return Bytes actually released.
     */
    std::uint64_t shrink(std::uint64_t bytes);

    /**
     * Grow the pool by @p bytes (e.g. after AQUA returns a lease).
     * Panics if the HBM region cannot be re-acquired — the caller
     * must release the lease region first.
     */
    void grow(std::uint64_t bytes);

    //
    // Prefix caching and copy-on-write sharing.
    //

    /** Result of acquirePrefix: the index match, with one reference
     *  per matched block taken for the caller. */
    using PrefixAcquire = PrefixIndex::Match;

    /**
     * Borrow the longest cached chain matching @p chain (capped at
     * @p maxTokens). One reference per matched block is taken for the
     * caller; release with freeBlocks().
     */
    PrefixAcquire acquirePrefix(const TokenChain &chain,
                                std::uint64_t maxTokens,
                                aqua::sim::Tick now);

    /**
     * Read-only probe: full blocks a matching sequence could reuse
     * right now. Does not touch LRU state or hit/miss counters; used
     * by scheduler admission accounting.
     */
    std::size_t probePrefixBlocks(const TokenChain &chain,
                                  std::uint64_t maxTokens) const;

    /**
     * Publish a sequence's blocks (holding tokens [0, tokens) of
     * @p chain) into the prefix index and refresh their content
     * signatures. The index takes its own reference on each newly
     * indexed block, which keeps the chain resident (and shareable)
     * after the owning sequence releases its blocks.
     *
     * @param insertTokens Cap on tokens actually indexed (signatures
     *        still cover all of @p tokens). Lets an engine that is a
     *        cluster *replica* for the chain's tail refresh signatures
     *        without retaining a duplicate resident copy.
     */
    void publishPrefix(const TokenChain &chain, std::uint64_t tokens,
                       const std::vector<aqua::mem::BlockId> &blockIds,
                       aqua::sim::Tick now,
                       std::uint64_t insertTokens = ~std::uint64_t(0));

    /**
     * Copy-on-write fork: allocate a private copy of @p shared (same
     * content signature), dropping the caller's reference on the
     * original. nullopt when the pool is exhausted even after cache
     * eviction — the caller still holds its original reference then.
     */
    std::optional<aqua::mem::BlockId> forkBlock(aqua::mem::BlockId shared);

    /** References held on a block (sequences + index). */
    std::uint32_t
    blockRefCount(aqua::mem::BlockId id) const
    {
        return blocks.refCount(id);
    }

    /** Select the prefix-cache eviction policy (default Lru). */
    void
    setEvictionPolicy(EvictionPolicy policy)
    {
        index.setEvictionPolicy(policy);
    }

    //
    // Pins (lease-held blocks) and block origins.
    //

    /**
     * Pin a block: it stays resident even when cache-only, is never
     * counted as admission headroom and is never evicted or donated.
     * Pins nest (counted); used by cluster registry read leases on
     * home chains.
     */
    void pinBlock(aqua::mem::BlockId id);
    void unpinBlock(aqua::mem::BlockId id);
    bool
    blockPinned(aqua::mem::BlockId id) const
    {
        return id < pinCounts.size() && pinCounts[id] > 0;
    }
    /** Blocks with at least one pin. */
    std::size_t pinnedBlocks() const { return numPinned; }

    /** Record where a block's content came from (default Local). */
    void setBlockOrigin(aqua::mem::BlockId id, BlockOrigin origin);
    BlockOrigin blockOrigin(aqua::mem::BlockId id) const;

    /**
     * Observer invoked whenever a cache-held block leaves the prefix
     * index (eviction, cap enforcement, dropCache). Engines use it to
     * notify the cluster registry that a home chain lost a block.
     */
    void
    setEvictionObserver(std::function<void(aqua::mem::BlockId)> fn)
    {
        evictionObserver = std::move(fn);
    }

    /** Evict up to @p want cache-only blocks (LRU). @return evicted. */
    std::size_t evictCached(std::size_t want);

    /** Drop the whole prefix cache. @return blocks released. */
    std::size_t dropCache();

    /** Blocks held only by the index (reclaimable on demand). */
    std::size_t evictableBlocks() const { return numEvictable; }

    /**
     * Cap the prefix cache's share of the pool: at most
     * share * totalBlocks() blocks may be cache-only (held by the
     * index alone). Publishing or releasing past the cap evicts LRU
     * cached chains immediately, bounding how much of the pool cache
     * retention can occupy. 1.0 (default) disables the cap.
     */
    void
    setMaxCacheShare(double share)
    {
        cacheShare = share < 0.0 ? 0.0 : (share > 1.0 ? 1.0 : share);
        enforceCacheCap();
    }
    double maxCacheShare() const { return cacheShare; }

    /** Current cache-only block cap under maxCacheShare. */
    std::size_t
    cacheBlockCap() const
    {
        if (cacheShare >= 1.0)
            return totalBlocks();
        return static_cast<std::size_t>(
            cacheShare * static_cast<double>(totalBlocks()));
    }

    /** Bytes backing live sequences (used minus cache-only blocks). */
    std::uint64_t
    liveKvBytes() const
    {
        return usedBytes() - numEvictable * blockBytes();
    }

    /** High-water mark of liveKvBytes() over the cache's lifetime. */
    std::uint64_t peakLiveKvBytes() const { return peakLive; }

    //
    // Content signatures (TokenChain::sig values; byte-identity checks
    // across offload paths).
    //

    void setBlockSig(aqua::mem::BlockId id, std::uint64_t sig);
    std::uint64_t blockSig(aqua::mem::BlockId id) const;

    const PrefixIndexStats &prefixStats() const { return index.stats(); }

    /** Test hook: the underlying index (e.g. to force collisions). */
    PrefixIndex &prefixIndex() { return index; }

  private:
    /** Re-acquire the backing HBM region for the current size. */
    void reacquireRegion(std::uint64_t newBytes);

    /** Recompute a block's cache-only status after a ref change. */
    void updateEvictable(aqua::mem::BlockId id);

    /** Evict LRU cached chains until numEvictable <= cacheBlockCap(). */
    void enforceCacheCap();

    /** Whether only the index holds @p id. */
    bool
    cacheOnly(aqua::mem::BlockId id) const
    {
        std::uint32_t h = index.refsHeld(id);
        return h > 0 && blocks.refCount(id) == h;
    }

    /** Track the live-bytes high-water mark. */
    void notePeak();

    /** Evict LRU cached prefixes until @p count blocks are free, or
     *  the cache has nothing left to give. */
    void makeRoom(std::size_t count);

    /** Start freshly allocated blocks' lives as locally computed KV
     *  and track the live-bytes peak. */
    void claimFresh(std::span<const aqua::mem::BlockId> ids);

    hw::Gpu &gpu;
    std::uint32_t blockTokens;
    /** KV bytes per token at the model's serving precision — the one
     *  sizing figure both block math and transfer math (kvBytes())
     *  derive from. */
    std::uint64_t tokenBytes;
    std::uint64_t reservedBytes;
    std::optional<aqua::mem::Region> region;
    aqua::mem::BlockAllocator blocks;
    /** mutable: read-only probes share the lookup path. */
    mutable PrefixIndex index;
    std::vector<bool> evictableFlag;
    std::size_t numEvictable = 0;
    std::vector<std::uint32_t> pinCounts;
    std::size_t numPinned = 0;
    std::vector<std::uint8_t> origins;
    std::function<void(aqua::mem::BlockId)> evictionObserver;
    /** Cache-only share cap (fraction of totalBlocks; 1.0 = off). */
    double cacheShare = 1.0;
    std::uint64_t peakLive = 0;
    std::vector<std::uint64_t> sigs;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_KV_CACHE_HH
