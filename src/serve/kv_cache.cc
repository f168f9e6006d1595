#include "serve/kv_cache.hh"

#include "sim/logging.hh"

namespace aqua::serve {

using aqua::mem::BlockId;
using aqua::sim::panic;

namespace {

/**
 * The one precision-aware sizing helper: bytes per token at the
 * model's serving precision. Block sizing and transfer sizing both
 * derive from this so they can never drift apart.
 */
std::uint64_t
tokenBytesFor(const model::ModelSpec &model)
{
    if (!model.isText())
        panic("KvCache: %s is not a text model", model.name.c_str());
    return model.kvBytesPerToken();
}

} // anonymous namespace

KvCache::KvCache(hw::Gpu &gpu, const model::ModelSpec &model,
                 std::uint64_t poolBytes, std::uint32_t blockTokens)
    : gpu(gpu), blockTokens(blockTokens),
      tokenBytes(tokenBytesFor(model)), reservedBytes(poolBytes),
      blocks(poolBytes,
             static_cast<std::uint64_t>(blockTokens) * tokenBytes),
      index(blockTokens)
{
    region = gpu.hbm().allocate(poolBytes);
    if (!region) {
        panic("KvCache: cannot reserve %llu bytes of HBM on %s",
              static_cast<unsigned long long>(poolBytes),
              gpu.name().c_str());
    }
}

KvCache::~KvCache()
{
    if (region)
        gpu.hbm().free(*region);
}

void
KvCache::updateEvictable(BlockId id)
{
    if (evictableFlag.size() <= id)
        evictableFlag.resize(id + 1, false);
    // Pinned blocks are lease-held by a remote reader: not headroom,
    // not eviction victims.
    bool now = cacheOnly(id) && !blockPinned(id);
    if (now == static_cast<bool>(evictableFlag[id]))
        return;
    evictableFlag[id] = now;
    if (now)
        ++numEvictable;
    else
        --numEvictable;
}

void
KvCache::notePeak()
{
    std::uint64_t live = liveKvBytes();
    if (live > peakLive)
        peakLive = live;
}

void
KvCache::makeRoom(std::size_t count)
{
    if (blocks.freeBlocks() < count)
        evictCached(count - blocks.freeBlocks());
}

void
KvCache::claimFresh(std::span<const BlockId> ids)
{
    // A reused block starts a fresh life as locally computed KV.
    for (BlockId id : ids)
        setBlockOrigin(id, BlockOrigin::Local);
    notePeak();
}

std::optional<std::vector<BlockId>>
KvCache::allocateBlocks(std::size_t count)
{
    makeRoom(count);
    auto out = blocks.allocateMany(count);
    if (out)
        claimFresh(*out);
    return out;
}

std::optional<BlockId>
KvCache::allocateBlock()
{
    makeRoom(1);
    std::optional<BlockId> id = blocks.allocate();
    if (id)
        claimFresh({&*id, 1});
    return id;
}

void
KvCache::pinBlock(BlockId id)
{
    if (pinCounts.size() <= id)
        pinCounts.resize(id + 1, 0);
    if (pinCounts[id]++ == 0)
        ++numPinned;
    updateEvictable(id);
}

void
KvCache::unpinBlock(BlockId id)
{
    if (id >= pinCounts.size() || pinCounts[id] == 0)
        return;
    if (--pinCounts[id] == 0)
        --numPinned;
    updateEvictable(id);
}

void
KvCache::setBlockOrigin(BlockId id, BlockOrigin origin)
{
    if (origins.size() <= id)
        origins.resize(id + 1,
                       static_cast<std::uint8_t>(BlockOrigin::Local));
    origins[id] = static_cast<std::uint8_t>(origin);
}

BlockOrigin
KvCache::blockOrigin(BlockId id) const
{
    return id < origins.size() ? static_cast<BlockOrigin>(origins[id])
                               : BlockOrigin::Local;
}

void
KvCache::freeBlocks(const std::vector<BlockId> &ids)
{
    blocks.freeMany(ids);
    for (BlockId id : ids)
        updateEvictable(id);
    // A release can turn index-shared blocks cache-only; keep the
    // cache's pool share within its configured cap.
    enforceCacheCap();
}

void
KvCache::enforceCacheCap()
{
    if (cacheShare >= 1.0)
        return;
    std::size_t cap = cacheBlockCap();
    while (numEvictable > cap) {
        if (evictCached(numEvictable - cap) == 0)
            break;
    }
}

void
KvCache::reacquireRegion(std::uint64_t newBytes)
{
    // Addresses are simulated, so "moving" the pool is free; what
    // matters is that the HBM allocator sees the right reservation.
    if (region)
        gpu.hbm().free(*region);
    region.reset();
    if (newBytes > 0) {
        region = gpu.hbm().allocate(newBytes);
        if (!region) {
            panic("KvCache: failed to re-reserve %llu bytes on %s",
                  static_cast<unsigned long long>(newBytes),
                  gpu.name().c_str());
        }
    }
    reservedBytes = newBytes;
}

std::uint64_t
KvCache::shrink(std::uint64_t bytes)
{
    std::size_t want = static_cast<std::size_t>(bytes / blockBytes());
    // Cached (index-only) blocks count as donatable: evict them first
    // so a donation is never refused because of cache retention.
    makeRoom(want);
    std::size_t got = blocks.retire(want);
    if (got == 0)
        return 0;
    std::uint64_t released = got * blockBytes();
    reacquireRegion(reservedBytes - released);
    return released;
}

void
KvCache::grow(std::uint64_t bytes)
{
    std::size_t count = static_cast<std::size_t>(bytes / blockBytes());
    if (count == 0)
        return;
    std::size_t restored = blocks.restore(count);
    if (restored < count) {
        panic("KvCache::grow: asked for %zu blocks but only %zu were "
              "donated away", count, restored);
    }
    reacquireRegion(reservedBytes + count * blockBytes());
}

KvCache::PrefixAcquire
KvCache::acquirePrefix(const TokenChain &chain, std::uint64_t maxTokens,
                       aqua::sim::Tick now)
{
    PrefixIndex::Match m = index.lookup(chain, maxTokens, now);
    for (BlockId id : m.blocks) {
        blocks.ref(id);
        updateEvictable(id);
    }
    // Borrowing cache-only blocks turns them live again.
    notePeak();
    return m;
}

std::size_t
KvCache::probePrefixBlocks(const TokenChain &chain,
                           std::uint64_t maxTokens) const
{
    PrefixIndex::Match m =
        index.lookup(chain, maxTokens, 0, /*touch=*/false);
    // Only full blocks count toward admission savings: a partial tail
    // still forces the borrower to fork a private copy.
    return m.blocks.size() - (m.partialTokens > 0 ? 1 : 0);
}

void
KvCache::publishPrefix(const TokenChain &chain, std::uint64_t tokens,
                       const std::vector<BlockId> &blockIds,
                       aqua::sim::Tick now, std::uint64_t insertTokens)
{
    // Refresh content signatures for every covered block so offload
    // round trips can be checked for byte identity.
    std::uint64_t covered = std::min<std::uint64_t>(
        tokens, blockIds.size() * std::uint64_t(blockTokens));
    for (std::size_t i = 0; i * blockTokens < covered; ++i) {
        std::uint64_t first = i * std::uint64_t(blockTokens);
        auto count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(blockTokens, covered - first));
        setBlockSig(blockIds[i], chain.sig(first, count));
    }
    std::uint64_t indexed = std::min(covered, insertTokens);
    if (indexed == 0)
        return;
    std::vector<BlockId> newly =
        index.insert(chain, indexed, blockIds, now);
    for (BlockId id : newly) {
        blocks.ref(id);
        updateEvictable(id);
    }
    enforceCacheCap();
}

std::optional<BlockId>
KvCache::forkBlock(BlockId shared)
{
    makeRoom(1);
    std::optional<BlockId> fresh = blocks.allocate();
    if (!fresh)
        return std::nullopt;
    // The copy starts with the same content as the original.
    setBlockSig(*fresh, blockSig(shared));
    blocks.free(shared); // drop the caller's reference on the original
    updateEvictable(shared);
    updateEvictable(*fresh);
    enforceCacheCap();
    notePeak();
    return fresh;
}

std::size_t
KvCache::evictCached(std::size_t want)
{
    std::size_t freed = 0;
    while (freed < want) {
        std::vector<BlockId> evicted = index.evictLru(
            want - freed, [this](BlockId id) {
                return cacheOnly(id) && !blockPinned(id);
            });
        if (evicted.empty())
            break;
        for (BlockId id : evicted) {
            blocks.free(id);
            updateEvictable(id);
            if (blocks.refCount(id) == 0)
                ++freed;
            if (evictionObserver)
                evictionObserver(id);
        }
    }
    return freed;
}

std::size_t
KvCache::dropCache()
{
    std::vector<BlockId> dropped = index.clear();
    std::size_t freed = 0;
    for (BlockId id : dropped) {
        blocks.free(id);
        updateEvictable(id);
        if (blocks.refCount(id) == 0)
            ++freed;
        if (evictionObserver)
            evictionObserver(id);
    }
    return freed;
}

void
KvCache::setBlockSig(BlockId id, std::uint64_t sig)
{
    if (sigs.size() <= id)
        sigs.resize(id + 1, 0);
    sigs[id] = sig;
}

std::uint64_t
KvCache::blockSig(BlockId id) const
{
    return id < sigs.size() ? sigs[id] : 0;
}

} // namespace aqua::serve
