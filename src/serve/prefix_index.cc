#include "serve/prefix_index.hh"

#include "sim/logging.hh"

namespace aqua::serve {

namespace {

/** splitmix64 finalizer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Primary rolling combine. */
std::uint64_t
combineKey(std::uint64_t h, std::uint64_t v)
{
    return mix64(h ^ (v * 0x9ddfea08eb382d69ull));
}

/** Verification combine: independent constants so the two chains do
 *  not collide together. */
std::uint64_t
combineVerify(std::uint64_t h, std::uint64_t v)
{
    return mix64((h + v) * 0xc2b2ae3d27d4eb4full + 0x165667b19e3779f9ull);
}

constexpr std::uint64_t kSeedKey = 0x243f6a8885a308d3ull;
constexpr std::uint64_t kSeedVerify = 0x452821e638d01377ull;
constexpr std::uint64_t kPartialSalt = 0xb5297a4d3c2c1b3full;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Both rolling hashes extended by one token's content id. */
ChainKeys
extendKeys(ChainKeys chain, std::uint64_t content)
{
    chain.key = combineKey(chain.key, content);
    chain.verify = combineVerify(chain.verify, content);
    return chain;
}

/** FNV-1a over a content id's eight bytes, low byte first. */
std::uint64_t
fnvToken(std::uint64_t h, std::uint64_t content)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (content >> (8 * b)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

/** Map key of a partial tail after a chain with primary key @p key. */
std::uint64_t
partialKey(std::uint64_t key, std::uint32_t tokens)
{
    return mix64(key ^ (std::uint64_t(tokens) * kPartialSalt));
}

} // anonymous namespace

TokenFn
tokenFnFor(const workload::Request &request)
{
    return [request](std::uint64_t pos) {
        return workload::tokenContent(request, pos);
    };
}

TokenChain::TokenChain(TokenFn tok, std::uint32_t blockTokens)
    : tok(std::move(tok)), perBlock(blockTokens)
{
    if (blockTokens == 0)
        aqua::sim::panic("TokenChain: zero block tokens");
}

ChainKeys
TokenChain::seedKeys()
{
    return {kSeedKey, kSeedVerify};
}

void
TokenChain::fill(std::size_t last) const
{
    if (perBlock == 0)
        aqua::sim::panic("TokenChain: query on an empty chain");
    while (memo.size() <= last) {
        std::uint64_t first = memo.size() * std::uint64_t(perBlock);
        ChainKeys keys = seedKeys();
        std::uint64_t prefixSig = kFnvBasis;
        if (!memo.empty()) {
            keys = {memo.back().key, memo.back().verify};
            prefixSig = memo.back().prefixSig;
        }
        std::uint64_t blockSig = kFnvBasis;
        for (std::uint32_t t = 0; t < perBlock; ++t) {
            std::uint64_t content = tok(first + t);
            keys = extendKeys(keys, content);
            prefixSig = fnvToken(prefixSig, content);
            blockSig = fnvToken(blockSig, content);
        }
        memo.push_back({keys.key, keys.verify, prefixSig, blockSig});
    }
}

ChainKeys
TokenChain::extend(std::size_t fullBlocks, std::uint32_t count) const
{
    ChainKeys keys = keysAt(fullBlocks);
    std::uint64_t first = fullBlocks * std::uint64_t(perBlock);
    for (std::uint32_t t = 0; t < count; ++t)
        keys = extendKeys(keys, tok(first + t));
    return keys;
}

std::uint64_t
TokenChain::sig(std::uint64_t first, std::uint64_t count) const
{
    if (perBlock == 0)
        aqua::sim::panic("TokenChain: query on an empty chain");
    if (count == perBlock && first % perBlock == 0)
        return block(static_cast<std::size_t>(first / perBlock)).blockSig;
    std::uint64_t h = kFnvBasis;
    if (first == 0 && count >= perBlock) {
        std::uint64_t full = count / perBlock;
        h = block(static_cast<std::size_t>(full - 1)).prefixSig;
        first = full * perBlock;
        count -= first;
    }
    for (std::uint64_t t = 0; t < count; ++t)
        h = fnvToken(h, tok(first + t));
    return h;
}

void
TokenChain::release()
{
    std::vector<Block>().swap(memo);
}

PrefixIndex::PrefixIndex(std::uint32_t blockTokens)
    : blockTokens(blockTokens)
{
    if (blockTokens == 0)
        aqua::sim::panic("PrefixIndex: zero block tokens");
}

void
PrefixIndex::checkBlockTokens(const TokenChain &chain) const
{
    if (chain.blockTokens() != blockTokens) {
        aqua::sim::panic("PrefixIndex: chain of %u-token blocks on a "
                         "%u-token index", chain.blockTokens(),
                         blockTokens);
    }
}

PrefixIndex::Match
PrefixIndex::lookup(const TokenChain &chain, std::uint64_t maxTokens,
                    aqua::sim::Tick now, bool touch)
{
    checkBlockTokens(chain);
    Match m;
    std::uint64_t fullWanted = maxTokens / blockTokens;
    std::uint64_t i = 0;
    for (; i < fullWanted; ++i) {
        ChainKeys next = chain.keysAt(static_cast<std::size_t>(i + 1));
        auto it = map.find(next.key & primaryMask);
        if (it == map.end())
            break;
        Entry &e = it->second;
        if (e.tokens != blockTokens || e.verify != next.verify) {
            // Primary-key collision (or a partial entry aliased under
            // a narrow mask): fall back to a miss, never share.
            if (touch)
                ++counters.collisions;
            break;
        }
        m.blocks.push_back(e.block);
        m.tokens += blockTokens;
        if (touch) {
            touchEntry(*it, now, /*hit=*/true);
            ++counters.hits;
        }
    }
    if (touch)
        counters.misses += fullWanted - i;

    // A partially filled tail is shareable (copy-on-write) only when
    // every full block before it matched.
    std::uint32_t rem = static_cast<std::uint32_t>(
        maxTokens - i * blockTokens);
    if (i == fullWanted && rem > 0 && rem < blockTokens) {
        auto full = static_cast<std::size_t>(i);
        ChainKeys pc = chain.extend(full, rem);
        auto it = map.find(partialKey(chain.keysAt(full).key, rem) &
                           primaryMask);
        if (it != map.end()) {
            Entry &e = it->second;
            if (e.tokens == rem && e.verify == pc.verify) {
                m.blocks.push_back(e.block);
                m.tokens += rem;
                m.partialTokens = rem;
                if (touch) {
                    touchEntry(*it, now, /*hit=*/true);
                    ++counters.partialHits;
                }
            } else if (touch) {
                ++counters.collisions;
            }
        }
    }
    return m;
}

std::vector<aqua::mem::BlockId>
PrefixIndex::insert(const TokenChain &chain, std::uint64_t tokens,
                    const std::vector<aqua::mem::BlockId> &blocks,
                    aqua::sim::Tick now)
{
    checkBlockTokens(chain);
    std::vector<aqua::mem::BlockId> newly;
    std::uint64_t full = tokens / blockTokens;
    if (blocks.size() * blockTokens < tokens) {
        aqua::sim::panic("PrefixIndex::insert: %zu blocks cannot hold "
                         "%llu tokens", blocks.size(),
                         static_cast<unsigned long long>(tokens));
    }
    std::uint32_t depth = 0;
    auto place = [&](std::uint64_t key, std::uint64_t verify,
                     aqua::mem::BlockId block, std::uint32_t count) {
        ++depth;
        auto it = map.find(key);
        if (it == map.end()) {
            it = map.emplace(key, Entry{block, verify, count, now, depth, 0})
                     .first;
            order.insert(&*it);
            ++held[block];
            ++counters.insertions;
            newly.push_back(block);
            return;
        }
        // Same content already cached (or a primary collision): keep
        // the existing entry; refresh its LRU stamp on a content match.
        if (it->second.verify == verify && it->second.tokens == count)
            touchEntry(*it, now, /*hit=*/false);
        else
            ++counters.collisions;
    };

    for (std::size_t i = 0; i < full; ++i) {
        ChainKeys keys = chain.keysAt(i + 1);
        place(keys.key & primaryMask, keys.verify, blocks[i], blockTokens);
    }
    std::uint32_t rem = static_cast<std::uint32_t>(
        tokens - full * blockTokens);
    if (rem > 0) {
        auto f = static_cast<std::size_t>(full);
        ChainKeys pc = chain.extend(f, rem);
        place(partialKey(chain.keysAt(f).key, rem) & primaryMask,
              pc.verify, blocks[f], rem);
    }
    return newly;
}

bool
PrefixIndex::VictimOrder::operator()(const Node *a, const Node *b) const
{
    const Entry &ea = a->second;
    const Entry &eb = b->second;
    if (policy == EvictionPolicy::CostAware) {
        // Cheapest loss first: chain depth x hit count approximates
        // the recompute bill of evicting.
        std::uint64_t ca = ea.depth * ea.uses;
        std::uint64_t cb = eb.depth * eb.uses;
        if (ca != cb)
            return ca < cb;
    }
    if (ea.lastUse != eb.lastUse)
        return ea.lastUse < eb.lastUse;
    if (ea.block != eb.block)
        return ea.block < eb.block;
    // One block can back a full and a stale partial entry with the
    // same stamps; the key makes their order total.
    return a->first < b->first;
}

void
PrefixIndex::touchEntry(Node &node, aqua::sim::Tick now, bool hit)
{
    auto handle = order.extract(&node);
    node.second.lastUse = now;
    if (hit)
        ++node.second.uses;
    // A touch usually makes the entry the newest: hint the back.
    order.insert(order.end(), std::move(handle));
}

void
PrefixIndex::setEvictionPolicy(EvictionPolicy policy)
{
    order = decltype(order)(VictimOrder{policy});
    for (const Node &node : map)
        order.insert(&node);
}

std::vector<aqua::mem::BlockId>
PrefixIndex::evictLru(
    std::size_t maxEntries,
    const std::function<bool(aqua::mem::BlockId)> &evictable)
{
    std::vector<aqua::mem::BlockId> out;
    // Walk oldest first; re-check evictability as refs change while
    // earlier evictions release sibling entries' blocks.
    for (auto it = order.begin();
         it != order.end() && out.size() < maxEntries;) {
        const Node *node = *it;
        aqua::mem::BlockId block = node->second.block;
        if (!evictable(block)) {
            ++it;
            continue;
        }
        it = order.erase(it);
        map.erase(node->first);
        auto h = held.find(block);
        if (h != held.end() && --h->second == 0)
            held.erase(h);
        ++counters.evictions;
        out.push_back(block);
    }
    return out;
}

std::vector<aqua::mem::BlockId>
PrefixIndex::clear()
{
    std::vector<aqua::mem::BlockId> out;
    out.reserve(map.size());
    for (const auto &[key, e] : map)
        out.push_back(e.block);
    counters.evictions += map.size();
    order.clear();
    map.clear();
    held.clear();
    return out;
}

std::uint32_t
PrefixIndex::refsHeld(aqua::mem::BlockId id) const
{
    auto it = held.find(id);
    return it == held.end() ? 0 : it->second;
}

} // namespace aqua::serve
