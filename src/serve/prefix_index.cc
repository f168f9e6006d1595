#include "serve/prefix_index.hh"

#include <algorithm>

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
    : blockTokens(blockTokens), table(16), tableShift(64 - 4)
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

std::size_t
PrefixIndex::probe(std::uint64_t key) const
{
    const std::size_t mask = table.size() - 1;
    std::size_t b = home(key);
    while (table[b].slot != kNone && table[b].key != key)
        b = (b + 1) & mask;
    return b;
}

void
PrefixIndex::grow()
{
    table.assign(table.size() * 2, Bucket{});
    --tableShift;
    for (std::uint32_t s = 0; s < slots.size(); ++s) {
        if (slots[s].tokens != 0)
            table[probe(slots[s].key)] = {slots[s].key, s};
    }
}

void
PrefixIndex::addEntry(std::size_t b, const Entry &e)
{
    if ((live + 1) * 2 > table.size()) {
        grow();
        b = probe(e.key);
    }
    std::uint32_t s = freeHead;
    if (s != kNone) {
        freeHead = slots[s].next;
        slots[s] = e;
    } else {
        if (slots.size() >= kDetached)
            aqua::sim::panic("PrefixIndex: slot ids exhausted");
        s = static_cast<std::uint32_t>(slots.size());
        slots.push_back(e);
    }
    table[b] = {e.key, s};
    if (held.size() <= e.block)
        held.resize(std::size_t(e.block) + 1, 0);
    ++held[e.block];
    ++live;
    if (policy == EvictionPolicy::CostAware) {
        costOrder.insert(costOrder.end(), s);
    } else {
        slots[s].prev = kDetached;
        touched.push_back({e.block, s, e.key});
    }
}

void
PrefixIndex::dropEntry(std::uint32_t s)
{
    Entry &e = slots[s];
    // Backward-shift deletion: pull each later entry of the probe run
    // into the hole unless its home lies cyclically after the hole.
    const std::size_t mask = table.size() - 1;
    std::size_t hole = probe(e.key);
    for (std::size_t b = (hole + 1) & mask; table[b].slot != kNone;
         b = (b + 1) & mask) {
        if (((b - home(table[b].key)) & mask) >= ((b - hole) & mask)) {
            table[hole] = table[b];
            hole = b;
        }
    }
    table[hole].slot = kNone;
    --held[e.block];
    --live;
    e.tokens = 0;
    e.next = freeHead;
    freeHead = s;
}

void
PrefixIndex::unlink(std::uint32_t s)
{
    Entry &e = slots[s];
    (e.prev == kNone ? head : slots[e.prev].next) = e.next;
    (e.next == kNone ? tail : slots[e.next].prev) = e.prev;
}

void
PrefixIndex::linkBefore(std::uint32_t s, std::uint32_t at)
{
    Entry &e = slots[s];
    e.next = at;
    e.prev = at == kNone ? tail : slots[at].prev;
    (e.prev == kNone ? head : slots[e.prev].next) = s;
    (at == kNone ? tail : slots[at].prev) = s;
}

void
PrefixIndex::touchEntry(std::uint32_t s, aqua::sim::Tick now, bool hit)
{
    Entry &e = slots[s];
    if (policy == EvictionPolicy::CostAware) {
        // Re-rank through the set's own node, so no allocation.
        auto node = costOrder.extract(s);
        e.lastUse = now;
        e.uses += hit;
        // A touch usually makes the entry the newest: hint the back.
        costOrder.insert(costOrder.end(), std::move(node));
        return;
    }
    if (e.prev != kDetached) {
        unlink(s);
        e.prev = kDetached;
        touched.push_back({e.block, s, e.key});
    }
    e.lastUse = now;
    e.uses += hit;
}

void
PrefixIndex::mergeTouched(aqua::sim::Tick now)
{
    if (touched.empty())
        return;
    auto byBlockKey = [](const Touched &a, const Touched &b) {
        return a.block != b.block ? a.block < b.block : a.key < b.key;
    };
    if (!std::is_sorted(touched.begin(), touched.end(), byBlockKey))
        std::sort(touched.begin(), touched.end(), byBlockKey);
    // Whether list entry @p e goes before touched entry @p t, which
    // is stamped now: the full (last use, block, key) order.
    auto before = [now](const Entry &e, const Touched &t) {
        if (e.lastUse != now)
            return e.lastUse < now;
        return e.block != t.block ? e.block < t.block : e.key < t.key;
    };
    // Back up from the tail over the entries that do not go before the
    // first touched one: every entry before them precedes the batch.
    // Usually that is none (a publish newer than everything) or the
    // run stamped now; an older @p now walks further.
    std::uint32_t at = tail;
    while (at != kNone && !before(slots[at], touched.front()))
        at = slots[at].prev;
    at = at == kNone ? head : slots[at].next;
    for (const Touched &t : touched) {
        while (at != kNone && before(slots[at], t))
            at = slots[at].next;
        linkBefore(t.slot, at);
    }
    touched.clear();
}

bool
PrefixIndex::usedBefore(const Entry &a, const Entry &b)
{
    if (a.lastUse != b.lastUse)
        return a.lastUse < b.lastUse;
    if (a.block != b.block)
        return a.block < b.block;
    // One block can back a full and a stale partial entry with the
    // same stamps; the key makes the order total.
    return a.key < b.key;
}

bool
PrefixIndex::CostOrder::operator()(std::uint32_t a, std::uint32_t b) const
{
    const Entry &ea = (*slots)[a];
    const Entry &eb = (*slots)[b];
    // Cheapest loss first: chain depth x hit count approximates the
    // recompute bill of evicting.
    std::uint64_t ca = ea.depth * ea.uses;
    std::uint64_t cb = eb.depth * eb.uses;
    return ca != cb ? ca < cb : usedBefore(ea, eb);
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
        std::uint32_t s = table[probe(next.key & primaryMask)].slot;
        if (s == kNone)
            break;
        const Entry &e = slots[s];
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
            touchEntry(s, now, /*hit=*/true);
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
        std::uint64_t key = partialKey(chain.keysAt(full).key, rem);
        std::uint32_t s = table[probe(key & primaryMask)].slot;
        if (s != kNone) {
            const Entry &e = slots[s];
            if (e.tokens == rem && e.verify == pc.verify) {
                m.blocks.push_back(e.block);
                m.tokens += rem;
                m.partialTokens = rem;
                if (touch) {
                    touchEntry(s, now, /*hit=*/true);
                    ++counters.partialHits;
                }
            } else if (touch) {
                ++counters.collisions;
            }
        }
    }
    mergeTouched(now);
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
        std::size_t b = probe(key);
        std::uint32_t s = table[b].slot;
        if (s == kNone) {
            Entry e;
            e.key = key;
            e.verify = verify;
            e.lastUse = now;
            e.block = block;
            e.tokens = count;
            e.depth = depth;
            addEntry(b, e);
            ++counters.insertions;
            newly.push_back(block);
            return;
        }
        // Same content already cached (or a primary collision): keep
        // the existing entry; refresh its LRU stamp on a content match.
        if (slots[s].verify == verify && slots[s].tokens == count)
            touchEntry(s, now, /*hit=*/false);
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
    mergeTouched(now);
    return newly;
}

void
PrefixIndex::setEvictionPolicy(EvictionPolicy next)
{
    if (next == policy)
        return;
    policy = next;
    if (policy == EvictionPolicy::CostAware) {
        for (std::uint32_t s = head; s != kNone; s = slots[s].next)
            costOrder.insert(s);
        head = tail = kNone;
        return;
    }
    std::vector<std::uint32_t> order(costOrder.begin(), costOrder.end());
    costOrder.clear();
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return usedBefore(slots[a], slots[b]);
              });
    for (std::uint32_t s : order)
        linkBefore(s, kNone);
}

std::vector<aqua::mem::BlockId>
PrefixIndex::evictLru(
    std::size_t maxEntries,
    const std::function<bool(aqua::mem::BlockId)> &evictable)
{
    std::vector<aqua::mem::BlockId> out;
    // Walk oldest first; re-check evictability as refs change while
    // earlier evictions release sibling entries' blocks.
    auto evict = [&](std::uint32_t s) {
        out.push_back(slots[s].block);
        dropEntry(s);
        ++counters.evictions;
    };
    if (policy == EvictionPolicy::CostAware) {
        for (auto it = costOrder.begin();
             it != costOrder.end() && out.size() < maxEntries;) {
            std::uint32_t s = *it;
            if (!evictable(slots[s].block)) {
                ++it;
                continue;
            }
            it = costOrder.erase(it);
            evict(s);
        }
        return out;
    }
    for (std::uint32_t s = head; s != kNone && out.size() < maxEntries;) {
        std::uint32_t next = slots[s].next;
        if (evictable(slots[s].block)) {
            unlink(s);
            evict(s);
        }
        s = next;
    }
    return out;
}

std::vector<aqua::mem::BlockId>
PrefixIndex::clear()
{
    std::vector<aqua::mem::BlockId> out;
    out.reserve(live);
    if (policy == EvictionPolicy::CostAware) {
        for (std::uint32_t s : costOrder)
            out.push_back(slots[s].block);
    } else {
        for (std::uint32_t s = head; s != kNone; s = slots[s].next)
            out.push_back(slots[s].block);
    }
    counters.evictions += live;
    costOrder.clear();
    head = tail = kNone;
    slots.clear();
    freeHead = kNone;
    live = 0;
    std::fill(table.begin(), table.end(), Bucket{});
    std::fill(held.begin(), held.end(), 0);
    return out;
}

} // namespace aqua::serve
