#include "serve/lora_cache.hh"

#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

LoraCache::LoraCache(hw::Gpu &gpu, OffloadBackend &backend,
                     std::vector<model::LoraAdapter> adapters,
                     LoraCacheConfig config)
    : gpu(gpu), backend(backend), cfg(config), pool(std::move(adapters))
{
    reservation = gpu.hbm().allocate(cfg.capacityBytes);
    if (!reservation) {
        panic("LoraCache: cannot reserve %llu bytes on %s",
              static_cast<unsigned long long>(cfg.capacityBytes),
              gpu.name().c_str());
    }
    entries.resize(pool.size());
    // All adapters start in the offload store (DRAM for the baseline;
    // a peer lease or DRAM for AQUA).
    for (std::size_t i = 0; i < pool.size(); ++i) {
        auto handle = backend.alloc(pool[i].bytes);
        if (!handle) {
            panic("LoraCache: backend cannot hold adapter %s",
                  pool[i].name.c_str());
        }
        entries[i].handle = *handle;
    }
}

LoraCache::~LoraCache()
{
    for (Entry &e : entries)
        backend.free(e.handle);
    if (reservation)
        gpu.hbm().free(*reservation);
}

bool
LoraCache::resident(model::LoraId id) const
{
    if (id >= entries.size())
        panic("LoraCache: bad adapter id %u", id);
    return entries[id].isResident;
}

bool
LoraCache::makeRoom(std::uint64_t bytes)
{
    while (bytesResident + bytes > cfg.capacityBytes) {
        if (lru.empty())
            return false;
        model::LoraId victim = lru.front();
        lru.pop_front();
        Entry &e = entries[victim];
        // Adapters are read-only: eviction is free (no write-back).
        e.isResident = false;
        bytesResident -= pool[victim].bytes;
    }
    return true;
}

bool
LoraCache::acquire(model::LoraId id, Tick &loadedUntil)
{
    if (id >= entries.size())
        panic("LoraCache: bad adapter id %u", id);
    Entry &e = entries[id];
    const model::LoraAdapter &a = pool[id];

    if (e.isResident) {
        ++nHits;
        if (e.pins == 0)
            lru.erase(e.lruPos);
        ++e.pins;
        loadedUntil = 0; // hit: available immediately
        return true;
    }

    if (!makeRoom(a.bytes))
        return false;
    ++nMisses;

    std::uint64_t chunks =
        (a.bytes + cfg.chunkBytes - 1) / cfg.chunkBytes;
    if (chunks == 0)
        chunks = 1;
    hw::TransferTiming timing =
        backend.read(e.handle, a.bytes, chunks);
    Tick done = timing.complete;
    if (!backend.staged()) {
        // The unstaged path pays framework overhead per small copy
        // (§B.1's "multiple small data transfers").
        done += cfg.chunkSetupOverhead * chunks;
    }
    e.isResident = true;
    e.pins = 1;
    bytesResident += a.bytes;
    loadedUntil = done;
    return true;
}

void
LoraCache::release(model::LoraId id)
{
    if (id >= entries.size())
        panic("LoraCache: bad adapter id %u", id);
    Entry &e = entries[id];
    if (!e.isResident || e.pins == 0)
        panic("LoraCache::release: adapter %u not acquired", id);
    if (--e.pins == 0) {
        lru.push_back(id);
        e.lruPos = std::prev(lru.end());
    }
}

} // namespace aqua::serve
