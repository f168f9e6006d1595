#include "tier/ssd_backend.hh"

#include "sim/logging.hh"

namespace aqua::tier {

using namespace aqua::sim;

SsdBackend::SsdBackend(hw::Server &server, hw::GpuId gpu,
                       SsdBackendConfig config)
    : server(server), gpu(gpu), cfg(config),
      engine(server, gpu, config.staging)
{
}

SsdBackend::~SsdBackend()
{
    for (auto &[id, region] : regions)
        server.ssd().allocator().free(region);
}

std::optional<serve::OffloadBackend::Handle>
SsdBackend::alloc(std::uint64_t bytes)
{
    auto region = server.ssd().allocator().allocate(bytes);
    if (!region)
        return std::nullopt;
    Handle h;
    h.id = nextId++;
    h.bytes = bytes;
    regions[h.id] = *region;
    return h;
}

void
SsdBackend::free(const Handle &handle)
{
    auto it = regions.find(handle.id);
    if (it == regions.end())
        panic("SsdBackend::free: unknown handle %llu",
              static_cast<unsigned long long>(handle.id));
    server.ssd().allocator().free(it->second);
    regions.erase(it);
}

hw::TransferTiming
SsdBackend::write(const Handle &handle, std::uint64_t bytes,
                  std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("SsdBackend::write beyond handle size");
    // Staged: one gathered PCIe transfer, one sequential media write —
    // instead of nChunks random accesses on both hops.
    return engine.transferChunks(hw::ssdId, /*outbound=*/true, bytes,
                                 nChunks, cfg.useStaging, earliest);
}

hw::TransferTiming
SsdBackend::read(const Handle &handle, std::uint64_t bytes,
                 std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("SsdBackend::read beyond handle size");
    return engine.transferChunks(hw::ssdId, /*outbound=*/false, bytes,
                                 nChunks, cfg.useStaging, earliest);
}

hw::TransferTiming
SsdBackend::writeFromDram(const Handle &handle, std::uint64_t bytes,
                          std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("SsdBackend::writeFromDram beyond handle size");
    return server.topology().copyScattered(hw::hostDramId, hw::ssdId,
                                           bytes, nChunks, earliest);
}

hw::TransferTiming
SsdBackend::readToDram(const Handle &handle, std::uint64_t bytes,
                       std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("SsdBackend::readToDram beyond handle size");
    return server.topology().copyScattered(hw::ssdId, hw::hostDramId,
                                           bytes, nChunks, earliest);
}

Tick
SsdBackend::respond()
{
    // The SSD tier migrates nothing on its own; the TierManager's
    // settle pass drives demotion explicitly.
    return server.simulation().now();
}

} // namespace aqua::tier
