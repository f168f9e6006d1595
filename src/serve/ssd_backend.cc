#include "serve/ssd_backend.hh"

#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

SsdBackend::SsdBackend(hw::Server &server, hw::GpuId gpu)
    : server(server), engine(server, gpu)
{
}

SsdBackend::~SsdBackend()
{
    for (auto &[id, region] : regions)
        server.ssd().allocator().free(region);
}

std::optional<OffloadBackend::Handle>
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
                                 nChunks, /*staged=*/true, earliest);
}

hw::TransferTiming
SsdBackend::read(const Handle &handle, std::uint64_t bytes,
                 std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("SsdBackend::read beyond handle size");
    return engine.transferChunks(hw::ssdId, /*outbound=*/false, bytes,
                                 nChunks, /*staged=*/true, earliest);
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
    // The SSD migrates nothing on its own; SsdTier's settle pass
    // drives demotion explicitly.
    return server.simulation().now();
}

} // namespace aqua::serve
