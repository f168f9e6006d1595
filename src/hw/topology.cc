#include "hw/topology.hh"

#include <utility>

#include "sim/logging.hh"

namespace aqua::hw {

using namespace aqua::sim;

namespace {

Link
makeNvlinkModel(const GpuSpec &spec, TopologyKind kind)
{
    // An NVSwitch hop adds a little latency over direct NVLinks but
    // preserves the pairwise bandwidth (the paper confirms AQUA's
    // benefits extend to the switched 8-GPU server, Fig. 18).
    Tick latency = spec.nvlinkLatency;
    if (kind == TopologyKind::NvSwitch)
        latency += usToTicks(0.3);
    return Link("nvlink", spec.nvlinkBandwidth, spec.nvlinkRampBytes,
                latency);
}

Link
makePcieModel(const GpuSpec &spec)
{
    return Link("pcie", spec.pcieBandwidth, spec.pcieRampBytes,
                spec.pcieLatency);
}

} // anonymous namespace

Topology::Topology(Simulation &sim, std::vector<Gpu *> gpus,
                   TopologyKind kind)
    : sim(sim), gpus(std::move(gpus)), _kind(kind),
      nvlink(makeNvlinkModel(this->gpus.at(0)->spec(), kind)),
      pcie(makePcieModel(this->gpus.at(0)->spec())),
      failed(this->gpus.size(), false)
{
    if (this->gpus.size() < 1)
        panic("Topology: need at least one GPU");
    if (kind == TopologyKind::DirectP2P && this->gpus.size() > 2) {
        // Direct all-to-all NVLink wiring beyond 2 GPUs exists (DGX-1
        // style) but the paper's P2P testbed is the 2-GPU server.
        warn("DirectP2P topology with %zu GPUs: modelling dedicated "
             "links per pair", this->gpus.size());
    }
}

void
Topology::checkEndpoint(GpuId id) const
{
    if (id == hostDramId)
        return;
    if (id == ssdId) {
        if (!_ssd)
            panic("Topology: ssd endpoint used without attachSsd()");
        return;
    }
    if (id < 0 || static_cast<std::size_t>(id) >= gpus.size())
        panic("Topology: bad endpoint id %d", id);
}

Tick
Topology::peerTransferDuration(std::uint64_t bytes) const
{
    return nvlink.transferTime(bytes);
}

Tick
Topology::hostTransferDuration(std::uint64_t bytes) const
{
    return pcie.transferTime(bytes);
}

void
Topology::degradePeerLink(double factor)
{
    nvlink.setDegradation(factor);
}

void
Topology::degradeHostLink(double factor)
{
    pcie.setDegradation(factor);
}

void
Topology::degradeSsd(double factor)
{
    if (!_ssd)
        panic("Topology::degradeSsd: no SSD attached");
    _ssd->setDegradation(factor);
}

void
Topology::markSsdFailed(bool isFailed)
{
    if (!_ssd)
        panic("Topology::markSsdFailed: no SSD attached");
    _ssd->setFailed(isFailed);
}

void
Topology::markGpuFailed(GpuId gpu, bool isFailed)
{
    checkEndpoint(gpu);
    if (gpu == hostDramId)
        panic("Topology::markGpuFailed: host DRAM cannot fail");
    failed[gpu] = isFailed;
}

bool
Topology::gpuFailed(GpuId gpu) const
{
    if (gpu == hostDramId)
        return false;
    checkEndpoint(gpu);
    return failed[gpu];
}

TransferTiming
Topology::route(GpuId src, GpuId dst, std::uint64_t bytes,
                Tick duration, TransferCallback cb, Tick earliest_req)
{
    checkEndpoint(src);
    checkEndpoint(dst);
    if (src == dst)
        panic("Topology: src == dst (%d)", src);
    if (src != hostDramId && failed[src])
        panic("Topology: transfer from failed GPU %d (memory is dark; "
              "evacuation must beat the grace window)", src);
    if (dst != hostDramId && failed[dst])
        panic("Topology: transfer to failed GPU %d", dst);

    bool via_pcie = (src == hostDramId || dst == hostDramId);
    Tick now = sim.now();
    if (earliest_req > now)
        now = earliest_req;

    // Find the earliest instant both ports are free, then reserve the
    // same interval on each so a later transfer through either GPU
    // queues behind this one.
    Resource *src_port = nullptr;
    Resource *dst_port = nullptr;
    if (via_pcie) {
        if (src == hostDramId)
            dst_port = &gpus[dst]->pcieRx();
        else
            src_port = &gpus[src]->pcieTx();
    } else {
        src_port = &gpus[src]->nvlinkTx();
        dst_port = &gpus[dst]->nvlinkRx();
    }

    Tick earliest = now;
    if (src_port && src_port->freeAt() > earliest)
        earliest = src_port->freeAt();
    if (dst_port && dst_port->freeAt() > earliest)
        earliest = dst_port->freeAt();

    Tick complete = earliest + duration;
    if (src_port)
        src_port->occupy(earliest, duration);
    if (dst_port)
        dst_port->occupy(earliest, duration);

    if (via_pcie) {
        _hostBytes += bytes;
        if (src != hostDramId)
            gpus[src]->addPcieBytes(bytes);
        if (dst != hostDramId)
            gpus[dst]->addPcieBytes(bytes);
    } else {
        _peerBytes += bytes;
        gpus[src]->addNvlinkBytes(bytes);
        gpus[dst]->addNvlinkBytes(bytes);
    }

    if (cb)
        sim.queue().schedule(complete, std::move(cb));
    return TransferTiming{earliest, complete};
}

TransferTiming
Topology::routeSsd(GpuId src, GpuId dst, std::uint64_t chunkBytes,
                   std::uint64_t count, TransferCallback cb,
                   Tick earliest_req)
{
    checkEndpoint(src);
    checkEndpoint(dst);
    if (src == dst)
        panic("Topology: src == dst (%d)", src);

    bool reading = (src == ssdId);
    GpuId other = reading ? dst : src;
    std::uint64_t bytes = chunkBytes * count;

    Tick now = sim.now();
    if (earliest_req > now)
        now = earliest_req;

    if (other == hostDramId) {
        // Tier demotion/promotion: DRAM↔SSD moves touch only the
        // media, not the PCIe ports the GPUs compete for.
        Tick complete = reading ? _ssd->read(chunkBytes, count, now)
                                : _ssd->write(chunkBytes, count, now);
        if (cb)
            sim.queue().schedule(complete, std::move(cb));
        return TransferTiming{now, complete};
    }

    Tick pcieDuration = count <= 1
        ? pcie.transferTime(bytes)
        : pcie.transferTimeChunked(chunkBytes, count);
    if (reading) {
        // Media read first, then the PCIe hop up to the GPU.
        Tick mediaDone = _ssd->read(chunkBytes, count, now);
        TransferTiming up = route(hostDramId, other, bytes,
                                  pcieDuration, std::move(cb),
                                  mediaDone);
        return TransferTiming{now, up.complete};
    }
    // PCIe hop down to DRAM, then the media write drains behind it.
    TransferTiming down =
        route(other, hostDramId, bytes, pcieDuration, {}, now);
    Tick complete = _ssd->write(chunkBytes, count, down.complete);
    if (cb)
        sim.queue().schedule(complete, std::move(cb));
    return TransferTiming{down.start, complete};
}

TransferTiming
Topology::copy(GpuId src, GpuId dst, std::uint64_t bytes,
               TransferCallback cb, Tick earliest)
{
    if (src == ssdId || dst == ssdId)
        return routeSsd(src, dst, bytes, 1, std::move(cb), earliest);
    bool via_pcie = (src == hostDramId || dst == hostDramId);
    Tick duration = via_pcie ? pcie.transferTime(bytes)
                             : nvlink.transferTime(bytes);
    return route(src, dst, bytes, duration, std::move(cb), earliest);
}

TransferTiming
Topology::copyChunked(GpuId src, GpuId dst, std::uint64_t chunkBytes,
                      std::uint64_t count, TransferCallback cb,
                      Tick earliest)
{
    if (src == ssdId || dst == ssdId)
        return routeSsd(src, dst, chunkBytes, count, std::move(cb),
                        earliest);
    bool via_pcie = (src == hostDramId || dst == hostDramId);
    Tick duration = via_pcie
        ? pcie.transferTimeChunked(chunkBytes, count)
        : nvlink.transferTimeChunked(chunkBytes, count);
    return route(src, dst, chunkBytes * count, duration, std::move(cb),
                 earliest);
}

TransferTiming
Topology::copyScattered(GpuId src, GpuId dst, std::uint64_t bytes,
                        std::uint64_t nChunks, Tick earliest)
{
    if (nChunks <= 1)
        return copy(src, dst, bytes, {}, earliest);
    std::uint64_t chunk = bytes / nChunks;
    return copyChunked(src, dst, chunk > 0 ? chunk : 1, nChunks, {}, earliest);
}

} // namespace aqua::hw
